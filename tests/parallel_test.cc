#include "exp/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace softres::exp {
namespace {

TEST(ParallelExecutorTest, ResultsComeBackInInputOrder) {
  ParallelExecutor pool(4);
  // Early tasks sleep longest so completion order inverts input order.
  const auto out = pool.run_indexed(8, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
    return i * 10;
  });
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
}

TEST(ParallelExecutorTest, RunAllPreservesOrderOfHeterogeneousTasks) {
  ParallelExecutor pool(3);
  std::vector<std::function<std::string()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((6 - i) * 2));
      return "task" + std::to_string(i);
    });
  }
  const auto out = pool.run_all(std::move(tasks));
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], "task" + std::to_string(i));
}

TEST(ParallelExecutorTest, FirstInputOrderedExceptionPropagates) {
  ParallelExecutor pool(4);
  std::atomic<int> completed{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &completed]() -> int {
      if (i == 2) throw std::runtime_error("trial 2 failed");
      if (i == 5) throw std::logic_error("trial 5 failed");
      ++completed;
      return i;
    });
  }
  try {
    pool.run_all(std::move(tasks));
    FAIL() << "expected run_all to rethrow";
  } catch (const std::runtime_error& e) {
    // Input order: the runtime_error from task 2 wins over task 5's.
    EXPECT_STREQ(e.what(), "trial 2 failed");
  }
  // Every non-throwing job ran to completion before the rethrow — no work
  // is left detached referencing caller state.
  EXPECT_EQ(completed.load(), 6);
}

TEST(ParallelExecutorTest, SingleJobRunsInlineOnCaller) {
  ParallelExecutor pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.run_indexed(
      4, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelExecutorTest, MultiJobRunsOffCaller) {
  ParallelExecutor pool(2);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.run_indexed(
      4, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_NE(id, caller);
}

TEST(ParallelExecutorTest, OversubscriptionCompletesEveryTask) {
  // Far more workers than cores and far more tasks than workers: everything
  // still completes exactly once, in order.
  ParallelExecutor pool(32);
  std::atomic<int> ran{0};
  const auto out = pool.run_indexed(200, [&ran](std::size_t i) {
    ++ran;
    return i;
  });
  EXPECT_EQ(ran.load(), 200);
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(ParallelExecutorTest, SubmitReturnsUsableFuture) {
  ParallelExecutor pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ParallelExecutorTest, DefaultJobsHonoursEnvironment) {
  ::setenv("SOFTRES_JOBS", "3", 1);
  EXPECT_EQ(ParallelExecutor::default_jobs(), 3u);
  EXPECT_EQ(ParallelExecutor(0).jobs(), 3u);

  ::unsetenv("SOFTRES_JOBS");
  EXPECT_GE(ParallelExecutor::default_jobs(), 1u);
}

TEST(ParallelExecutorTest, DefaultJobsRejectsMalformedEnvironment) {
  // Zero, garbage and trailing characters are errors naming the variable,
  // not a silent fall-back to every core (or to the leading digits).
  for (const char* v : {"0", "not-a-number", "4x", "-2", "", " 4"}) {
    ::setenv("SOFTRES_JOBS", v, 1);
    try {
      (void)ParallelExecutor::default_jobs();
      ADD_FAILURE() << "SOFTRES_JOBS=\"" << v << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SOFTRES_JOBS"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(ParallelExecutor(0), std::invalid_argument) << v;
  }
  ::unsetenv("SOFTRES_JOBS");
}

TEST(ParallelExecutorTest, ExplicitJobsBeatsEnvironment) {
  ::setenv("SOFTRES_JOBS", "7", 1);
  ParallelExecutor pool(2);
  EXPECT_EQ(pool.jobs(), 2u);
  ::unsetenv("SOFTRES_JOBS");
}

TEST(ParallelExecutorTest, ManyTasksSpreadAcrossWorkers) {
  ParallelExecutor pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.run_indexed(64, [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
    return i;
  });
  // With 64 sleeping tasks on a 4-worker pool at least two workers must
  // have picked up work.
  EXPECT_GE(seen.size(), 2u);
}

}  // namespace
}  // namespace softres::exp

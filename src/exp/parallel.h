#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace softres::exp {

/// Fixed-size worker pool for embarrassingly parallel trial execution.
///
/// Sweeps are tens of independent trials; this pool fans them out across the
/// machine. Results come back in input order and the first (input-ordered)
/// exception is rethrown from run_all once every job has finished, so a
/// failing trial can never leave detached work referencing caller state.
///
/// Size resolution: an explicit `jobs` wins; otherwise SOFTRES_JOBS from the
/// environment; otherwise std::thread::hardware_concurrency(). With one job
/// the pool spawns no threads at all and runs everything inline on the
/// caller — the serial degradation used by the determinism regression tests.
///
/// Correct results do not depend on the pool size in any way: trial RNG
/// streams are derived from trial identity (exp::RunContext), never from
/// scheduling order.
class ParallelExecutor {
 public:
  /// jobs == 0 resolves via SOFTRES_JOBS / hardware_concurrency().
  explicit ParallelExecutor(std::size_t jobs = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  std::size_t jobs() const { return jobs_; }

  /// SOFTRES_JOBS if set, else hardware_concurrency() (>= 1). Throws
  /// std::invalid_argument unless SOFTRES_JOBS is a positive integer.
  static std::size_t default_jobs();

  /// Run one job asynchronously (inline when jobs() == 1, which makes the
  /// returned future already ready).
  template <typename Fn, typename T = std::invoke_result_t<Fn&>>
  std::future<T> submit(Fn fn) {
    auto task = std::make_shared<std::packaged_task<T()>>(std::move(fn));
    std::future<T> fut = task->get_future();
    post([task] { (*task)(); });
    return fut;
  }

  /// Run every job, block until all have finished, and return their results
  /// in input order. If any job threw, rethrows the first exception in input
  /// order — but only after every job has completed, so no job can outlive
  /// the call.
  template <typename Fn, typename T = std::invoke_result_t<Fn&>>
  std::vector<T> run_all(std::vector<Fn> tasks) {
    std::vector<std::future<T>> futures;
    futures.reserve(tasks.size());
    for (auto& t : tasks) futures.push_back(submit(std::move(t)));
    for (auto& f : futures) f.wait();
    std::vector<T> out;
    out.reserve(futures.size());
    for (auto& f : futures) out.push_back(f.get());
    return out;
  }

  /// Index-space variant: fn(0..n-1), results in index order.
  template <typename Fn, typename T = std::invoke_result_t<Fn&, std::size_t>>
  std::vector<T> run_indexed(std::size_t n, Fn fn) {
    std::vector<std::function<T()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([fn, i] { return fn(i); });
    }
    return run_all(std::move(tasks));
  }

 private:
  void post(std::function<void()> job);
  void worker_loop();

  std::size_t jobs_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace softres::exp

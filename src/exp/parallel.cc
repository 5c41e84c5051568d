#include "exp/parallel.h"

#include "exp/config.h"

namespace softres::exp {

std::size_t ParallelExecutor::default_jobs() {
  if (const auto jobs = env_uint("SOFTRES_JOBS", 1)) {
    return static_cast<std::size_t>(*jobs);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc >= 1 ? hc : 1;
}

ParallelExecutor::ParallelExecutor(std::size_t jobs)
    : jobs_(jobs != 0 ? jobs : default_jobs()) {
  if (jobs_ < 2) return;  // serial mode: no threads, post() runs inline
  workers_.reserve(jobs_);
  for (std::size_t i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::post(std::function<void()> job) {
  if (workers_.empty()) {
    job();  // jobs() == 1: run on the caller, in submission order
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ParallelExecutor::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task: exceptions are captured in the future
  }
}

}  // namespace softres::exp

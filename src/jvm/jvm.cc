#include "jvm/jvm.h"

#include <cmath>

namespace softres::jvm {

Jvm::Jvm(sim::Simulator& sim, hw::Cpu& cpu, JvmConfig config, std::string name)
    : sim_(sim), cpu_(cpu), config_(config), name_(std::move(name)) {}

double Jvm::pause_duration(bool full) const {
  const double threads = static_cast<double>(live_threads_);
  double pause = config_.pause_base_s +
                 config_.pause_per_thread_s *
                     std::pow(threads, config_.thread_exponent);
  if (full) pause *= config_.full_gc_multiplier;
  return pause;
}

void Jvm::collect() {
  SOFTRES_PROF_COUNT(kJvmService);
  allocated_since_gc_mb_ = 0.0;
  ++collections_;
  const bool full =
      config_.full_gc_period > 0 && collections_ % config_.full_gc_period == 0;
  const double pause = pause_duration(full);
  total_gc_seconds_ += pause;
  // Synchronous collector: the whole process stops; pending requests resume
  // only after the pause [10], lengthening their response times.
  cpu_.freeze(pause);
}

}  // namespace softres::jvm

#pragma once

#include <cstdint>
#include <string>

#include "hw/cpu.h"
#include "sim/simulator.h"
#include "support/prof.h"

namespace softres::jvm {

/// Tunables of the garbage-collection model, loosely matching a Sun JDK 1.6
/// generational collector with the synchronous (stop-the-world) behaviour the
/// paper cites [10].
struct JvmConfig {
  /// Allocation budget between minor collections (young generation size).
  double young_gen_mb = 48.0;
  /// Pause floor for a minor collection with a tiny live set.
  double pause_base_s = 0.0015;
  /// Coefficient of the live-thread term of the pause.
  double pause_per_thread_s = 2.5e-5;
  /// Superlinearity of pause in the live-thread count. Threads pin stacks and
  /// per-connection buffers into the live set, and card scanning degrades
  /// with live-set size, so pauses grow faster than linearly.
  double thread_exponent = 1.25;
  /// Every Nth collection promotes enough to trigger a full (major) GC.
  std::uint64_t full_gc_period = 32;
  /// Full collections take this multiple of a minor pause.
  double full_gc_multiplier = 5.0;
  /// Per-thread bookkeeping (context switching, lock contention) inflates
  /// every CPU demand by (1 + overhead_per_thread * threads).
  double overhead_per_thread = 2.0e-4;
};

/// Process-level JVM model attached to one node's CPU.
///
/// Components report allocation as they process requests; once the young
/// generation fills, the collector freezes the CPU for a pause whose length
/// grows superlinearly with the number of live threads. Idle threads still
/// contribute: a thread consumes memory and GC work whether it is being used
/// or not, which is exactly the soft-vs-hardware asymmetry of Section III-B.
class Jvm {
 public:
  Jvm(sim::Simulator& sim, hw::Cpu& cpu, JvmConfig config, std::string name);
  Jvm(const Jvm&) = delete;
  Jvm& operator=(const Jvm&) = delete;

  /// Record `mb` of allocation; may trigger a collection. The common
  /// no-collection path is an add and a compare, inlined into each tier's
  /// request entry; the collection itself stays out of line.
  void allocate(double mb) {
    SOFTRES_PROF_COUNT(kJvmService);
    allocated_since_gc_mb_ += mb;
    if (allocated_since_gc_mb_ >= config_.young_gen_mb && !cpu_.frozen()) {
      collect();
    }
  }

  /// Total threads alive in this process (pool capacities, not occupancy).
  void set_live_threads(std::size_t n) { live_threads_ = n; }
  std::size_t live_threads() const { return live_threads_; }

  /// Demand multiplier for CPU work executed by this process.
  double runtime_overhead_factor() const {
    return 1.0 + config_.overhead_per_thread *
                     static_cast<double>(live_threads_);
  }

  /// Pause a collection would take right now (exposed for tests/benches).
  double pause_duration(bool full) const;

  double total_gc_seconds() const { return total_gc_seconds_; }
  std::uint64_t collections() const { return collections_; }
  const std::string& name() const { return name_; }
  const JvmConfig& config() const { return config_; }

 private:
  void collect();

  sim::Simulator& sim_;
  hw::Cpu& cpu_;
  JvmConfig config_;
  std::string name_;
  std::size_t live_threads_ = 0;
  double allocated_since_gc_mb_ = 0.0;
  double total_gc_seconds_ = 0.0;
  std::uint64_t collections_ = 0;
};

}  // namespace softres::jvm

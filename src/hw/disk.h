#pragma once

#include <cstdint>
#include <string>

#include "sim/distributions.h"
#include "sim/inline_callback.h"
#include "sim/ring_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace softres::hw {

/// Single-spindle FCFS disk. Each operation's service time is drawn from a
/// configurable distribution (default: lognormal around a few milliseconds,
/// the 10k-rpm drives of the paper's PC3000 nodes).
class Disk {
 public:
  using Callback = sim::InlineCallback;

  Disk(sim::Simulator& sim, std::string name, sim::DistributionPtr service,
       sim::Rng rng);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueue one I/O; `done` fires when it completes.
  void submit(Callback done);

  const std::string& name() const { return name_; }
  std::size_t queue_length() const { return queue_.size() + (busy_ ? 1 : 0); }
  double busy_seconds() const { return busy_seconds_; }
  std::uint64_t ops_completed() const { return ops_; }

 private:
  void start_next();

  sim::Simulator& sim_;
  std::string name_;
  sim::DistributionPtr service_;
  sim::Rng rng_;
  sim::RingQueue<Callback> queue_;
  bool busy_ = false;
  double busy_seconds_ = 0.0;
  std::uint64_t ops_ = 0;
};

}  // namespace softres::hw

#pragma once

#include <cstdint>
#include <string>

#include "sim/inline_callback.h"
#include "sim/ring_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace softres::hw {

/// Single-spindle FCFS disk. Each operation's service time is lognormal
/// with median `median_s` and log-space spread `sigma` (hw::Node passes the
/// 10k-rpm drives of the paper's PC3000 nodes; sigma 0 gives a fixed
/// service time).
class Disk {
 public:
  using Callback = sim::InlineCallback;

  Disk(sim::Simulator& sim, std::string name, double median_s, double sigma,
       sim::Rng rng);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueue one I/O; `done` fires when it completes.
  void submit(Callback done);

  const std::string& name() const { return name_; }
  std::size_t queue_length() const {
    return queue_.size() + (in_service_ ? 1 : 0);
  }
  double busy_seconds() const { return busy_seconds_; }
  std::uint64_t ops_completed() const { return ops_; }

 private:
  void start_next();
  void complete();

  sim::Simulator& sim_;
  std::string name_;
  double median_s_;
  double sigma_;
  sim::Rng rng_;
  sim::RingQueue<Callback> queue_;
  // The operation on the spindle (empty while idle). Held here, not in the
  // completion event, so that event captures only `this` and stays inline.
  Callback in_service_;
  double busy_seconds_ = 0.0;
  std::uint64_t ops_ = 0;
};

}  // namespace softres::hw

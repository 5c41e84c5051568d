#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/inline_callback.h"
#include "sim/simulator.h"
#include "support/prof.h"

namespace softres::hw {

/// Point-to-point network link: propagation latency plus an FCFS serialised
/// transmission stage (bytes / bandwidth). With the testbed's 1 Gbps links
/// the transmission stage rarely matters, but modelling it keeps the network
/// honest under response-heavy workloads.
class Link {
 public:
  using Callback = sim::InlineCallback;

  Link(sim::Simulator& sim, std::string name, double latency_s,
       double bytes_per_second);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Deliver `bytes` across the link; `delivered` fires at the receiver.
  void send(double bytes, Callback delivered);

  const std::string& name() const { return name_; }
  double latency() const { return latency_; }
  double bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_sent() const { return messages_; }
  /// Cumulative seconds the transmitter was busy (for utilization probes).
  double busy_seconds() const { return busy_seconds_; }

 private:
  sim::Simulator& sim_;
  std::string name_;
  double latency_;
  double bytes_per_second_;
  sim::SimTime tx_free_at_ = 0.0;  // when the transmitter becomes idle
  double bytes_sent_ = 0.0;
  double busy_seconds_ = 0.0;
  std::uint64_t messages_ = 0;
};

// Every tier hop is a send — it runs a couple of million times per trial,
// and the body is a handful of arithmetic ops in front of schedule_at, so
// keeping it in the header lets callers fold the whole hop into one
// inlined schedule.
inline void Link::send(double bytes, Callback delivered) {
  SOFTRES_PROF_COUNT(kLinkService);
  assert(delivered);
  const sim::SimTime now = sim_.now();
  const double tx_time = std::max(0.0, bytes) / bytes_per_second_;
  const sim::SimTime tx_start = std::max(now, tx_free_at_);
  tx_free_at_ = tx_start + tx_time;
  busy_seconds_ += tx_time;
  bytes_sent_ += bytes;
  ++messages_;
  sim_.schedule_at(tx_free_at_ + latency_, std::move(delivered));
}

}  // namespace softres::hw

#pragma once

#include <cstdint>
#include <string>

#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "support/prof.h"

namespace softres::soft {
class ResizablePoolSet;
}  // namespace softres::soft

namespace softres::tier {

/// Common per-server accounting: every tier records, for a measurement
/// window, its throughput, per-request residence time (the "server RTT" of
/// Table I) and the time-weighted number of jobs inside the server — the
/// three quantities the allocation algorithm combines through Little's law.
class Server {
 public:
  Server(sim::Simulator& sim, std::string name);
  virtual ~Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const { return name_; }

  /// Restart window accounting (called at measurement-window start).
  virtual void reset_window_stats();

  /// Register this server's live-resizable soft resources (pools plus any
  /// consistency hooks, e.g. JVM live-thread sync) with the testbed-wide
  /// set. The uniform hook every tier exposes so the controller
  /// (core::Governor) never reaches into tier-specific accessors. Default:
  /// the server owns no resizable pools.
  virtual void register_soft_resources(soft::ResizablePoolSet&) {}

  /// Which profiler subsystem this server's request counts land in; tiers
  /// tag themselves in their constructors (kCount = untagged, not counted).
  void set_profile_subsystem(prof::Subsystem sub) { prof_subsystem_ = sub; }

  std::uint64_t window_completed() const { return completed_; }
  /// Completions per second over the window so far.
  double window_throughput() const;
  /// Mean residence time of requests completed in the window.
  double window_mean_rt() const { return rt_stats_.mean(); }
  /// Time-average number of jobs inside the server over the window.
  double window_avg_jobs() const;

 protected:
  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }

  /// Bracket a request's residence in this server. Every request crosses
  /// each tier once, so these run millions of times per trial; the bodies
  /// are a counter bump plus an inlined TimeWeighted/Welford update, kept
  /// here so the tier state machines fold them in.
  void job_entered() {
    prof::count(prof_subsystem_);  // per-tier request count (no-op untagged)
    ++jobs_inside_;
    jobs_tw_.set(sim_.now(), static_cast<double>(jobs_inside_));
  }
  void job_left(sim::SimTime entered_at) {
    --jobs_inside_;
    jobs_tw_.set(sim_.now(), static_cast<double>(jobs_inside_));
    ++completed_;
    rt_stats_.add(sim_.now() - entered_at);
  }

 private:
  sim::Simulator& sim_;
  std::string name_;
  sim::SimTime window_start_ = 0.0;
  prof::Subsystem prof_subsystem_ = prof::Subsystem::kCount;
  std::uint64_t completed_ = 0;
  std::size_t jobs_inside_ = 0;
  sim::Welford rt_stats_;
  sim::TimeWeighted jobs_tw_;
};

}  // namespace softres::tier

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/ring_queue.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "support/prof.h"

namespace softres::soft {

class TenantArbiter;

/// A *soft resource* in the paper's sense: a counted pool of software units
/// (worker threads, DB connections) that gate access to hardware. Acquires
/// beyond capacity queue FIFO; this queueing is exactly how under-allocation
/// bottlenecks form (Section III-A), and the capacity itself is what the
/// allocation algorithm of Section IV tunes.
///
/// Multi-tenant mode: attaching a TenantArbiter (see partition.h) makes the
/// pool tenant-aware — acquire/release carry a tenant id, per-tenant
/// occupancy is tracked, and the arbiter decides admission and waiter
/// selection. With no arbiter attached every path below is byte-for-byte the
/// single-tenant behaviour (the tenant argument defaults to 0 and is only
/// recorded on waiters), keeping legacy trials bit-identical.
class Pool {
 public:
  using Callback = sim::InlineCallback;

  /// One live-resize event: at time `at` the capacity moved `from` -> `to`.
  /// The log is what lets timelines and reports distinguish "load grew"
  /// from "capacity shrank" after the fact.
  struct CapacityEpoch {
    sim::SimTime at;
    std::size_t from;
    std::size_t to;
  };

  Pool(sim::Simulator& sim, std::string name, std::size_t capacity);
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Request one unit on behalf of `tenant`. `granted` fires immediately
  /// (synchronously) if a unit is free — and, with an arbiter attached, the
  /// tenant is admissible — otherwise when a released unit is handed to this
  /// waiter (FIFO; arbiter-ordered across tenants).
  void acquire(Callback granted, std::uint32_t tenant = 0);

  /// Non-blocking variant; true on success.
  bool try_acquire(std::uint32_t tenant = 0);

  /// Return one unit held by `tenant`; hands it straight to the oldest
  /// (arbiter-selected) waiter if any.
  void release(std::uint32_t tenant = 0);

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return in_use_; }
  std::size_t waiting() const { return waiters_.size(); }
  /// Occupancy fraction, clamped to [0,1]. While draining, `in_use_` can
  /// exceed `capacity_`; reporting >100% would make a shrinking pool look
  /// like a measurement bug, so the over-commit is surfaced via `draining()`
  /// and `drain_pending()` instead.
  double utilization() const {
    if (!capacity_) return 1.0;
    return std::min(
        1.0, static_cast<double>(in_use_) / static_cast<double>(capacity_));
  }
  /// A pool is saturated when every unit is taken and someone is queued.
  /// `>=`, not `==`: a draining pool (in_use_ > capacity_) with a queue is
  /// just as starved as an exactly-full one.
  bool saturated() const { return in_use_ >= capacity_ && !waiters_.empty(); }
  /// True while a shrink is still paying out: more units are checked out
  /// than the new capacity allows. Drains lazily, one unit per release.
  bool draining() const { return in_use_ > capacity_; }
  /// Units that must be released (and retired, not recycled) before the pool
  /// reaches its post-shrink capacity. Zero when not draining.
  std::size_t drain_pending() const {
    return in_use_ > capacity_ ? in_use_ - capacity_ : 0;
  }
  /// Units retired by lazy shrink since construction (never reset).
  std::uint64_t drained_total() const { return drained_total_; }
  /// Full live-resize history, in event order.
  const std::vector<CapacityEpoch>& capacity_epochs() const {
    return epochs_;
  }

  std::uint64_t total_acquired() const { return total_acquired_; }
  /// Mean time acquirers spent queued (0 when nothing ever waited).
  double mean_wait_time() const { return wait_stats_.mean(); }
  const sim::Welford& wait_stats() const { return wait_stats_; }
  /// Time-weighted occupancy statistics since construction / last reset.
  double average_in_use(sim::SimTime until) const {
    return occupancy_.average(until);
  }
  /// Running occupancy integral (unit-seconds) up to `until`. Differencing
  /// two snapshots yields the exact time-weighted occupancy of the window —
  /// the governor's demand signal, immune to sampling-instant aliasing when
  /// holds are much shorter than the control period. Drops on reset_stats.
  double occupancy_integral(sim::SimTime until) const {
    return occupancy_.integral(until);
  }
  void reset_stats(sim::SimTime t);

  /// Resize the pool (the allocation algorithm's "S = 2S" step). Growing
  /// admits waiters immediately; shrinking takes effect lazily as units are
  /// released.
  void set_capacity(std::size_t capacity);

  /// Attach a partition arbiter (non-owning; the Testbed owns it). Must be
  /// called before any unit is handed out — per-tenant ledgers start empty.
  void set_arbiter(TenantArbiter* arbiter);

  // Per-tenant views; valid only with an arbiter attached (the vectors are
  // sized to the arbiter's tenant count).
  std::size_t tenant_in_use(std::uint32_t t) const { return tenant_in_use_[t]; }
  /// Per-tenant running occupancy integral (unit-seconds); Karma's usage
  /// meter.
  double tenant_occupancy_integral(std::uint32_t t, sim::SimTime until) const {
    return tenant_occupancy_[t].integral(until);
  }
  // Waiter-queue view for the arbiter's select().
  std::size_t waiter_count() const { return waiters_.size(); }
  std::uint32_t waiter_tenant(std::size_t i) const {
    return waiters_[i].tenant;
  }

 private:
  struct Waiter {
    Callback granted;
    sim::SimTime enqueued_at;
    std::uint32_t tenant = 0;
  };

  void grant(Callback granted, sim::SimTime waited_since);
  // Arbiter-mediated slow paths (pool.cc): same accounting as the legacy
  // inline paths plus the per-tenant ledgers and the admission/selection
  // hooks. Kept out of line — multi-tenant trials opt into the cost.
  void acquire_shared(Callback granted, std::uint32_t tenant);
  void release_shared(std::uint32_t tenant);
  void grant_shared(Callback granted, sim::SimTime waited_since,
                    std::uint32_t tenant);
  void dispatch_shared();

  sim::Simulator& sim_;
  std::string name_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  sim::RingQueue<Waiter> waiters_;
  std::uint64_t total_acquired_ = 0;
  std::uint64_t drained_total_ = 0;
  sim::Welford wait_stats_;
  sim::TimeWeighted occupancy_;
  std::vector<CapacityEpoch> epochs_;
  TenantArbiter* arbiter_ = nullptr;
  std::vector<std::size_t> tenant_in_use_;
  std::vector<sim::TimeWeighted> tenant_occupancy_;
};

// acquire/release bracket every request's residence in every tier (two pools
// in Tomcat alone), so the uncontended paths — counter bump, stats update,
// synchronous grant — stay in the header and inline into the tier state
// machines. The contended path queues on a grow-only ring, which allocates
// only while a queue outgrows its high-water mark.

inline void Pool::grant(Callback granted, sim::SimTime waited_since) {
  ++in_use_;
  ++total_acquired_;
  wait_stats_.add(sim_.now() - waited_since);
  occupancy_.set(sim_.now(), static_cast<double>(in_use_));
  granted();
}

inline void Pool::acquire(Callback granted, std::uint32_t tenant) {
  // The synchronous grant path runs the continuation under this scope;
  // scoped subsystems it reaches (cpu, dist, queue pushes) nest and subtract,
  // so pool_service keeps only the grant-cascade glue. See DESIGN.md §11.
  SOFTRES_PROF_SCOPE(kPoolService);
  assert(granted);
  if (arbiter_ != nullptr) {
    acquire_shared(std::move(granted), tenant);
    return;
  }
  if (in_use_ < capacity_) {
    grant(std::move(granted), sim_.now());
  } else {
    waiters_.push_back(Waiter{std::move(granted), sim_.now(), tenant});
  }
}

inline void Pool::release(std::uint32_t tenant) {
  SOFTRES_PROF_SCOPE(kPoolService);
  assert(in_use_ > 0);
  if (arbiter_ != nullptr) {
    release_shared(tenant);
    return;
  }
  // A release while draining retires the unit instead of recycling it: this
  // is the lazy shrink paying out one unit at a time.
  if (in_use_ > capacity_) ++drained_total_;
  --in_use_;
  occupancy_.set(sim_.now(), static_cast<double>(in_use_));
  if (!waiters_.empty() && in_use_ < capacity_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    grant(std::move(w.granted), w.enqueued_at);
  }
}

}  // namespace softres::soft

#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_callback.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "support/prof.h"

namespace softres::hw {

/// Multi-core CPU under egalitarian processor sharing.
///
/// With n active jobs on c cores each job progresses at rate min(1, c/n);
/// this is the standard model for a timeslicing OS scheduler at 1 s
/// observation granularity and is what makes CPU saturation emerge naturally
/// when tiers push more concurrent work than the node can absorb.
///
/// The CPU also supports *freezing* (`freeze(d)`): application jobs stop
/// progressing for `d` seconds while the CPU is accounted fully busy. The JVM
/// model uses this to realise synchronous stop-the-world garbage collection,
/// which is the mechanism behind the paper's over-allocation collapse
/// (Section III-B).
class Cpu {
 public:
  using Callback = sim::InlineCallback;

  Cpu(sim::Simulator& sim, std::string name, unsigned cores,
      double context_switch_coeff = 0.0);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Run a job needing `demand` core-seconds; `done` fires at completion.
  /// The effective demand grows with the current run-queue length
  /// (demand * (1 + cs_coeff * sqrt(n))): context switching, cache pollution
  /// and scheduler overhead make a crowded CPU less efficient per job, which
  /// is one of the two penalties of soft-resource over-allocation
  /// (Section III-B; the other is GC).
  void submit(double demand, Callback done);

  /// Stop-the-world for `duration` seconds (extends any current freeze).
  void freeze(double duration);

  const std::string& name() const { return name_; }
  unsigned cores() const { return cores_; }
  std::size_t jobs_in_service() const { return jobs_.size(); }
  bool frozen() const {
    return sim_.now() < freeze_until_ - sim::kTimeEpsilon;
  }

  /// Cumulative busy core-seconds (application work + freeze time). A 1 Hz
  /// monitor differentiates this to produce SysStat-style utilization.
  double busy_core_seconds() const;
  /// Cumulative core-seconds consumed by freezes (the "GC CPU" share).
  double freeze_core_seconds() const;
  /// Cumulative application work completed, in core-seconds.
  double work_done() const;
  std::uint64_t jobs_completed() const { return completed_; }

  /// Instantaneous utilization in [0,1]: min(n,c)/c, or 1 while frozen.
  double instantaneous_utilization() const;

 private:
  // The run queue is a sim::EventQueue reused as a min-heap over
  // (finish_attained, seq): Entry::time holds the attained-service level at
  // which the job ends, and Entry::key packs (seq << kSlotBits) | slot so
  // FIFO tie-break rides in the key's high bits. Completion callbacks live
  // in a slot slab off to the side — under processor sharing every arrival
  // re-sifts the heap, and a 16-byte entry moves ~4x cheaper than a Job
  // struct carrying its 40-byte callback inline.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  void advance_to_now();
  double current_rate() const;  // per-job progress rate
  void reschedule_completion();
  void complete_ready_jobs();
  void on_completion_timer();
  void on_unfreeze();

  sim::Simulator& sim_;
  std::string name_;
  unsigned cores_;
  double inv_cores_;  // 1/cores, folds the per-event divide into a multiply
  double cs_coeff_;

  double attained_ = 0.0;  // cumulative per-job attained service
  sim::SimTime last_update_ = 0.0;
  double busy_core_seconds_ = 0.0;
  double freeze_core_seconds_ = 0.0;
  double work_done_ = 0.0;
  sim::SimTime freeze_until_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t completed_ = 0;

  sim::EventQueue jobs_;
  std::vector<Callback> job_slots_;
  std::vector<std::uint32_t> job_free_;
  sim::EventHandle completion_event_;
  // Wall time the pending completion event fires at; +inf when none is
  // pending. The timer is self-correcting (see reschedule_completion), so
  // this is a lower bound on the true completion time, never an upper one.
  sim::SimTime completion_due_ = std::numeric_limits<double>::infinity();
  sim::EventHandle unfreeze_event_;
};

// submit() and the helpers it brackets run once or twice per simulated CPU
// job — a couple of million times per trial, always from another
// translation unit (the tier state machines) — so their bodies live here
// for cross-TU inlining. The cold control paths (freeze, completion sweep,
// accessors) stay in cpu.cc.

inline void Cpu::advance_to_now() {
  const sim::SimTime now = sim_.now();
  const double dt = now - last_update_;
  if (dt <= 0.0) return;
  // Freeze transitions only happen at events that call advance_to_now first,
  // so the frozen/running state is constant over (last_update_, now).
  const bool was_frozen = last_update_ < freeze_until_ - sim::kTimeEpsilon;
  if (was_frozen) {
    busy_core_seconds_ += static_cast<double>(cores_) * dt;
    freeze_core_seconds_ += static_cast<double>(cores_) * dt;
  } else if (!jobs_.empty()) {
    const double n = static_cast<double>(jobs_.size());
    const double served_cores = std::min(n, static_cast<double>(cores_));
    busy_core_seconds_ += served_cores * dt;
    work_done_ += served_cores * dt;
    attained_ += std::min(1.0, static_cast<double>(cores_) / n) * dt;
  }
  last_update_ = now;
}

inline void Cpu::reschedule_completion() {
  if (jobs_.empty() || frozen()) return;
  // due = now + remaining / min(1, c/n), with the divisions folded away:
  // undersubscribed (n <= c) the next job completes in `remaining` wall
  // seconds, oversubscribed it is slowed by n/c — one multiply against the
  // precomputed 1/c instead of two divides. This runs twice per CPU job
  // (every submit and every completion sweep re-aims the timer), which made
  // the divides one of the larger single costs in the event loop.
  const double remaining = std::max(0.0, jobs_.top().time - attained_);
  const double n = static_cast<double>(jobs_.size());
  const double slowdown =
      n > static_cast<double>(cores_) ? n * inv_cores_ : 1.0;
  const sim::SimTime due = sim_.now() + remaining * slowdown;
  if (due == completion_due_) return;
  // Under processor sharing every arrival and departure moves the next
  // completion instant, which used to mean a cancel + schedule pair (and a
  // dead heap entry) per submit — the majority of all event-queue traffic.
  // reschedule() re-keys the one pending timer in place instead: the stored
  // callback and handle survive, and the heap sift is a level or two since
  // the due time only drifts.
  if (sim_.reschedule_at(completion_event_, due)) {
    completion_due_ = due;
    return;
  }
  completion_event_ = sim_.schedule_at(due, [this] { on_completion_timer(); });
  completion_due_ = due;
}

inline void Cpu::submit(double demand, Callback done) {
  SOFTRES_PROF_COUNT(kCpuService);
  assert(done);
  if (demand <= 0.0) {
    sim_.schedule(0.0, std::move(done));
    return;
  }
  advance_to_now();
  if (cs_coeff_ > 0.0) {
    const double n = static_cast<double>(jobs_.size() + 1);
    demand *= 1.0 + cs_coeff_ * std::sqrt(n);
  }
  std::uint32_t slot;
  if (!job_free_.empty()) {
    slot = job_free_.back();
    job_free_.pop_back();
    job_slots_[slot] = std::move(done);
  } else {
    slot = static_cast<std::uint32_t>(job_slots_.size());
    assert(slot < (1u << kSlotBits));
    job_slots_.push_back(std::move(done));
  }
  jobs_.push({attained_ + demand, (next_seq_++ << kSlotBits) | slot});
  reschedule_completion();
}

}  // namespace softres::hw

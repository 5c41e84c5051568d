#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/pending_set.h"
#include "sim/sim_time.h"

namespace softres::sim {

/// Handle to a scheduled event; allows O(1) cancellation. Default-constructed
/// handles are inert. The handle pins the *generation* the record had when
/// the event was scheduled: records are recycled through a freelist, and a
/// recycled record bumps its generation, so a handle kept across the recycle
/// boundary can never cancel the stranger now living in the same slot (the
/// classic ABA hazard of freelist-backed handles).
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return record_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(void* record, std::uint64_t gen) : record_(record), gen_(gen) {}
  void* record_ = nullptr;
  std::uint64_t gen_ = 0;
};

/// Discrete-event simulation engine: a clock plus a pending-event set.
///
/// All model components (CPUs, pools, servers, clients) are callback state
/// machines driven by this single engine; the engine itself is strictly
/// single-threaded and deterministic, which is what makes whole-testbed
/// experiments exactly reproducible. Events scheduled for the same instant
/// fire in FIFO order of scheduling.
///
/// Hot-path layout (DESIGN.md §9): callbacks are sim::InlineCallback, so
/// small captures ride inside the event record with no allocation; the
/// pending set (sim::PendingSet) is a timing wheel for the sub-second
/// traffic plus a four-ary heap for far timers, over 16-byte (time, seq |
/// record) entries whose keys live inline, so queue maintenance never
/// dereferences a record; records live in a deque-backed freelist, so a
/// steady-state trial stops asking the allocator for anything.
/// Cancellation and rescheduling are *eager*: each record owns exactly one
/// pending entry, reschedule() re-keys it in place and cancel() erases it
/// outright (both found through the set's index maps), so every popped
/// entry dispatches — there are no stale entries to drain. This matters
/// because the CPU model re-aims its completion timer on every arrival:
/// under the older lazy scheme those re-aims left a superseded entry behind
/// each time, and the stale drains grew to ~a third of all heap pops.
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay < 0 clamps to 0).
  EventHandle schedule(SimTime delay, Callback fn) {
    return schedule_at(now_ + (delay > 0.0 ? delay : 0.0), std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (t < now clamps to now).
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Cancel a pending event. Safe to call with stale or inert handles; returns
  /// true iff the event was pending and is now cancelled.
  bool cancel(EventHandle h);

  /// Move a pending event to fire `delay` seconds from now, keeping its
  /// callback and handle (the handle stays valid under the same generation).
  /// The event is re-keyed in place in the pending set — no cancel +
  /// schedule round trip, no callback move. It fires in FIFO order as if freshly scheduled
  /// at its new instant. Safe with stale or inert handles; returns true iff
  /// the event was pending and has been moved.
  bool reschedule(EventHandle h, SimTime delay);

  /// Like reschedule, with an absolute target time (t < now clamps to now).
  bool reschedule_at(EventHandle h, SimTime t);

  /// Execute events until the queue is empty or `limit` events have run.
  void run(std::uint64_t limit = ~0ull);

  /// Execute events with time <= t, then set the clock to exactly t.
  void run_until(SimTime t);

  /// Pop and run the single earliest event; false if none pending.
  bool step();

  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return queue_.size(); }

 private:
  struct Record {
    std::uint64_t gen = 1;      // bumped on every recycle; a handle pins one
    std::uint64_t live_seq = 0; // seq of the pending queue entry; 0 = none
    std::uint32_t idx = 0;      // slot in slots_, fixed for the record's life
    Callback fn;
  };

  // Queue entries pack (seq << kIdxBits) | record-index into one 64-bit key
  // following EventQueue's layout contract (the pending set's index maps
  // read the low bits). Seq in the high bits makes key order equal schedule
  // order, preserving the FIFO same-instant guarantee through a plain
  // integer compare.
  static constexpr unsigned kIdxBits = PendingSet::kIndexBits;
  static constexpr std::uint64_t kIdxMask = PendingSet::kIndexMask;

  Record* allocate();
  void release(Record* r);
  void dispatch(const PendingSet::Entry& e);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  PendingSet queue_;
  std::vector<Record*> freelist_;
  std::vector<Record*> slots_;  // idx -> record, L1-hot on the pop path
  std::deque<Record> records_;  // stable storage; grows, never shrinks
};

// The schedule/dispatch round trip runs a few hundred thousand times per
// trial; keeping these bodies in the header lets the event loop (run_until,
// step) and every tier's schedule call inline them.

inline Simulator::Record* Simulator::allocate() {
  if (!freelist_.empty()) {
    Record* r = freelist_.back();
    freelist_.pop_back();
    return r;
  }
  assert(records_.size() < (std::size_t{1} << kIdxBits));
  records_.emplace_back();
  Record* r = &records_.back();
  r->idx = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(r);
  return r;
}

inline void Simulator::release(Record* r) {
  // The generation bump is what retires every outstanding handle to this
  // record: a handle carries the generation it was issued under, and
  // cancel()/reschedule() refuse any mismatch. A record is released exactly
  // when its one queue entry leaves the queue (dispatch or eager cancel),
  // so a live generation match always refers to this scheduling, never a
  // recycled stranger.
  ++r->gen;
  r->fn.reset();
  freelist_.push_back(r);
}

inline EventHandle Simulator::schedule_at(SimTime t, Callback fn) {
  assert(fn);
  Record* r = allocate();
  r->fn = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  assert(seq < (std::uint64_t{1} << (64 - kIdxBits)));
  r->live_seq = seq;
  queue_.push({t < now_ ? now_ : t, (seq << kIdxBits) | r->idx});
  return EventHandle(r, r->gen);
}

inline void Simulator::dispatch(const PendingSet::Entry& e) {
  SOFTRES_PROF_COUNT(kDispatch);
  Record* r = slots_[e.key & kIdxMask];
  // Eager cancel/reschedule means every popped entry is the live claim.
  assert(r->live_seq == (e.key >> kIdxBits));
  r->live_seq = 0;
  now_ = e.time;
  ++executed_;
  // Invoke in place: the record is released only after the call returns, so
  // a re-entrant schedule can't recycle it mid-invocation, and skipping the
  // move-out saves a 40-byte callback relocation per event. The capture is
  // destroyed at the same point as before (after the body runs), just by
  // release() instead of a local's destructor. A re-entrant cancel or
  // reschedule of this same handle sees live_seq == 0 and refuses, exactly
  // as it refused a fired event before.
  r->fn();
  release(r);
}

}  // namespace softres::sim

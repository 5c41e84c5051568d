#include "sim/simulator.h"

#include <cassert>

namespace softres::sim {

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  auto* r = static_cast<Record*>(h.record_);
  // Generation mismatch = the record was recycled since this handle was
  // issued (possibly several times); the handle is stale regardless of what
  // currently occupies the slot. live_seq == 0 = this scheduling already
  // fired or was cancelled. Cancellation is eager: the pending entry is
  // erased through the set's index maps and the record recycles immediately
  // (the generation bump retires every outstanding handle to it).
  if (r->gen != h.gen_ || r->live_seq == 0) return false;
  queue_.erase(r->idx);
  r->live_seq = 0;
  release(r);
  return true;
}

bool Simulator::reschedule(EventHandle h, SimTime delay) {
  return reschedule_at(h, now_ + (delay > 0.0 ? delay : 0.0));
}

bool Simulator::reschedule_at(EventHandle h, SimTime t) {
  if (!h.valid()) return false;
  auto* r = static_cast<Record*>(h.record_);
  if (r->gen != h.gen_ || r->live_seq == 0) return false;
  // Re-key the record's one pending entry in place — no callback move, no
  // record churn, no superseded entry left behind. Fresh seq: the moved
  // event fires in FIFO order as if scheduled now.
  const std::uint64_t seq = next_seq_++;
  assert(seq < (std::uint64_t{1} << (64 - kIdxBits)));
  r->live_seq = seq;
  queue_.update(r->idx, {t < now_ ? now_ : t, (seq << kIdxBits) | r->idx});
  return true;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch(queue_.pop());
  return true;
}

void Simulator::run(std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (!step()) return;
  }
}

void Simulator::run_until(SimTime t) {
  // top() is the earliest pending entry, so stopping at the first one with
  // time > t is exact.
  while (!queue_.empty() && queue_.top().time <= t) {
    dispatch(queue_.pop());
  }
  if (t > now_) now_ = t;
}

}  // namespace softres::sim

#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/sim_time.h"
#include "support/prof.h"

namespace softres::sim {

/// The simulator's pending-event set: a timing wheel for events due within a
/// short horizon, backed by a four-ary EventQueue for everything beyond it.
/// Entries and their order are EventQueue's — (time, key), the key packing
/// (seq << kIndexBits) | record index — and pop() returns exactly the entry
/// a single heap would, so the two-level split is invisible to the event
/// sequence.
///
/// Three places hold an entry:
///  * `near_`, a small EventQueue: every entry whose bucket is at or before
///    the cursor `cur_` (an absolute bucket number, time * kBucketsPerSecond
///    rounded down). The cursor's bucket is drained into it once, when the
///    wheel turns to it, so a dense bucket (a burst of users waking at one
///    instant) costs a heap's log k per pop instead of a scan per pop.
///  * the wheel's slots: entries whose bucket lies in (cur_, cur_ + kSlots),
///    one unordered doubly-linked list per slot, threaded through a node
///    pool sized by the wheel's occupancy (not by the record count). A
///    bitmap of non-empty slots makes finding the next bucket a word scan.
///  * `far_`, an EventQueue: everything else — think timers, ramp staggers
///    and sampler ticks a second or more out. It never migrates; the
///    earliest far entry simply competes with the near heap's top.
///
/// One dense map indexed by record index, `where_`, finds every entry for
/// update() and erase(): both heaps keep their positions in it, and a slot
/// entry's word holds its node id under kSlotTag. A record therefore costs
/// one map word, as it did with a single heap.
///
/// Buckets are ordered like times (a bucket is floor(time * 2^12), exact in
/// binary floating point), so any entry in `near_` precedes every slot
/// entry, and the earliest entry overall is the smaller of `near_`'s top
/// and `far_`'s top — provided that whenever `near_` is empty, either the
/// slots are empty too or `far_`'s top lies before the first non-empty
/// slot's bucket. Every mutation restores that invariant, which keeps top()
/// const and lets each operation count itself once in the profiler's
/// ledger. The set is correct for any push order; pushes that never
/// precede the last pop, as the simulator's do, keep the cursor at or just
/// ahead of the clock, so the near heap stays a handful of entries deep.
class PendingSet {
 public:
  using Entry = EventQueue::Entry;
  static constexpr unsigned kIndexBits = EventQueue::kIndexBits;
  static constexpr std::uint64_t kIndexMask = EventQueue::kIndexMask;

  // Sized for the occupancy loaded Fig 4/5/7-8 trials reach (at most 164
  // slot entries and 17 near entries), so a trial's steady state does not
  // grow them; the far heap and the index map grow with the records, as
  // the single heap did.
  PendingSet() {
    nodes_.reserve(256);
    near_.reserve(64);
  }

  bool empty() const { return near_.empty() && far_.empty(); }
  std::size_t size() const { return near_.size() + wheeled_ + far_.size(); }

  /// Earliest pending entry by (time, key). Precondition: !empty().
  const Entry& top() const { return far_first() ? far_.top() : near_.top(); }

  void push(const Entry& e) {
    SOFTRES_PROF_COUNT(kEventQueuePush);
    const std::uint32_t idx = static_cast<std::uint32_t>(e.key & kIndexMask);
    if (idx >= where_.size()) where_.resize(idx + 1, 0);
    place(e);
  }

  Entry pop() {
    SOFTRES_PROF_COUNT(kEventQueuePop);
    const Entry e = far_first() ? far_.pop() : near_.pop();
    if (near_.empty()) refill(e.time * kBucketsPerSecond);
    return e;
  }

  /// Re-key the entry whose index is `idx` to `e` (same index, new time and
  /// seq). Precondition: exactly one entry with that index is pending.
  void update(std::uint32_t idx, const Entry& e) {
    SOFTRES_PROF_COUNT(kEventQueueCancel);
    assert((e.key & kIndexMask) == idx && idx < where_.size());
    const Where at = locate(idx);
    const double bucket = e.time * kBucketsPerSecond;
    if (at == Where::kNear && bucket < static_cast<double>(cur_ + 1)) {
      near_.update(idx, e);
      return;
    }
    if (at == Where::kFar && !(bucket < static_cast<double>(cur_ + kSlots))) {
      far_.update(idx, e);
      if (near_.empty()) refill(0.0);  // far_'s top may have moved later
      return;
    }
    remove(at, idx);
    if (at != Where::kSlot && near_.empty()) refill(0.0);
    place(e);
  }

  /// Remove the entry whose index is `idx`. Same precondition as update().
  void erase(std::uint32_t idx) {
    SOFTRES_PROF_COUNT(kEventQueueCancel);
    assert(idx < where_.size());
    const Where at = locate(idx);
    remove(at, idx);
    // Unlinking a slot entry keeps the invariant; the heaps' tops can move.
    if (at != Where::kSlot && near_.empty()) refill(0.0);
  }

 private:
  // 2^-12 s (244 us) buckets and 1024 slots: a 0.25 s horizon. Measured on
  // serial Fig 4 and Fig 5 trials (seed 42), 85 % of pushes are due within
  // 1 ms (network hops, CPU completions), 7-13 % within 10 ms and up to
  // 6.5 % within 100 ms (FIN waits), while 2.7 % are think timers, ramp
  // staggers and sampler ticks 1 s or more out. Those few keep 4.8k-6.7k
  // entries pending, of which only 54-118 are due within 1 s: the wheel
  // takes nearly all the traffic at O(1), and a pending event rarely shares
  // its bucket. Widths from 2^-10 to 2^-14 s with 256 to 4096 slots ran
  // serial Fig 4/5/7-8 trials 26-31 % faster than a single heap; 2^-14 s
  // buckets gained ~4 % more on a steady host, but only with 16 KB of
  // heads or a 62.5 ms horizon (DESIGN.md §9 has the table).
  static constexpr double kBucketsPerSecond = 4096.0;
  static constexpr std::uint64_t kSlots = 1024;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr std::size_t kWords = kSlots / 64;
  static_assert(std::has_single_bit(kSlots) && kSlots % 64 == 0);
  // Cursor moves stop here: bucket numbers stay exact doubles and in range
  // of the uint64 conversion.
  static constexpr double kMaxBucket = 9007199254740992.0;  // 2^53

  // A slot entry's where_ word: kSlotTag | node id. Heap positions stay
  // below 2^kIndexBits, and node ids never reach kSlotTag - 1, so neither
  // can be mistaken for the other or for EventQueue::kTopPos.
  static constexpr std::uint32_t kSlotTag = 0x80000000u;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  // end of a node list

  enum class Where { kNear, kSlot, kFar };

  struct Node {
    Entry e;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
  };

  static std::uint64_t slot_of(SimTime t) {
    return static_cast<std::uint64_t>(t * kBucketsPerSecond) & kSlotMask;
  }

  Where locate(std::uint32_t idx) const {
    const std::uint32_t w = where_[idx];
    if ((w & kSlotTag) != 0 && w != EventQueue::kTopPos) return Where::kSlot;
    return near_.contains(idx) ? Where::kNear : Where::kFar;
  }

  bool far_first() const {
    return near_.empty() ||
           (!far_.empty() && EventQueue::before(far_.top(), near_.top()));
  }

  // File `e` by its bucket. Requires the invariant and keeps it: an entry
  // for an empty near_ that far_'s top does not precede goes straight into
  // near_, the cursor moving up to its bucket — the invariant guarantees no
  // slot entry lies at or before that bucket.
  void place(const Entry& e) {
    const double bucket = e.time * kBucketsPerSecond;
    if (bucket < static_cast<double>(cur_ + 1)) {
      near_.push(e);
    } else if (bucket < static_cast<double>(cur_ + kSlots)) {
      const auto b = static_cast<std::uint64_t>(bucket);
      if (near_.empty() && !far_precedes(b)) {
        cur_ = b;
        near_.push(e);
      } else {
        link(b & kSlotMask, e);
      }
    } else {
      far_.push(e);
    }
  }

  // Does far_'s top lie in a bucket before `bucket`?
  bool far_precedes(std::uint64_t bucket) const {
    return !far_.empty() &&
           far_.top().time * kBucketsPerSecond < static_cast<double>(bucket);
  }

  void remove(Where at, std::uint32_t idx) {
    if (at == Where::kNear) {
      near_.erase(idx);
    } else if (at == Where::kFar) {
      far_.erase(idx);
    } else {
      unlink(where_[idx] & ~kSlotTag);
    }
  }

  void link(std::uint64_t slot, const Entry& e) {
    std::uint32_t id = free_;
    if (id != kNil) {
      free_ = nodes_[id].next;
    } else {
      id = static_cast<std::uint32_t>(nodes_.size());
      assert(id < kSlotTag - 1);
      nodes_.emplace_back();
    }
    Node& n = nodes_[id];
    n.e = e;
    n.prev = kNil;
    n.next = head_[slot];
    if (n.next != kNil) {
      nodes_[n.next].prev = id;
    } else {
      occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    head_[slot] = id;
    where_[e.key & kIndexMask] = kSlotTag | id;
    ++wheeled_;
  }

  void unlink(std::uint32_t id) {
    Node& n = nodes_[id];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      const std::uint64_t slot = slot_of(n.e.time);
      head_[slot] = n.next;
      if (n.next == kNil) {
        occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
      }
    }
    if (n.next != kNil) nodes_[n.next].prev = n.prev;
    n.next = free_;
    free_ = id;
    --wheeled_;
  }

  // First non-empty bucket after the cursor. Precondition: wheeled_ > 0.
  // The cursor's own slot is always empty, so one lap of the bitmap (plus
  // the head of the starting word again) finds it.
  std::uint64_t next_bucket() const {
    assert(wheeled_ > 0);
    const std::uint64_t from = (cur_ + 1) & kSlotMask;
    std::size_t w = static_cast<std::size_t>(from / 64);
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    const std::uint64_t slot = w * 64 + static_cast<std::uint64_t>(
                                            std::countr_zero(bits));
    return cur_ + 1 + ((slot - from) & kSlotMask);
  }

  // near_ ran dry: restore the invariant. If the first non-empty bucket can
  // hold the earliest entry, turn the wheel to it; otherwise the earliest
  // entry is far_'s top and the cursor only follows the clock —
  // `now_bucket` is the bucket of the entry just popped (0 from the other
  // operations, which leave the cursor where it is).
  void refill(double now_bucket) {
    if (wheeled_ > 0) {
      const std::uint64_t b = next_bucket();
      if (!far_precedes(b)) {
        turn_to(b);
        return;
      }
    }
    // Safe: no slot entry lies at or before the popped entry's bucket.
    if (now_bucket >= static_cast<double>(cur_ + 1) &&
        now_bucket < kMaxBucket) {
      cur_ = static_cast<std::uint64_t>(now_bucket);
    }
  }

  // Advance the cursor to `bucket` and drain its slot into near_.
  void turn_to(std::uint64_t bucket) {
    cur_ = bucket;
    const std::uint64_t slot = bucket & kSlotMask;
    std::uint32_t id = head_[slot];
    head_[slot] = kNil;
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    while (id != kNil) {
      Node& n = nodes_[id];
      near_.push(n.e);
      const std::uint32_t next = n.next;
      n.next = free_;
      free_ = id;
      --wheeled_;
      id = next;
    }
  }

  static constexpr std::array<std::uint32_t, kSlots> make_heads() {
    std::array<std::uint32_t, kSlots> heads{};
    heads.fill(kNil);
    return heads;
  }

  // Record index -> near_/far_ heap position or kSlotTag | slot node id.
  // Authoritative only while that index has an entry pending.
  std::vector<std::uint32_t> where_;
  EventQueue near_{where_};
  EventQueue far_{where_};
  std::uint64_t cur_ = 0;
  std::size_t wheeled_ = 0;  // entries in slots
  std::array<std::uint32_t, kSlots> head_ = make_heads();
  std::array<std::uint64_t, kWords> occupied_{};
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
};

}  // namespace softres::sim

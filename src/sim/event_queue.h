#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/sim_time.h"

namespace softres::sim {

/// Four-ary implicit min-heap of (time, key) entries ordered by (time, key),
/// with the current minimum cached outside the array. It is the CPU model's
/// run queue and, inside sim::PendingSet, both the far set (events beyond the
/// timing wheel's horizon) and the heap the wheel drains its current bucket
/// into.
///
/// The key's low kIndexBits are an owner-assigned record index, and the
/// queue maintains a dense index -> heap-position map (`pos_`) keyed on
/// them. That map is what makes cancellation and rescheduling *eager*:
/// update() re-keys an entry in place with a single sift, erase() removes
/// one outright, and no stale entry ever reaches pop(). The map is a flat
/// uint32 array off to the side, so maintaining it costs one store per
/// entry move and heap maintenance still never dereferences a record. (The
/// owner must keep at most one entry per index in the queue for pos_ to be
/// authoritative; PendingSet's one-entry-per-record invariant and the
/// CPU's one-entry-per-slot run queue both satisfy this. An owner that
/// never calls update()/erase() may ignore the rule — stale positions are
/// then never read.)
///
/// The map is the queue's own unless the owner passes one in: PendingSet
/// hands its two heaps one shared map, which it also uses for the entries
/// it keeps elsewhere, so a record costs one map word however many queues
/// it passes through. Sharing needs every index in at most one queue at a
/// time; contains() then tells which one holds it, and for an index none
/// of them holds the owner may keep a value of its own in the map.
///
/// Layout notes (DESIGN.md §9):
///  * An entry is 16 bytes: the time plus one `key` word that packs the
///    schedule sequence number (high bits) over the record index (low
///    bits). Sifts touch only the flat entry array plus the pos_ array,
///    and an aligned group of four siblings is exactly one cache line, so
///    each level of a sift reads one line. (At the 5-7k entries a loaded
///    trial keeps pending, the 80-110 KB array is L2-, not L1-resident —
///    the reason PendingSet keeps near-term traffic off this heap.)
///  * Arity 4 halves the tree height of a binary heap, and ~3/4 of the
///    nodes are leaves, so a pushed entry usually settles after a single
///    parent comparison.
///  * The minimum is cached in `top_`, not at heap_[0]: the common
///    schedule-then-fire pattern replaces the cached top without touching
///    the array, and peeking at the next event time reads a member. Its
///    position in pos_ is the sentinel kTopPos.
///  * Pop refills the root bottom-up: the hole walks the min-child path to
///    a leaf (three comparisons per level, none against the displaced last
///    element), then the last element sifts up from there — rarely more
///    than a step, because a recently pushed entry is rarely early.
///
/// Ties on `time` break by `key`; because the sequence number occupies the
/// key's high bits and is unique per push, key order *is* schedule order,
/// which is what gives the simulator its FIFO same-instant guarantee.
///
/// The queue carries no profiler sites: the simulator's scheduling work is
/// counted at PendingSet's operations, and the run queue's by the CPU model.
class EventQueue {
 public:
  /// Low bits of Entry::key that address the owner's record slab; the
  /// owner packs (seq << kIndexBits) | index. 24 bits address 16.7M
  /// concurrently-live records (a trial peaks in the thousands), leaving
  /// 40 seq bits — 10^12 schedules per queue.
  static constexpr unsigned kIndexBits = 24;
  static constexpr std::uint64_t kIndexMask = (1ull << kIndexBits) - 1;

  /// The position map's value for the cached top (not a heap slot).
  static constexpr std::uint32_t kTopPos = 0xFFFFFFFFu;

  struct Entry {
    SimTime time = 0.0;
    std::uint64_t key = 0;  // (seq << kIndexBits) | record index
  };

  EventQueue() : pos_(own_pos_) {}
  /// Keep positions in `positions` (shared with other queues) instead.
  explicit EventQueue(std::vector<std::uint32_t>& positions)
      : pos_(positions) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// The queue's order: time, then key (schedule order on ties).
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  bool empty() const { return !has_top_; }
  std::size_t size() const { return heap_.size() + (has_top_ ? 1u : 0u); }
  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Whether this queue holds the entry with index `idx`; exact even when
  /// the map is shared, since an index lives in at most one queue.
  bool contains(std::uint32_t idx) const {
    if (idx >= pos_.size()) return false;
    const std::uint32_t p = pos_[idx];
    if (p == kTopPos) return has_top_ && (top_.key & kIndexMask) == idx;
    return p < heap_.size() && (heap_[p].key & kIndexMask) == idx;
  }

  const Entry& top() const {
    assert(has_top_);
    return top_;
  }

  void push(const Entry& e) {
    const std::uint32_t idx = static_cast<std::uint32_t>(e.key & kIndexMask);
    if (idx >= pos_.size()) pos_.resize(idx + 1, 0);
    if (!has_top_) {
      top_ = e;
      has_top_ = true;
      pos_[idx] = kTopPos;
      return;
    }
    if (before(e, top_)) {
      heap_push(top_);
      top_ = e;
      pos_[idx] = kTopPos;
    } else {
      heap_push(e);
    }
  }

  Entry pop() {
    assert(has_top_);
    const Entry out = top_;
    if (heap_.empty()) {
      has_top_ = false;
    } else {
      top_ = heap_pop_min();
      pos_[top_.key & kIndexMask] = kTopPos;
    }
    return out;
  }

  /// Re-key the entry whose index is `idx` to `e` (same index, new time and
  /// seq) with a single in-place sift. Precondition: exactly one entry with
  /// that index is in the queue (the owner's pending flag guards this).
  void update(std::uint32_t idx, const Entry& e) {
    assert((e.key & kIndexMask) == idx && idx < pos_.size());
    const std::uint32_t p = pos_[idx];
    if (p == kTopPos) {
      assert(has_top_ && (top_.key & kIndexMask) == idx);
      // The cached min is the one moving; it may no longer be the min.
      if (heap_.empty() || before(e, heap_.front())) {
        top_ = e;  // pos_ already kTopPos
        return;
      }
      top_ = heap_pop_min();
      pos_[top_.key & kIndexMask] = kTopPos;
      heap_push(e);
      return;
    }
    assert(p < heap_.size() && (heap_[p].key & kIndexMask) == idx);
    if (before(e, top_)) {
      // e becomes the new cached min; the old min re-enters at the hole.
      const Entry old_top = top_;
      top_ = e;
      pos_[idx] = kTopPos;
      sift_from(p, old_top);
      return;
    }
    sift_from(p, e);
  }

  /// Remove the entry whose index is `idx`. Same precondition as update().
  void erase(std::uint32_t idx) {
    assert(idx < pos_.size());
    const std::uint32_t p = pos_[idx];
    if (p == kTopPos) {
      assert(has_top_ && (top_.key & kIndexMask) == idx);
      if (heap_.empty()) {
        has_top_ = false;
        return;
      }
      top_ = heap_pop_min();
      pos_[top_.key & kIndexMask] = kTopPos;
      return;
    }
    assert(p < heap_.size() && (heap_[p].key & kIndexMask) == idx);
    const Entry last = heap_.back();
    heap_.pop_back();
    if (p < heap_.size()) sift_from(p, last);  // else: erased the tail entry
  }

 private:
  static constexpr std::size_t kArity = 4;

  void place(const Entry& e, std::size_t i) {
    heap_[i] = e;
    pos_[e.key & kIndexMask] = static_cast<std::uint32_t>(i);
  }

  void heap_push(const Entry& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    // Hole insertion: shift ancestors down until e's slot is found.
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(heap_[parent], i);
      i = parent;
    }
    place(e, i);
  }

  // Fill the hole at position p with entry e, sifting it up or down to
  // wherever heap order puts it. e may come from anywhere (a re-keyed
  // entry, the displaced old top, the detached tail), so both directions
  // are possible; at most one of them moves.
  void sift_from(std::size_t p, const Entry& e) {
    std::size_t i = p;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(heap_[parent], i);
      i = parent;
    }
    if (i == p) {
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t first_child = i * kArity + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t end =
            first_child + kArity < n ? first_child + kArity : n;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], e)) break;
        place(heap_[best], i);
        i = best;
      }
    }
    place(e, i);
  }

  Entry heap_pop_min() {
    const Entry min = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Bottom-up refill: walk the hole down the min-child path to a leaf
      // (no comparisons against `last`), then sift `last` up from there.
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t first_child = i * kArity + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t end =
            first_child + kArity < n ? first_child + kArity : n;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        place(heap_[best], i);
        i = best;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(last, heap_[parent])) break;
        place(heap_[parent], i);
        i = parent;
      }
      place(last, i);
    }
    return min;
  }

  Entry top_;
  bool has_top_ = false;
  std::vector<Entry> heap_;
  // index -> heap position (kTopPos for the cached top). Authoritative only
  // while that index has an entry in the queue; garbage otherwise.
  std::vector<std::uint32_t> own_pos_;
  std::vector<std::uint32_t>& pos_;
};

}  // namespace softres::sim

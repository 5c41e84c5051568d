// Property tests for the four-ary event queue, the simulator's two-level
// pending set (timing wheel + far heap) and the simulator's
// cancel/reschedule semantics on top of them: thousands of random
// push/update/erase/pop interleavings are cross-checked against a naive
// sorted-vector oracle. These pin the two contracts the whole engine
// rests on — pops come out in nondecreasing (time, key) order with FIFO
// same-instant tie-break, and the eager in-place re-key/erase paths
// (update / erase plus the index maps behind them) are observationally
// identical to remove-and-reinsert.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/pending_set.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace softres::sim {
namespace {

struct OracleEntry {
  double time;
  std::uint64_t key;
  bool operator<(const OracleEntry& o) const {
    return time != o.time ? time < o.time : key < o.key;
  }
};

// Reference model: a flat vector kept unordered; min extraction scans.
class Oracle {
 public:
  void push(double time, std::uint64_t key) { entries_.push_back({time, key}); }
  void erase(std::uint32_t idx) {
    auto it = find(idx);
    ASSERT_NE(it, entries_.end());
    entries_.erase(it);
  }
  void update(std::uint32_t idx, double time, std::uint64_t key) {
    auto it = find(idx);
    ASSERT_NE(it, entries_.end());
    *it = {time, key};
  }
  const OracleEntry& min() const {
    return *std::min_element(entries_.begin(), entries_.end());
  }
  const OracleEntry& max() const {
    return *std::max_element(entries_.begin(), entries_.end());
  }
  OracleEntry pop_min() {
    auto it = std::min_element(entries_.begin(), entries_.end());
    OracleEntry e = *it;
    entries_.erase(it);
    return e;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<OracleEntry>::iterator find(std::uint32_t idx) {
    return std::find_if(entries_.begin(), entries_.end(), [idx](auto& e) {
      return (e.key & EventQueue::kIndexMask) == idx;
    });
  }
  std::vector<OracleEntry> entries_;
};

class EventQueuePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueuePropertyTest, RandomOpsMatchSortedOracle) {
  EventQueue q;
  Oracle oracle;
  Rng rng(GetParam());

  constexpr std::uint32_t kIndices = 64;
  std::vector<bool> in_queue(kIndices, false);
  std::vector<std::uint32_t> free_idx, used_idx;
  for (std::uint32_t i = 0; i < kIndices; ++i) free_idx.push_back(i);
  std::uint64_t seq = 1;

  double last_time = 0.0;
  std::uint64_t last_key = 0;
  // Coarse time grid at or after the last pop (a simulator never schedules
  // into the past): with ~16 distinct instants and dozens of pending
  // entries, most pushes collide on time and the tie-break carries the
  // ordering — the case a plain (time < time) heap would get wrong.
  const auto random_time = [&rng, &last_time] {
    return last_time + static_cast<double>(rng.uniform_int(0, 15));
  };
  const int kOps = 10000;
  for (int op = 0; op < kOps; ++op) {
    const auto what = rng.uniform_int(0, 9);
    if (what < 4 && !free_idx.empty()) {  // push
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(free_idx.size()) - 1));
      const std::uint32_t idx = free_idx[pick];
      free_idx[pick] = free_idx.back();
      free_idx.pop_back();
      used_idx.push_back(idx);
      in_queue[idx] = true;
      const double t = random_time();
      const std::uint64_t key = (seq++ << EventQueue::kIndexBits) | idx;
      q.push({t, key});
      oracle.push(t, key);
    } else if (what < 6 && !used_idx.empty()) {  // update (re-key in place)
      const std::uint32_t idx = used_idx[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(used_idx.size()) - 1))];
      const double t = random_time();
      const std::uint64_t key = (seq++ << EventQueue::kIndexBits) | idx;
      q.update(idx, {t, key});
      oracle.update(idx, t, key);
    } else if (what < 7 && !used_idx.empty()) {  // erase
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(used_idx.size()) - 1));
      const std::uint32_t idx = used_idx[pick];
      used_idx[pick] = used_idx.back();
      used_idx.pop_back();
      free_idx.push_back(idx);
      in_queue[idx] = false;
      q.erase(idx);
      oracle.erase(idx);
    } else if (!q.empty()) {  // pop
      const EventQueue::Entry got = q.pop();
      const OracleEntry want = oracle.pop_min();
      ASSERT_EQ(got.time, want.time) << "op " << op;
      ASSERT_EQ(got.key, want.key) << "op " << op;
      // Nondecreasing (time, key) across consecutive pops.
      ASSERT_TRUE(got.time > last_time ||
                  (got.time == last_time && got.key > last_key))
          << "op " << op;
      last_time = got.time;
      last_key = got.key;
      const auto idx = static_cast<std::uint32_t>(got.key &
                                                  EventQueue::kIndexMask);
      ASSERT_TRUE(in_queue[idx]);
      in_queue[idx] = false;
      used_idx.erase(std::find(used_idx.begin(), used_idx.end(), idx));
      free_idx.push_back(idx);
    }
    ASSERT_EQ(q.size(), oracle.size());
  }

  // Drain: the remaining entries must come out in exact oracle order.
  while (!q.empty()) {
    const EventQueue::Entry got = q.pop();
    const OracleEntry want = oracle.pop_min();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.key, want.key);
  }
  EXPECT_EQ(oracle.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueuePropertyTest,
                         ::testing::Values(0x5eed1ull, 0x5eed2ull, 0x5eed3ull,
                                           0x5eed4ull));

// The pending set files an entry by its due time: the wheel for the next
// quarter second, the far heap beyond it, a small heap for the cursor's
// bucket. The property is the single heap's: every pop returns the oracle's
// minimum. Delays are log-uniform from 1e-6 s to 30 s, so pushes, re-keys
// and erases land on both sides of the horizon and re-keys move entries
// across it in both directions. Pushes never precede the last pop, as in
// the simulator. Two cases are forced rather than left to chance:
//  * exact repeats of earlier instants, and drains that stop just before
//    the latest pending instant and then push a fresh entry at it, so an
//    entry filed long ago in the far heap and one filed in the wheel share
//    an instant (the key, i.e. schedule order, must break the tie);
//  * drains that stop inside a bucket (at a pending instant, or between two
//    pending instants a few microseconds apart), after which new entries
//    land in the bucket the drain stopped in.
class PendingSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PendingSetPropertyTest, RandomOpsAcrossHorizonMatchSortedOracle) {
  PendingSet q;
  Oracle oracle;
  Rng rng(GetParam());

  constexpr std::uint32_t kIndices = 512;
  std::vector<std::uint32_t> free_idx, used_idx;
  for (std::uint32_t i = 0; i < kIndices; ++i) free_idx.push_back(i);
  std::uint64_t seq = 1;
  double now = 0.0;
  std::vector<double> instants;  // instants handed out so far, for repeats
  // Coverage of the forced case: consecutive pops at one instant, one
  // filed a second or more ahead and one filed within a millisecond.
  std::vector<double> lead(kIndices, 0.0);  // due time - now when filed
  double last_lead = 0.0;
  double last_time = -1.0;
  int cross_ties = 0;

  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto log_uniform_delay = [&rng] {
    return std::exp(std::log(1e-6) +
                    rng.next_double() * (std::log(30.0) - std::log(1e-6)));
  };
  const auto random_time = [&] {
    if (!instants.empty() && rng.next_double() < 0.25) {
      const double t = instants[pick(instants.size())];
      if (t >= now) return t;  // exact repeat of a pending or future instant
    }
    const double t = now + log_uniform_delay();
    instants.push_back(t);
    if (instants.size() > 256) instants.erase(instants.begin());
    return t;
  };
  const auto key_for = [&seq](std::uint32_t idx) {
    return (seq++ << EventQueue::kIndexBits) | idx;
  };
  const auto check_pop = [&](int op) {
    ASSERT_EQ(q.top().time, oracle.min().time) << "op " << op;
    ASSERT_EQ(q.top().key, oracle.min().key) << "op " << op;
    const PendingSet::Entry got = q.pop();
    const OracleEntry want = oracle.pop_min();
    ASSERT_EQ(got.time, want.time) << "op " << op;
    ASSERT_EQ(got.key, want.key) << "op " << op;
    now = got.time;
    const auto idx = static_cast<std::uint32_t>(got.key &
                                                EventQueue::kIndexMask);
    if (got.time == last_time &&
        std::max(lead[idx], last_lead) >= 1.0 &&
        std::min(lead[idx], last_lead) <= 1e-3) {
      ++cross_ties;
    }
    last_time = got.time;
    last_lead = lead[idx];
    used_idx.erase(std::find(used_idx.begin(), used_idx.end(), idx));
    free_idx.push_back(idx);
  };

  const int kOps = 20000;
  for (int op = 0; op < kOps; ++op) {
    const auto what = rng.uniform_int(0, 19);
    if (what < 9 && !free_idx.empty()) {  // push
      const std::size_t at = pick(free_idx.size());
      const std::uint32_t idx = free_idx[at];
      free_idx[at] = free_idx.back();
      free_idx.pop_back();
      used_idx.push_back(idx);
      const double t = random_time();
      const std::uint64_t key = key_for(idx);
      lead[idx] = t - now;
      q.push({t, key});
      oracle.push(t, key);
    } else if (what < 12 && !used_idx.empty()) {  // re-key in place
      const std::uint32_t idx = used_idx[pick(used_idx.size())];
      const double t = random_time();
      const std::uint64_t key = key_for(idx);
      lead[idx] = t - now;
      q.update(idx, {t, key});
      oracle.update(idx, t, key);
    } else if (what < 14 && !used_idx.empty()) {  // erase
      const std::size_t at = pick(used_idx.size());
      const std::uint32_t idx = used_idx[at];
      used_idx[at] = used_idx.back();
      used_idx.pop_back();
      free_idx.push_back(idx);
      q.erase(idx);
      oracle.erase(idx);
    } else if (what < 18 && !q.empty()) {  // pop
      check_pop(op);
    } else if (!q.empty()) {  // drain up to a point, like run_until
      double until = now + log_uniform_delay();
      double tie = -1.0;  // instant to push a fresh entry at after the drain
      switch (rng.uniform_int(0, 2)) {
        case 0: {  // just before the latest pending instant, then tie it
          const double t = oracle.max().time;
          if (t > now) {
            until = std::nextafter(t, 0.0);
            tie = t;
          }
          break;
        }
        case 1:  // inside the earliest entry's bucket
          until = oracle.min().time + 1e-6;
          break;
        default:
          break;
      }
      while (!q.empty() && q.top().time <= until) {
        check_pop(op);
        if (HasFatalFailure()) return;
      }
      if (until > now) now = until;
      if (tie >= now && !free_idx.empty()) {
        const std::uint32_t idx = free_idx.back();
        free_idx.pop_back();
        used_idx.push_back(idx);
        const std::uint64_t key = key_for(idx);
        lead[idx] = tie - now;
        q.push({tie, key});
        oracle.push(tie, key);
      }
    }
    if (HasFatalFailure()) return;
    ASSERT_EQ(q.size(), oracle.size()) << "op " << op;
    ASSERT_EQ(q.empty(), oracle.size() == 0) << "op " << op;
  }
  while (!q.empty()) {
    check_pop(kOps);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(oracle.size(), 0u);
  EXPECT_GT(cross_ties, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PendingSetPropertyTest,
                         ::testing::Values(0x77ee1ull, 0x77ee2ull, 0x77ee3ull,
                                           0x77ee4ull));

// A burst at one instant — many users woken together — must drain in FIFO
// (key) order, and cheaply: the bucket is ordered once, not scanned per pop.
// Each popped entry schedules a follow-up a few microseconds later, into the
// bucket being drained, as a woken user's first network hop would. The
// burst is run twice, once inside the wheel's horizon and once beyond it.
TEST(PendingSetBurstTest, TenThousandAtOneInstantDrainInFifoOrder) {
  for (const double at : {0.1, 20.0}) {
    PendingSet q;
    constexpr std::uint32_t kBurst = 10000;
    std::uint64_t seq = 1;
    q.push({at / 2, (seq++ << EventQueue::kIndexBits) | (2 * kBurst)});
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      q.push({at, (seq++ << EventQueue::kIndexBits) | i});
    }
    ASSERT_EQ(q.pop().time, at / 2);
    std::uint64_t last_key = 0;
    std::uint32_t burst_popped = 0;
    std::uint32_t follow_ups = 0;
    while (!q.empty()) {
      const PendingSet::Entry e = q.pop();
      const auto idx = static_cast<std::uint32_t>(e.key &
                                                  EventQueue::kIndexMask);
      if (idx < kBurst) {
        ASSERT_EQ(e.time, at);
        ASSERT_GT(e.key, last_key) << "burst entry " << idx;
        last_key = e.key;
        ++burst_popped;
        q.push({at + 5e-6, (seq++ << EventQueue::kIndexBits) | (kBurst + idx)});
      } else {
        // Every burst entry precedes every follow-up.
        ASSERT_EQ(burst_popped, kBurst);
        ASSERT_EQ(e.time, at + 5e-6);
        ++follow_ups;
      }
    }
    EXPECT_EQ(burst_popped, kBurst);
    EXPECT_EQ(follow_ups, kBurst);
  }
}

// Simulator-level version of the same property: random
// schedule/cancel/reschedule interleavings must fire callbacks in exactly
// the order a naive model predicts — by (time, seq of the last
// (re)schedule), ties FIFO. This exercises the handle/generation layer and
// the record freelist on top of the raw queue ops.
TEST(SimulatorSchedulingPropertyTest, RandomCancelRescheduleMatchesModel) {
  Simulator sim;
  Rng rng(0xabcdefull);

  struct Pending {
    EventHandle handle;
    int id;
  };
  std::vector<Pending> pending;
  std::vector<int> fired;          // ids in firing order
  std::vector<std::pair<double, std::uint64_t>> model_keys(4096);
  std::vector<std::pair<std::pair<double, std::uint64_t>, int>> model;
  std::uint64_t model_seq = 1;
  int next_id = 0;

  const auto random_delay = [&rng] {
    return static_cast<double>(rng.uniform_int(0, 7));  // coarse: forces ties
  };

  for (int op = 0; op < 10000; ++op) {
    const auto what = rng.uniform_int(0, 7);
    if (what < 4) {  // schedule
      const int id = next_id++;
      const double at = sim.now() + random_delay();
      model_keys[id] = {at, model_seq++};
      pending.push_back(
          {sim.schedule(at - sim.now(), [id, &fired] { fired.push_back(id); }),
           id});
    } else if (what < 5 && !pending.empty()) {  // cancel
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      if (sim.cancel(pending[pick].handle)) {
        model_keys[pending[pick].id].first = -1.0;  // never fires
      }
      pending[pick] = pending.back();
      pending.pop_back();
    } else if (what < 6 && !pending.empty()) {  // reschedule
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      const double at = sim.now() + random_delay();
      if (sim.reschedule(pending[pick].handle, at - sim.now())) {
        model_keys[pending[pick].id] = {at, model_seq++};
      }
    } else {  // let some time pass; fired events leave stale handles behind,
      // and later cancel/reschedule on them must refuse (generation guard)
      sim.run_until(sim.now() + 1.0);
    }
    if (next_id >= 4000) break;  // stay inside model_keys
  }
  sim.run();

  for (int id = 0; id < next_id; ++id) {
    if (model_keys[id].first >= 0.0) {
      model.push_back({model_keys[id], id});
    }
  }
  std::sort(model.begin(), model.end());
  ASSERT_EQ(fired.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(fired[i], model[i].second) << "position " << i;
  }
}

}  // namespace
}  // namespace softres::sim

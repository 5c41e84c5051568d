#include "soft/pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/probes.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "soft/pool_monitor.h"

namespace softres::soft {
namespace {

TEST(PoolTest, GrantsImmediatelyWhenFree) {
  sim::Simulator sim;
  Pool pool(sim, "p", 2);
  int granted = 0;
  pool.acquire([&] { ++granted; });
  pool.acquire([&] { ++granted; });
  EXPECT_EQ(granted, 2);  // synchronous grant
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.waiting(), 0u);
}

TEST(PoolTest, QueuesBeyondCapacityFifo) {
  sim::Simulator sim;
  Pool pool(sim, "p", 1);
  std::vector<int> order;
  pool.acquire([&] { order.push_back(0); });
  pool.acquire([&] { order.push_back(1); });
  pool.acquire([&] { order.push_back(2); });
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(pool.waiting(), 2u);
  EXPECT_TRUE(pool.saturated());
  pool.release();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  pool.release();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pool.waiting(), 0u);
  EXPECT_EQ(pool.in_use(), 1u);
}

TEST(PoolTest, UtilizationFraction) {
  sim::Simulator sim;
  Pool pool(sim, "p", 4);
  EXPECT_EQ(pool.utilization(), 0.0);
  pool.acquire([] {});
  pool.acquire([] {});
  EXPECT_NEAR(pool.utilization(), 0.5, 1e-12);
}

TEST(PoolTest, SaturatedRequiresWaiters) {
  sim::Simulator sim;
  Pool pool(sim, "p", 1);
  pool.acquire([] {});
  EXPECT_FALSE(pool.saturated());  // full but nobody queued
  pool.acquire([] {});
  EXPECT_TRUE(pool.saturated());
}

TEST(PoolTest, TryAcquireRespectsQueue) {
  sim::Simulator sim;
  Pool pool(sim, "p", 2);
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_FALSE(pool.try_acquire());  // full
  pool.acquire([] {});               // waiter
  pool.release();
  // Waiter got the unit; try_acquire must not jump the queue.
  EXPECT_EQ(pool.waiting(), 0u);
  EXPECT_FALSE(pool.try_acquire());
}

TEST(PoolTest, WaitTimeMeasured) {
  sim::Simulator sim;
  Pool pool(sim, "p", 1);
  pool.acquire([] {});
  bool granted = false;
  pool.acquire([&] { granted = true; });
  sim.schedule(2.0, [&] { pool.release(); });
  sim.run();
  EXPECT_TRUE(granted);
  // Two acquisitions: one waited 0, one waited 2.0.
  EXPECT_NEAR(pool.mean_wait_time(), 1.0, 1e-9);
  EXPECT_EQ(pool.total_acquired(), 2u);
}

TEST(PoolTest, GrowCapacityAdmitsWaiters) {
  sim::Simulator sim;
  Pool pool(sim, "p", 1);
  int granted = 0;
  for (int i = 0; i < 3; ++i) pool.acquire([&] { ++granted; });
  EXPECT_EQ(granted, 1);
  pool.set_capacity(3);
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(pool.in_use(), 3u);
}

TEST(PoolTest, ShrinkCapacityTakesEffectLazily) {
  sim::Simulator sim;
  Pool pool(sim, "p", 3);
  for (int i = 0; i < 3; ++i) pool.acquire([] {});
  pool.set_capacity(1);
  EXPECT_EQ(pool.in_use(), 3u);  // nothing evicted
  pool.release();
  pool.release();
  // Now at capacity; a new acquire queues.
  int granted = 0;
  pool.acquire([&] { ++granted; });
  EXPECT_EQ(granted, 0);
  pool.release();
  EXPECT_EQ(granted, 1);
}

TEST(PoolTest, GrowAdmitsWaitersFifoWithWaitStats) {
  sim::Simulator sim;
  Pool pool(sim, "p", 1);
  std::vector<int> order;
  pool.acquire([&] { order.push_back(0); });  // granted at t=0, waited 0
  for (int i = 1; i <= 3; ++i) {
    pool.acquire([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(pool.waiting(), 3u);
  sim.schedule(5.0, [&] { pool.set_capacity(3); });
  sim.run();
  // The grow admits exactly the two oldest waiters, in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_EQ(pool.waiting(), 1u);
  // Wait stats cover the admitted waiters: waits 0, 5, 5.
  EXPECT_EQ(pool.total_acquired(), 3u);
  EXPECT_NEAR(pool.mean_wait_time(), 10.0 / 3.0, 1e-9);
}

TEST(PoolTest, LazyShrinkDrainsOneUnitPerRelease) {
  sim::Simulator sim;
  Pool pool(sim, "p", 4);
  for (int i = 0; i < 4; ++i) pool.acquire([] {});
  pool.set_capacity(2);
  EXPECT_TRUE(pool.draining());
  EXPECT_EQ(pool.drain_pending(), 2u);
  EXPECT_EQ(pool.drained_total(), 0u);
  int granted = 0;
  pool.acquire([&] { ++granted; });  // queues behind the drain
  EXPECT_TRUE(pool.saturated());     // over-committed + waiter: starved
  pool.release();                    // retires a unit, does not recycle it
  EXPECT_EQ(pool.drained_total(), 1u);
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_EQ(granted, 0);
  pool.release();                    // second drain; now at capacity
  EXPECT_EQ(pool.drained_total(), 2u);
  EXPECT_FALSE(pool.draining());
  EXPECT_EQ(pool.drain_pending(), 0u);
  EXPECT_EQ(granted, 0);  // at capacity, the waiter still holds
  pool.release();         // below capacity: the unit recycles to the waiter
  EXPECT_EQ(pool.drained_total(), 2u);
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(pool.in_use(), 2u);
}

TEST(PoolTest, UtilizationClampedWhileDraining) {
  sim::Simulator sim;
  Pool pool(sim, "p", 4);
  for (int i = 0; i < 4; ++i) pool.acquire([] {});
  pool.set_capacity(2);  // in_use 4 > capacity 2
  EXPECT_EQ(pool.utilization(), 1.0);
  EXPECT_EQ(pool.drain_pending(), 2u);
  pool.set_capacity(0);
  EXPECT_EQ(pool.utilization(), 1.0);  // zero capacity never divides
}

TEST(PoolTest, SaturatedUsesOverCommitToo) {
  sim::Simulator sim;
  Pool pool(sim, "p", 2);
  pool.acquire([] {});
  pool.acquire([] {});
  pool.acquire([] {});  // waiter
  pool.set_capacity(1);
  // in_use (2) exceeds capacity (1) with a queue: just as starved as an
  // exactly-full pool. The old `==` comparison would have reported healthy.
  EXPECT_TRUE(pool.saturated());
}

TEST(PoolTest, CapacityEpochLogRecordsRealResizes) {
  sim::Simulator sim;
  Pool pool(sim, "p", 4);
  sim.schedule(1.0, [&] { pool.set_capacity(8); });
  sim.schedule(2.0, [&] { pool.set_capacity(8); });  // no-op: not logged
  sim.schedule(3.0, [&] { pool.set_capacity(2); });
  sim.run();
  const auto& epochs = pool.capacity_epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].at, 1.0);
  EXPECT_EQ(epochs[0].from, 4u);
  EXPECT_EQ(epochs[0].to, 8u);
  EXPECT_EQ(epochs[1].at, 3.0);
  EXPECT_EQ(epochs[1].from, 8u);
  EXPECT_EQ(epochs[1].to, 2u);
}

TEST(PoolTest, ResizeAroundResetStatsKeepsOccupancyConsistent) {
  sim::Simulator sim;
  Pool pool(sim, "p", 4);
  for (int i = 0; i < 3; ++i) pool.acquire([] {});  // 3 in use from t=0
  sim.schedule(2.0, [&] {
    pool.reset_stats(2.0);
    pool.set_capacity(1);  // shrink mid-window; occupancy must not jump
  });
  sim.schedule(6.0, [&] { pool.release(); });  // drains one: 3 -> 2
  sim.run();
  sim.run_until(10.0);
  // From the reset at t=2: 3 in use over [2,6], 2 over [6,10] -> 2.5 mean.
  EXPECT_NEAR(pool.average_in_use(10.0), 2.5, 1e-9);
  EXPECT_EQ(pool.drained_total(), 1u);
  EXPECT_TRUE(pool.draining());  // 2 in use > capacity 1
}

TEST(PoolTest, AverageInUseTimeWeighted) {
  sim::Simulator sim;
  Pool pool(sim, "p", 2);
  pool.reset_stats(0.0);
  pool.acquire([] {});               // 1 in use from t=0
  sim.schedule(4.0, [&] { pool.acquire([] {}); });  // 2 in use from t=4
  sim.run();
  sim.run_until(8.0);
  EXPECT_NEAR(pool.average_in_use(8.0), 1.5, 1e-9);
}

// Pool probes as the testbed wires them: obs::register_pool on a Registry,
// recorded once per second by the time-series store.
struct PoolRecorder {
  PoolRecorder(sim::Simulator& sim, const Pool& pool, int seconds) {
    obs::register_pool(registry, pool);
    timeline = obs::Timeline(registry, static_cast<std::size_t>(seconds));
    for (int t = 1; t <= seconds; ++t) {
      sim.schedule_at(t, [this, &sim] { timeline.record(sim.now()); });
    }
  }
  const obs::Series& series(const std::string& family) const {
    return *timeline.find_series(family, {{"pool", "p"}});
  }

  obs::Registry registry;
  obs::Timeline timeline;
};

TEST(PoolMonitorTest, UtilProbeAndDensity) {
  sim::Simulator sim;
  Pool pool(sim, "p", 2);
  PoolRecorder rec(sim, pool, 5);
  pool.acquire([] {});
  sim.run_until(5.0);
  const obs::Series& s = rec.series("pool_util_pct");
  ASSERT_EQ(s.size(), 5u);
  for (double v : s.values) EXPECT_NEAR(v, 50.0, 1e-9);
  sim::Histogram density =
      utilization_density(rec.timeline.window(s, 0.0, 5.0), 10);
  EXPECT_NEAR(density.density(5), 1.0, 1e-12);  // all mass in [50,60)
}

TEST(PoolMonitorTest, SaturationRule) {
  obs::Registry registry;
  obs::Gauge hot = registry.gauge("pool_util_pct", {{"pool", "hot"}});
  obs::Gauge warm = registry.gauge("pool_util_pct", {{"pool", "warm"}});
  obs::Timeline tl(registry, 10);
  for (int i = 0; i < 10; ++i) {
    hot.set(i < 7 ? 100.0 : 50.0);
    warm.set(i < 3 ? 100.0 : 50.0);
    tl.record(i);
  }
  // 70% of samples at 100% -> saturated.
  EXPECT_TRUE(is_saturated(tl.window(tl[0], 0.0, 10.0)));
  // Only 30% at 100% -> not saturated.
  EXPECT_FALSE(is_saturated(tl.window(tl[1], 0.0, 10.0)));
  // Empty window -> not saturated.
  EXPECT_FALSE(is_saturated(tl.window(tl[0], 20.0, 30.0)));
}

TEST(PoolMonitorTest, WaitersProbe) {
  sim::Simulator sim;
  Pool pool(sim, "p", 1);
  PoolRecorder rec(sim, pool, 1);
  pool.acquire([] {});
  pool.acquire([] {});
  pool.acquire([] {});
  sim.run_until(1.0);
  EXPECT_EQ(rec.series("pool_waiting").values[0], 2.0);
}

}  // namespace
}  // namespace softres::soft

// The testbed's 1 s sampling tick (the simulated SysStat) and the [lo, hi)
// windows of the store it fills. One tick event per second records every
// series registered by the end of Testbed construction, then steps the
// arbiters, the diagnoser and the governor; the first tick fires one
// interval after run() starts and the last one at the trial horizon.

#include <gtest/gtest.h>

#include <vector>

#include "exp/run_context.h"
#include "exp/testbed.h"
#include "obs/timeline.h"

namespace softres::exp {
namespace {

// 2 s ramp-up + 5 s runtime + 1 s ramp-down: an 8 s horizon.
workload::ClientConfig quick_client() {
  workload::ClientConfig c;
  c.users = 50;
  c.ramp_up_s = 2.0;
  c.runtime_s = 5.0;
  c.ramp_down_s = 1.0;
  return c;
}

TEST(TimeSeriesTest, WindowAndAggregates) {
  obs::Registry r;
  obs::Gauge g = r.gauge("x");
  obs::Timeline tl(r, 10);
  for (int i = 1; i <= 10; ++i) {
    g.set(i * 10.0);
    tl.record(i);
  }
  const obs::Series& s = tl[0];
  EXPECT_EQ(s.size(), 10u);
  EXPECT_NEAR(tl.mean_between(s, 0.0, 11.0), 55.0, 1e-12);
  EXPECT_NEAR(tl.mean_between(s, 3.0, 6.0), 40.0, 1e-12);  // t=3,4,5
  const std::span<const double> w = tl.window(s, 4.0, 6.0);
  EXPECT_EQ(std::vector<double>(w.begin(), w.end()),
            (std::vector<double>{40.0, 50.0}));
}

TEST(TimeSeriesTest, EmptyWindowIsZero) {
  obs::Registry r;
  r.gauge("x");
  const obs::Timeline tl(r, 4);
  EXPECT_EQ(tl[0].size(), 0u);
  EXPECT_EQ(tl.mean_between(tl[0], 0.0, 1.0), 0.0);
  EXPECT_TRUE(tl.window(tl[0], 0.0, 1.0).empty());
}

TEST(SamplerTest, PollsAtFixedInterval) {
  Testbed bed(TestbedConfig::defaults(), quick_client());
  bed.run();
  const std::vector<sim::SimTime> want = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(bed.timeline().times(), want);
}

TEST(SamplerTest, StopHaltsSampling) {
  // The tick chain ends at the horizon: running the simulator on records
  // nothing more.
  Testbed bed(TestbedConfig::defaults(), quick_client());
  bed.run();
  bed.simulator().run_until(20.0);
  EXPECT_EQ(bed.timeline().ticks(), 8u);
  EXPECT_EQ(bed.timeline().times().back(), 8.0);
}

TEST(SamplerTest, ProbeReceivesSampleTime) {
  const TestbedConfig cfg = TestbedConfig::defaults();
  workload::ClientConfig client = quick_client();
  RunContext ctx(client.seed, cfg, client.users);
  std::vector<sim::SimTime> seen;
  ctx.registry().gauge_fn("probe_time", [&seen](sim::SimTime t) {
    seen.push_back(t);
    return t;
  });
  Testbed bed(ctx, cfg, client);
  bed.run();
  // One read per tick, at the tick's instant; the first tick is one interval
  // in, not at t = 0.
  const std::vector<sim::SimTime> want = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(seen, want);
  const obs::Series* s = bed.timeline().find_series("probe_time");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->values, want);
}

TEST(SamplerTest, FindByName) {
  Testbed bed(TestbedConfig::defaults(), quick_client());
  const obs::Timeline& tl = bed.timeline();
  const obs::Series* s = tl.find_series("pool_util_pct", {{"pool", "tomcat0.threads"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name, "pool_util_pct{pool=\"tomcat0.threads\"}");
  EXPECT_EQ(tl.find_series("pool_util_pct", {{"pool", "tomcat9.threads"}}),
            nullptr);
  // Lookups need the labels: the bare family names no series.
  EXPECT_EQ(tl.find_series("pool_util_pct"), nullptr);
}

TEST(SamplerTest, MultipleProbesSampledTogether) {
  Testbed bed(TestbedConfig::defaults(), quick_client());
  const std::size_t columns = bed.registry().series().size();
  // Registered after construction: not recorded.
  bed.registry().gauge_fn("late", [](sim::SimTime) { return 1.0; });
  bed.run();
  const obs::Timeline& tl = bed.timeline();
  EXPECT_EQ(tl.size(), columns);
  EXPECT_EQ(tl.find_series("late"), nullptr);
  for (const obs::Series& s : tl) EXPECT_EQ(s.size(), tl.ticks());
}

}  // namespace
}  // namespace softres::exp

#include "exp/testbed.h"

#include <gtest/gtest.h>

#include "exp/experiment.h"

namespace softres::exp {
namespace {

workload::ClientConfig quick_client(std::size_t users,
                                    double runtime = 20.0) {
  workload::ClientConfig c;
  c.users = users;
  c.ramp_up_s = 5.0;
  c.runtime_s = runtime;
  c.ramp_down_s = 2.0;
  return c;
}

TEST(TestbedTest, BuildsRequestedTopology) {
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.hw = HardwareConfig::parse("1/4/1/4");
  Testbed bed(cfg, quick_client(100));
  EXPECT_EQ(bed.apaches().size(), 1u);
  EXPECT_EQ(bed.tomcats().size(), 4u);
  EXPECT_EQ(bed.cjdbcs().size(), 1u);
  EXPECT_EQ(bed.mysqls().size(), 4u);
  EXPECT_EQ(bed.nodes().size(), 10u);
}

TEST(TestbedTest, SoftConfigAppliedToPools) {
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.soft = SoftConfig{123, 45, 7};
  Testbed bed(cfg, quick_client(100));
  EXPECT_EQ(bed.apaches()[0]->worker_pool().capacity(), 123u);
  EXPECT_EQ(bed.tomcats()[0]->thread_pool().capacity(), 45u);
  EXPECT_EQ(bed.tomcats()[0]->connection_pool().capacity(), 7u);
  // One C-JDBC thread per upstream connection: 2 tomcats x 7 conns.
  EXPECT_EQ(bed.cjdbcs()[0]->jvm().live_threads(), 14u);
}

TEST(TestbedTest, RunProducesTraffic) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(300));
  bed.run();
  EXPECT_GT(bed.farm().response_times().count(), 100u);
  EXPECT_GT(bed.farm().window_throughput(), 10.0);
  // All tiers saw work.
  for (const auto& t : bed.tomcats()) EXPECT_GT(t->window_completed(), 0u);
  for (const auto& m : bed.mysqls()) EXPECT_GT(m->window_completed(), 0u);
}

TEST(TestbedTest, DeterministicAcrossRebuilds) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed a(cfg, quick_client(200));
  a.run();
  Testbed b(cfg, quick_client(200));
  b.run();
  EXPECT_EQ(a.farm().response_times().count(),
            b.farm().response_times().count());
  EXPECT_DOUBLE_EQ(a.farm().response_times().mean(),
                   b.farm().response_times().mean());
}

TEST(TestbedTest, SeedChangesTrajectory) {
  TestbedConfig cfg = TestbedConfig::defaults();
  workload::ClientConfig c1 = quick_client(200);
  workload::ClientConfig c2 = quick_client(200);
  c2.seed = 777;
  Testbed a(cfg, c1);
  a.run();
  Testbed b(cfg, c2);
  b.run();
  EXPECT_NE(a.farm().response_times().mean(),
            b.farm().response_times().mean());
}

TEST(TestbedTest, SamplerRecordsCpuSeries) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(300));
  bed.run();
  const obs::Timeline& tl = bed.timeline();
  const obs::Series* s = tl.find_series("cpu_util_pct", {{"node", "tomcat0"}});
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->size(), 20u);
  EXPECT_GT(tl.mean_between(*s, bed.measure_start(), bed.measure_end()), 0.0);
}

TEST(ElasticLoadTest, ActiveUsersFollowSchedule) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(1000, 60.0));
  bed.farm().set_load_schedule({{0.0, 200}, {20.0, 800}, {40.0, 300}});
  bed.farm().start();
  bed.simulator().run_until(10.0);
  EXPECT_EQ(bed.farm().active_users(), 200u);
  bed.simulator().run_until(25.0);
  EXPECT_EQ(bed.farm().active_users(), 800u);
  bed.simulator().run_until(65.0);
  // Shrink is lazy (cycle boundaries) but must settle within think time.
  EXPECT_LE(bed.farm().active_users(), 320u);
  EXPECT_GE(bed.farm().active_users(), 250u);
}

TEST(ElasticLoadTest, ScheduleStartsWithRun) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(600, 40.0));
  bed.farm().set_load_schedule({{0.0, 300}, {20.0, 600}});
  bed.run();
  EXPECT_GT(bed.farm().response_times().count(), 100u);
  EXPECT_EQ(bed.farm().active_users(), 600u);
}

TEST(ElasticLoadTest, EmptyScheduleKeepsLegacyBehaviour) {
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(400, 30.0));
  bed.run();
  EXPECT_EQ(bed.farm().active_users(), 400u);
}

TEST(ElasticLoadTest, ThroughputTracksPopulation) {
  // Double the active population below saturation -> ~double throughput.
  TestbedConfig cfg = TestbedConfig::defaults();
  Testbed bed(cfg, quick_client(1200, 120.0));
  bed.farm().set_load_schedule({{0.0, 500}, {65.0, 1000}});
  bed.run();
  const auto& times = bed.farm().completion_times();
  std::size_t first_half = 0, second_half = 0;
  for (double t : times) {
    // Measurement window is [5, 125); phase flips at 65.
    if (t < 60.0) {
      ++first_half;
    } else if (t >= 70.0) {
      ++second_half;
    }
  }
  const double rate1 = static_cast<double>(first_half) / 55.0;
  const double rate2 = static_cast<double>(second_half) / 55.0;
  EXPECT_NEAR(rate2 / rate1, 2.0, 0.3);
}

TEST(ExperimentTest, RunResultConservation) {
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(300);
  Experiment e(cfg, opts);
  const RunResult r = e.run(SoftConfig{100, 20, 20}, 300);

  // goodput + badput == throughput at any threshold.
  for (double thr : {0.2, 0.5, 1.0, 2.0}) {
    const auto s = r.sla(thr);
    EXPECT_NEAR(s.goodput + s.badput, r.throughput, 1e-9);
  }
  // Goodput monotone in threshold.
  EXPECT_LE(r.goodput(0.5), r.goodput(1.0));
  EXPECT_LE(r.goodput(1.0), r.goodput(2.0));
  // Structure filled in.
  EXPECT_EQ(r.cpus.size(), 6u);   // 1+2+1+2 nodes
  EXPECT_EQ(r.pools.size(), 5u);  // apache workers + 2x(threads+conns)
  EXPECT_EQ(r.servers.size(), 6u);
  EXPECT_GT(r.req_ratio, 1.0);
  EXPECT_NE(r.find_cpu("tomcat0.cpu"), nullptr);
  EXPECT_NE(r.find_server("cjdbc0"), nullptr);
  EXPECT_NE(r.find_pool("tomcat1.dbconns"), nullptr);
  EXPECT_EQ(r.find_cpu("nope"), nullptr);
}

TEST(ExperimentTest, ForcedFlowLawAcrossTiers) {
  // Tier throughputs must satisfy the Forced Flow Law: X_mysql ~=
  // X_client * req_ratio, X_apache ~= X_client * 3 (page + 2 statics).
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(400);
  Experiment e(cfg, opts);
  const RunResult r = e.run(SoftConfig{200, 50, 50}, 400);
  double mysql_tp = 0.0;
  for (const auto& s : r.servers) {
    if (s.name.rfind("mysql", 0) == 0) mysql_tp += s.throughput;
  }
  EXPECT_NEAR(mysql_tp, r.throughput * r.req_ratio,
              0.1 * mysql_tp + 1.0);
  const ServerOps* apache = r.find_server("apache0");
  ASSERT_NE(apache, nullptr);
  EXPECT_NEAR(apache->throughput, r.throughput * 3.0,
              0.1 * apache->throughput + 1.0);
}

TEST(ExperimentTest, LowWorkloadNothingSaturated) {
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(200);
  Experiment e(cfg, opts);
  const RunResult r = e.run(SoftConfig{200, 50, 50}, 200);
  EXPECT_TRUE(r.saturated_hardware().empty());
  EXPECT_TRUE(r.saturated_soft().empty());
}

TEST(ExperimentTest, TinyThreadPoolSaturatesSoftNotHardware) {
  TestbedConfig cfg = TestbedConfig::defaults();
  ExperimentOptions opts;
  opts.client = quick_client(1500);
  Experiment e(cfg, opts);
  // 1 thread per Tomcat: blatant soft bottleneck at moderate workload.
  const RunResult r = e.run(SoftConfig{200, 1, 20}, 1500);
  EXPECT_TRUE(r.saturated_hardware().empty());
  EXPECT_FALSE(r.saturated_soft().empty());
}

TEST(ExperimentOptionsTest, FromEnvHonoursFullFlag) {
  ::setenv("SOFTRES_FULL", "1", 1);
  const ExperimentOptions full = ExperimentOptions::from_env();
  ::unsetenv("SOFTRES_FULL");
  const ExperimentOptions quick = ExperimentOptions::from_env();
  EXPECT_NEAR(full.client.runtime_s, 720.0, 1e-9);
  EXPECT_LT(quick.client.runtime_s, full.client.runtime_s);
}

}  // namespace
}  // namespace softres::exp

#include <gtest/gtest.h>

#include <vector>

#include "hw/disk.h"
#include "hw/link.h"
#include "hw/node.h"
#include "obs/probes.h"
#include "obs/timeline.h"
#include "sim/simulator.h"

namespace softres::hw {
namespace {

// The disk tests use sigma 0: every operation takes exactly the median.
TEST(DiskTest, FcfsOrdering) {
  sim::Simulator sim;
  Disk disk(sim, "d", 0.01, 0.0, sim::Rng(1));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    disk.submit([&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(disk.ops_completed(), 4u);
  EXPECT_NEAR(sim.now(), 0.04, 1e-9);
}

TEST(DiskTest, QueueLengthTracksBacklog) {
  sim::Simulator sim;
  Disk disk(sim, "d", 1.0, 0.0, sim::Rng(1));
  for (int i = 0; i < 3; ++i) disk.submit([] {});
  EXPECT_EQ(disk.queue_length(), 3u);
  sim.run_until(1.5);
  EXPECT_EQ(disk.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(disk.queue_length(), 0u);
}

TEST(DiskTest, BusySecondsAccumulateServiceTime) {
  sim::Simulator sim;
  Disk disk(sim, "d", 0.5, 0.0, sim::Rng(1));
  for (int i = 0; i < 4; ++i) disk.submit([] {});
  sim.run();
  EXPECT_NEAR(disk.busy_seconds(), 2.0, 1e-9);
}

TEST(DiskTest, IdleThenNewWork) {
  sim::Simulator sim;
  Disk disk(sim, "d", 0.1, 0.0, sim::Rng(1));
  double t1 = -1, t2 = -1;
  disk.submit([&] { t1 = sim.now(); });
  sim.run();
  sim.schedule_at(5.0, [&] { disk.submit([&] { t2 = sim.now(); }); });
  sim.run();
  EXPECT_NEAR(t1, 0.1, 1e-9);
  EXPECT_NEAR(t2, 5.1, 1e-9);
}

TEST(LinkTest, LatencyOnlyDelivery) {
  sim::Simulator sim;
  Link link(sim, "l", 0.001, 1e12);  // effectively infinite bandwidth
  double at = -1.0;
  link.send(1000.0, [&] { at = sim.now(); });
  sim.run();
  EXPECT_NEAR(at, 0.001, 1e-9);
}

TEST(LinkTest, TransmissionSerialises) {
  sim::Simulator sim;
  Link link(sim, "l", 0.0, 1000.0);  // 1000 B/s
  std::vector<double> at;
  link.send(500.0, [&] { at.push_back(sim.now()); });  // tx [0, 0.5]
  link.send(500.0, [&] { at.push_back(sim.now()); });  // tx [0.5, 1.0]
  sim.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_NEAR(at[0], 0.5, 1e-9);
  EXPECT_NEAR(at[1], 1.0, 1e-9);
  EXPECT_NEAR(link.busy_seconds(), 1.0, 1e-9);
  EXPECT_EQ(link.messages_sent(), 2u);
  EXPECT_NEAR(link.bytes_sent(), 1000.0, 1e-9);
}

TEST(LinkTest, TransmitterIdleGapsRespected) {
  sim::Simulator sim;
  Link link(sim, "l", 0.0, 1000.0);
  std::vector<double> at;
  link.send(100.0, [&] { at.push_back(sim.now()); });  // done at 0.1
  sim.schedule(1.0, [&] {
    link.send(100.0, [&] { at.push_back(sim.now()); });  // starts at 1.0
  });
  sim.run();
  EXPECT_NEAR(at[0], 0.1, 1e-9);
  EXPECT_NEAR(at[1], 1.1, 1e-9);
}

TEST(NodeTest, ProvidesCpuAndDisk) {
  sim::Simulator sim;
  NodeSpec spec;
  spec.cores = 2;
  Node node(sim, "n0", spec, sim::Rng(3));
  EXPECT_EQ(node.name(), "n0");
  EXPECT_EQ(node.cpu().cores(), 2u);
  bool cpu_done = false, disk_done = false;
  node.cpu().submit(0.01, [&] { cpu_done = true; });
  node.disk().submit([&] { disk_done = true; });
  sim.run();
  EXPECT_TRUE(cpu_done);
  EXPECT_TRUE(disk_done);
}

// The SysStat-style CPU probes as the testbed wires them: registered on a
// Registry and recorded once per second by the time-series store.
const obs::Series& record_seconds(sim::Simulator& sim, obs::Timeline& tl,
                                  int seconds) {
  for (int t = 1; t <= seconds; ++t) {
    sim.schedule_at(t, [&sim, &tl] { tl.record(sim.now()); });
  }
  sim.run_until(seconds);
  return tl[0];
}

TEST(MonitorTest, CpuUtilProbeMeasuresBusyFraction) {
  sim::Simulator sim;
  NodeSpec spec;
  spec.context_switch_coeff = 0.0;
  Node node(sim, "c", spec, sim::Rng(1));
  Cpu& cpu = node.cpu();
  obs::Registry registry;
  obs::register_cpu_util(registry, node);
  obs::Timeline tl(registry, 4);
  // Busy exactly [0, 0.5] each period via repeated submissions.
  for (int t = 0; t < 4; ++t) {
    sim.schedule(t * 1.0, [&] { cpu.submit(0.5, [] {}); });
  }
  const obs::Series& s = record_seconds(sim, tl, 4);
  EXPECT_EQ(s.family, "cpu_util_pct");
  ASSERT_EQ(s.size(), 4u);
  for (double v : s.values) EXPECT_NEAR(v, 50.0, 1.0);
}

TEST(MonitorTest, GcUtilProbeIsolatesFreezeShare) {
  sim::Simulator sim;
  Cpu cpu(sim, "c", 1);
  obs::Registry registry;
  obs::register_gc_util(registry, "c", cpu);
  obs::Timeline tl(registry, 2);
  sim.schedule(0.2, [&] { cpu.freeze(0.3); });
  const obs::Series& s = record_seconds(sim, tl, 2);
  EXPECT_EQ(s.family, "gc_util_pct");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NEAR(s.values[0], 30.0, 1.0);
  EXPECT_NEAR(s.values[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace softres::hw

// core::Governor — the closed-loop soft-resource controller. Three layers:
//  * control-law unit tests driving a Governor directly over raw pools
//    (hysteresis: deadband, cooldown, bounded step, token bucket, CPU guard);
//  * load-shape unit tests (pure schedule generators);
//  * scenario acceptance tests on the full testbed: stationary convergence
//    to within one resize step of the static optimum, flash-crowd and
//    elastic-load goodput against static allocations at three seeds, JVM
//    thread-count sync, and bit-identical governed sweeps at jobs=1 vs
//    jobs=4.

#include "core/governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/run_context.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "sim/simulator.h"
#include "soft/pool.h"
#include "soft/pool_set.h"
#include "workload/load_shapes.h"

namespace softres {
namespace {

using core::Governor;
using core::GovernorAdvice;
using core::GovernorConfig;

/// Hysteresis relaxed so unit tests observe the target computation directly.
GovernorConfig relaxed_config() {
  GovernorConfig cfg;
  cfg.enabled = true;
  cfg.cooldown_s = 0.0;
  cfg.tokens_per_s = 1000.0;
  cfg.token_burst = 1000.0;
  return cfg;
}

/// Advance the simulator clock to `t` so the pool's time-weighted occupancy
/// integral (the governor's demand signal) moves in step with tick time.
void advance_to(sim::Simulator& sim, double t) {
  sim.schedule(t - sim.now(), [&sim] { (void)sim; });
  while (sim.step()) {
  }
}

TEST(GovernorTest, GrowsTowardSmoothedDemandInBoundedSteps) {
  sim::Simulator sim;
  soft::Pool pool(sim, "tomcat0.threads", 4);
  int granted = 0;
  for (int i = 0; i < 12; ++i) pool.acquire([&] { ++granted; });
  ASSERT_EQ(pool.in_use() + pool.waiting(), 12u);  // demand = 12

  soft::ResizablePoolSet set;
  set.add(pool, soft::PoolRole::kAppThreads);
  Governor gov(relaxed_config(), set);
  for (int t = 1; t <= 60; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 0.0, GovernorAdvice{});
  }
  // Target = ceil(1.3 * 12) = 16; the deadband may park one notch short.
  EXPECT_GE(pool.capacity(), 14u);
  EXPECT_LE(pool.capacity(), 16u);
  EXPECT_GE(gov.resizes_applied(), 2u);  // bounded steps, not one jump
  for (const auto& a : gov.actions()) {
    const std::size_t step =
        a.to > a.from ? a.to - a.from : a.from - a.to;
    EXPECT_LE(step, gov.max_step_from(std::max(a.from, a.to))) << a.pool;
  }
  // The grow admitted every waiter along the way.
  EXPECT_EQ(granted, 12);
}

TEST(GovernorTest, WebPoolsGetWebHeadroom) {
  sim::Simulator sim;
  soft::Pool pool(sim, "apache0.workers", 4);
  for (int i = 0; i < 10; ++i) pool.acquire([] {});
  soft::ResizablePoolSet set;
  set.add(pool, soft::PoolRole::kWebWorkers);
  Governor gov(relaxed_config(), set);
  for (int t = 1; t <= 60; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 0.0, GovernorAdvice{});
  }
  // Target = ceil(1.6 * 10) = 16, not the app-tier ceil(1.3 * 10) = 13.
  EXPECT_GE(pool.capacity(), 14u);
  EXPECT_LE(pool.capacity(), 16u);
}

TEST(GovernorTest, StationaryAllocationSitsInDeadband) {
  sim::Simulator sim;
  soft::Pool pool(sim, "tomcat0.threads", 16);
  for (int i = 0; i < 12; ++i) pool.acquire([] {});  // target = 16 = cap
  soft::ResizablePoolSet set;
  set.add(pool, soft::PoolRole::kAppThreads);
  Governor gov(relaxed_config(), set);
  for (int t = 1; t <= 30; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 0.0, GovernorAdvice{});
  }
  EXPECT_TRUE(gov.actions().empty());
  EXPECT_EQ(pool.capacity(), 16u);
}

TEST(GovernorTest, CooldownSpacesResizesPerPool) {
  sim::Simulator sim;
  soft::Pool pool(sim, "tomcat0.threads", 2);
  for (int i = 0; i < 40; ++i) pool.acquire([] {});
  soft::ResizablePoolSet set;
  set.add(pool, soft::PoolRole::kAppThreads);
  GovernorConfig cfg = relaxed_config();
  cfg.cooldown_s = 8.0;
  Governor gov(cfg, set);
  for (int t = 1; t <= 60; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 0.0, GovernorAdvice{});
  }
  const auto& actions = gov.actions();
  ASSERT_GE(actions.size(), 2u);
  for (std::size_t i = 1; i < actions.size(); ++i) {
    EXPECT_GE(actions[i].at - actions[i - 1].at, 8.0);
  }
}

TEST(GovernorTest, TokenBucketRateLimitsGlobally) {
  sim::Simulator sim;
  soft::Pool a(sim, "tomcat0.threads", 2);
  soft::Pool b(sim, "tomcat0.dbconns", 2);
  for (int i = 0; i < 40; ++i) a.acquire([] {});
  for (int i = 0; i < 40; ++i) b.acquire([] {});
  soft::ResizablePoolSet set;
  set.add(a, soft::PoolRole::kAppThreads);
  set.add(b, soft::PoolRole::kDbConnections);
  GovernorConfig cfg = relaxed_config();
  cfg.tokens_per_s = 0.0;  // no refill: the burst is all there is
  cfg.token_burst = 1.0;
  Governor gov(cfg, set);
  for (int t = 1; t <= 20; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 0.0, GovernorAdvice{});
  }
  EXPECT_EQ(gov.resizes_applied(), 1u);
  EXPECT_EQ(gov.actions().size(), 1u);
  EXPECT_GE(gov.resizes_rate_limited(), 1u);
}

TEST(GovernorTest, CpuGuardBlocksGrowthUnlessDiagnoserInsists) {
  sim::Simulator sim;
  soft::Pool pool(sim, "tomcat0.threads", 2);
  for (int i = 0; i < 40; ++i) pool.acquire([] {});
  soft::ResizablePoolSet set;
  set.add(pool, soft::PoolRole::kAppThreads);
  Governor gov(relaxed_config(), set);
  // Hottest backend CPU above the guard: more threads cannot help (§III-B).
  for (int t = 1; t <= 20; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 95.0, GovernorAdvice{});
  }
  EXPECT_TRUE(gov.actions().empty());
  // Explicit kGrow advice for this pool overrides the guard: the diagnoser
  // already concluded the pool, not the CPU, is the bottleneck.
  GovernorAdvice grow{GovernorAdvice::Kind::kGrow, "tomcat0.threads"};
  gov.tick(21.0, 95.0, grow);
  EXPECT_FALSE(gov.actions().empty());
  EXPECT_GT(pool.capacity(), 2u);
}

TEST(GovernorTest, ShrinksIdlePoolDownToFloor) {
  sim::Simulator sim;
  soft::Pool pool(sim, "tomcat0.threads", 64);
  for (int i = 0; i < 4; ++i) pool.acquire([] {});
  soft::ResizablePoolSet set;
  set.add(pool, soft::PoolRole::kAppThreads, /*floor=*/8);
  Governor gov(relaxed_config(), set);
  for (int t = 1; t <= 60; ++t) {
    advance_to(sim, static_cast<double>(t));
    gov.tick(static_cast<double>(t), 0.0, GovernorAdvice{});
  }
  // Demand target ceil(1.3 * 4) = 6 is below the floor; the floor wins.
  EXPECT_EQ(pool.capacity(), 8u);
  for (const auto& a : gov.actions()) EXPECT_GE(a.to, 8u);
}

TEST(GovernorTest, RespectsBounds) {
  // Demand of 200 on every pool: growth stops at min(max_pool, ceiling) —
  // the pool-local ceiling when it is lower, the global clamp otherwise —
  // and advised growth, which skips the other gates, stops there too.
  sim::Simulator sim;
  soft::Pool low(sim, "tomcat0.threads", 4);       // ceiling 24 < max_pool
  soft::Pool high(sim, "tomcat0.dbconns", 4);      // ceiling 100 > max_pool
  soft::Pool uncapped(sim, "apache0.workers", 4);  // no ceiling
  for (soft::Pool* p : {&low, &high, &uncapped}) {
    for (int i = 0; i < 200; ++i) p->acquire([] {});
  }
  soft::ResizablePoolSet set;
  set.add(low, soft::PoolRole::kAppThreads, /*floor=*/1, /*ceiling=*/24);
  set.add(high, soft::PoolRole::kDbConnections, /*floor=*/1, /*ceiling=*/100);
  set.add(uncapped, soft::PoolRole::kWebWorkers);
  GovernorConfig cfg = relaxed_config();
  cfg.max_pool = 40;
  Governor gov(cfg, set);
  for (int t = 1; t <= 60; ++t) {
    advance_to(sim, static_cast<double>(t));
    const GovernorAdvice advice =
        t % 10 == 0
            ? GovernorAdvice{GovernorAdvice::Kind::kGrow, "tomcat0.threads"}
            : GovernorAdvice{};
    gov.tick(static_cast<double>(t), 0.0, advice);
    EXPECT_LE(low.capacity(), 24u) << "t=" << t;
    EXPECT_LE(high.capacity(), 40u) << "t=" << t;
    EXPECT_LE(uncapped.capacity(), 40u) << "t=" << t;
  }
  // The bounds bind: every pool reached its own limit, not a lower one.
  EXPECT_EQ(low.capacity(), 24u);
  EXPECT_EQ(high.capacity(), 40u);
  EXPECT_EQ(uncapped.capacity(), 40u);
  for (const auto& a : gov.actions()) {
    EXPECT_LE(a.to, a.pool == "tomcat0.threads" ? 24u : 40u) << a.pool;
  }
}

// ---- Load shapes: pure schedule generators ----

TEST(LoadShapesTest, FlashCrowdPhases) {
  const auto phases = workload::flash_crowd_schedule(100, 800, 60.0, 30.0);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].start, 0.0);
  EXPECT_EQ(phases[0].active_users, 100u);
  EXPECT_EQ(phases[1].start, 60.0);
  EXPECT_EQ(phases[1].active_users, 800u);
  EXPECT_EQ(phases[2].start, 90.0);
  EXPECT_EQ(phases[2].active_users, 100u);
}

TEST(LoadShapesTest, DiurnalWaveBounds) {
  const auto phases = workload::diurnal_schedule(100, 900, 120.0, 240.0, 12);
  ASSERT_EQ(phases.size(), 24u);
  EXPECT_EQ(phases[0].active_users, 100u);  // trough at t = 0
  std::size_t peak = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_GE(phases[i].active_users, 100u);
    EXPECT_LE(phases[i].active_users, 900u);
    if (i > 0) {
      EXPECT_GT(phases[i].start, phases[i - 1].start);
    }
    peak = std::max(peak, phases[i].active_users);
  }
  EXPECT_EQ(peak, 900u);  // crest at half period
}

TEST(LoadShapesTest, TierSlowdownRecovers) {
  const auto phases = workload::tier_slowdown_schedule(30.0, 2.5, 90.0);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].scale, 1.0);
  EXPECT_EQ(phases[1].start, 30.0);
  EXPECT_EQ(phases[1].scale, 2.5);
  EXPECT_EQ(phases[2].start, 90.0);
  EXPECT_EQ(phases[2].scale, 1.0);
}

// ---- Scenario acceptance tests on the full testbed ----

namespace e = softres::exp;

e::TestbedConfig cheap_config() {
  e::TestbedConfig cfg = e::TestbedConfig::defaults();
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  return cfg;
}

e::ExperimentOptions cheap_options(double runtime_s = 60.0) {
  e::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = runtime_s;
  opts.client.ramp_down_s = 2.0;
  return opts;
}

// Acceptance: on stationary load, the governed trial's app-tier allocation
// settles within one resize step of the static optimum (Algorithm 1's knee:
// the smallest candidate whose goodput is within 1% of the best). The
// scenario is the Fig 4 under-allocation shape — 1/2/1/2, Apache and DB
// connections ample, Tomcat threads the binding soft resource — where
// goodput genuinely rises with the thread count until the app CPU
// saturates, so the knee is physical, not noise.
TEST(GovernorScenarioTest, StationaryConvergesNearStaticOptimum) {
  const e::TestbedConfig cfg = e::TestbedConfig::defaults();
  const std::size_t users = 6000;
  e::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 90.0;
  opts.client.ramp_down_s = 2.0;
  const e::Experiment exp(cfg, opts);

  std::vector<std::size_t> threads = {4, 6, 8, 12, 16, 24};
  std::vector<e::SoftConfig> candidates;
  for (std::size_t t : threads) {
    candidates.push_back(e::SoftConfig{400, t, 200});
  }
  const auto grid = e::sweep_grid(exp, candidates, {users});
  double best = 0.0;
  for (const auto& row : grid) best = std::max(best, row[0].goodput(2.0));
  ASSERT_GT(best, 0.0);
  std::size_t knee = threads.back();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (grid[i][0].goodput(2.0) >= 0.99 * best) {
      knee = threads[i];
      break;
    }
  }

  e::ExperimentOptions gov_opts = opts;
  gov_opts.governor.enabled = true;
  const e::Experiment governed(cfg, gov_opts);
  const e::RunResult r = governed.run(candidates.front(), users);
  const e::PoolStat* pool = r.find_pool("tomcat0.threads");
  ASSERT_NE(pool, nullptr);

  // "One resize step" from the larger of the two capacities, per the
  // governor's bounded-step rule: max(min_step, ceil(max_step_fraction*cap)).
  const GovernorConfig gc;  // default knobs, as the governed run used
  const std::size_t at = std::max(pool->capacity, knee);
  const std::size_t step = std::max(
      gc.min_step, static_cast<std::size_t>(std::ceil(
                       gc.max_step_fraction * static_cast<double>(at))));
  const std::size_t gap = pool->capacity > knee ? pool->capacity - knee
                                                : knee - pool->capacity;
  EXPECT_LE(gap, step) << "governed settled at " << pool->capacity
                       << ", static optimum (knee) " << knee;
  EXPECT_FALSE(r.governor_actions.empty());
}

// The seeds every scenario claim below is checked at: the default plus two
// held-out ones, so no claim rests on one favourable draw.
const std::vector<std::uint64_t> kClaimSeeds = {42, 7, 2718};

/// The schedule both claims below run at `seed`: 5 s ramp-up, a 150 s
/// measurement window under `load`, SLO 1 s.
e::ExperimentOptions claim_options(std::uint64_t seed,
                                   std::vector<workload::LoadPhase> load) {
  e::ExperimentOptions opts;
  opts.client.seed = seed;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 150.0;
  opts.client.ramp_down_s = 2.0;
  opts.sla_threshold_s = 1.0;
  opts.client.load_schedule = std::move(load);
  return opts;
}

struct Arm {
  e::Experiment exp;
  e::SoftConfig soft;
};

/// Run every arm at `users` as one flat executor batch, results in input
/// order: a claim checked at several seeds costs one batch, not one sweep
/// per seed.
std::vector<e::RunResult> run_arms(const std::vector<Arm>& arms,
                                   std::size_t users) {
  e::ParallelExecutor pool;
  return pool.run_indexed(arms.size(), [&arms, users](std::size_t i) {
    return arms[i].exp.run(arms[i].soft, users);
  });
}

// Acceptance: on the flash-crowd scenario (1/4/1/4, 2500 -> 7000 -> 2500
// users, SLO 1 s), the governed trial from the liberal 400-200-200 stays
// within 5 % of the best static candidate and beats its own static start by
// at least 1.5x, at every claim seed. Beating the best static outright holds
// at some seeds and not at others, so it is no claim. Same selection as
// exp::governed_sweep, which bench_governor checks at its own seed.
TEST(GovernorScenarioTest, FlashCrowdNearBestStaticAcrossSeeds) {
  e::TestbedConfig cfg = e::TestbedConfig::defaults();
  cfg.hw = e::HardwareConfig{1, 4, 1, 4};
  const std::vector<e::SoftConfig> candidates = {
      e::SoftConfig{400, 200, 200},  // liberal: pays §III-B GC at baseline
      e::SoftConfig{200, 100, 100},
      e::SoftConfig{150, 60, 60},
      e::SoftConfig{100, 30, 30},    // lean: starves during the crowd
  };
  std::vector<Arm> arms;  // per seed: every static candidate, then governed
  for (const std::uint64_t seed : kClaimSeeds) {
    e::ExperimentOptions opts = claim_options(
        seed, workload::flash_crowd_schedule(2500, 7000, 60.0, 50.0));
    for (const e::SoftConfig& soft : candidates) {
      arms.push_back({e::Experiment(cfg, opts), soft});
    }
    opts.governor.enabled = true;
    arms.push_back({e::Experiment(cfg, opts), candidates.front()});
  }
  const std::vector<e::RunResult> runs = run_arms(arms, 7000);

  const std::size_t per_seed = candidates.size() + 1;
  for (std::size_t k = 0; k < kClaimSeeds.size(); ++k) {
    SCOPED_TRACE("seed " + std::to_string(kClaimSeeds[k]));
    const e::RunResult* seed_runs = &runs[k * per_seed];
    double best_static = 0.0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      best_static = std::max(best_static, seed_runs[c].goodput(1.0));
    }
    const double start = seed_runs[0].goodput(1.0);
    const e::RunResult& governed = seed_runs[candidates.size()];
    EXPECT_GE(governed.goodput(1.0), 0.95 * best_static)
        << "governed " << governed.goodput(1.0) << " vs best static "
        << best_static;
    EXPECT_GE(governed.goodput(1.0), 1.5 * start)
        << "governed " << governed.goodput(1.0) << " vs static start "
        << start;
    EXPECT_FALSE(governed.governor_actions.empty());
  }
}

// Acceptance: on an elastic profile (1/4/1/4, 2500 -> 7000 -> 4000 users at
// 0/60/110 s, SLO 1 s), governing the over-allocated 400-200-200 lifts its
// goodput above 1.5x the same allocation held static, at every claim seed.
TEST(GovernorScenarioTest, ImprovesOverAllocatedElasticRun) {
  e::TestbedConfig cfg = e::TestbedConfig::defaults();
  cfg.hw = e::HardwareConfig{1, 4, 1, 4};
  const e::SoftConfig liberal{400, 200, 200};
  std::vector<Arm> arms;  // per seed: static, then governed
  for (const std::uint64_t seed : kClaimSeeds) {
    e::ExperimentOptions opts =
        claim_options(seed, {{0.0, 2500}, {60.0, 7000}, {110.0, 4000}});
    arms.push_back({e::Experiment(cfg, opts), liberal});
    opts.governor.enabled = true;
    arms.push_back({e::Experiment(cfg, opts), liberal});
  }
  const std::vector<e::RunResult> runs = run_arms(arms, 7000);

  for (std::size_t k = 0; k < kClaimSeeds.size(); ++k) {
    const double fixed = runs[2 * k].goodput(1.0);
    const double governed = runs[2 * k + 1].goodput(1.0);
    EXPECT_GT(governed, 1.5 * fixed)
        << "seed " << kClaimSeeds[k] << ": governed " << governed
        << " vs static " << fixed;
    EXPECT_FALSE(runs[2 * k + 1].governor_actions.empty());
  }
}

// The JVM cost model must feel governor over-growth: thread counts track
// live pool capacities through the ResizablePoolSet hooks.
TEST(GovernorScenarioTest, KeepsJvmThreadCountsInSync) {
  e::TestbedConfig cfg = cheap_config();
  cfg.soft = e::SoftConfig{50, 4, 4};  // starved start: the governor acts
  workload::ClientConfig client = cheap_options().client;
  client.users = 400;
  GovernorConfig gc;
  gc.enabled = true;
  e::RunContext ctx(client.seed, cfg, client.users, gc);
  client.seed = ctx.trial_seed();
  e::Testbed bed(ctx, cfg, client);
  bed.run();

  ASSERT_NE(bed.governor(), nullptr);
  EXPECT_FALSE(bed.governor()->actions().empty());
  for (const auto& t : bed.tomcats()) {
    EXPECT_EQ(t->jvm().live_threads(),
              t->thread_pool().capacity() + t->connection_pool().capacity());
  }
  std::size_t conns = 0;
  for (const auto& t : bed.tomcats()) conns += t->connection_pool().capacity();
  EXPECT_EQ(bed.cjdbcs()[0]->jvm().live_threads(), conns);
  // The capacity gauge reached the store: resizes are visible to the
  // diagnoser and the flight recorder (the pool_capacity lane).
  const obs::Series* cap =
      bed.timeline().find_series("pool_capacity", {{"pool", "tomcat0.threads"}});
  ASSERT_NE(cap, nullptr);
  EXPECT_EQ(cap->values.back(),
            static_cast<double>(bed.tomcats()[0]->thread_pool().capacity()));
}

// Acceptance: governed trials are part of the determinism contract —
// jobs=1 and jobs=4 sweeps must match bit for bit, resize log included.
TEST(GovernorScenarioTest, GovernedSweepBitIdenticalAcrossJobs) {
  const e::TestbedConfig cfg = cheap_config();
  e::ExperimentOptions opts = cheap_options(45.0);
  opts.client.load_schedule =
      workload::flash_crowd_schedule(200, 450, 15.0, 15.0);
  opts.governor.enabled = true;
  const e::Experiment exp(cfg, opts);
  const e::SoftConfig soft{50, 10, 10};
  const std::vector<std::size_t> workloads = {500, 600, 700};

  const auto serial = e::sweep_workload(exp, soft, workloads, /*jobs=*/1);
  const auto parallel = e::sweep_workload(exp, soft, workloads, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  bool any_resize = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("workload " + std::to_string(workloads[i]));
    const e::RunResult& a = serial[i];
    const e::RunResult& b = parallel[i];
    EXPECT_EQ(a.trial_seed, b.trial_seed);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.goodput(2.0), b.goodput(2.0));
    ASSERT_EQ(a.response_times.count(), b.response_times.count());
    EXPECT_EQ(a.response_times.mean(), b.response_times.mean());
    for (double q : {0.5, 0.9, 0.99}) {
      EXPECT_EQ(a.response_times.quantile(q), b.response_times.quantile(q));
    }
    ASSERT_EQ(a.pools.size(), b.pools.size());
    for (std::size_t p = 0; p < a.pools.size(); ++p) {
      EXPECT_EQ(a.pools[p].capacity, b.pools[p].capacity);
      EXPECT_EQ(a.pools[p].util_pct, b.pools[p].util_pct);
    }
    // The resize log is bit-identical: same times, pools and sizes.
    ASSERT_EQ(a.governor_actions.size(), b.governor_actions.size());
    for (std::size_t j = 0; j < a.governor_actions.size(); ++j) {
      EXPECT_EQ(a.governor_actions[j].at, b.governor_actions[j].at);
      EXPECT_EQ(a.governor_actions[j].pool, b.governor_actions[j].pool);
      EXPECT_EQ(a.governor_actions[j].from, b.governor_actions[j].from);
      EXPECT_EQ(a.governor_actions[j].to, b.governor_actions[j].to);
    }
    any_resize = any_resize || !a.governor_actions.empty();
    EXPECT_EQ(a.diagnosis.summary(), b.diagnosis.summary());
  }
  EXPECT_TRUE(any_resize);  // the contract was exercised, not vacuous
}

}  // namespace
}  // namespace softres

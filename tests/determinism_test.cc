// The PR-2 regression suite: parallel sweeps must be bit-identical to serial
// ones. Trial seeds are a pure function of trial identity (base seed,
// topology, soft allocation, users), so the same trial draws the same random
// stream no matter which thread runs it or in what order.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "exp/experiment.h"
#include "exp/run_context.h"
#include "exp/sweep.h"
#include "obs/profiler.h"
#include "support/prof.h"

namespace softres::exp {
namespace {

TestbedConfig cheap_config() {
  TestbedConfig cfg = TestbedConfig::defaults();
  // 10x demands so trials are cheap.
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  return cfg;
}

ExperimentOptions cheap_options() {
  ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 15.0;
  opts.client.ramp_down_s = 2.0;
  return opts;
}

// Every observable a figure script reads must match exactly — not "close".
void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.trial_seed, b.trial_seed);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.goodput(2.0), b.goodput(2.0));
  EXPECT_EQ(a.goodput(1.0), b.goodput(1.0));
  ASSERT_EQ(a.response_times.count(), b.response_times.count());
  EXPECT_EQ(a.response_times.mean(), b.response_times.mean());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    EXPECT_EQ(a.response_times.quantile(q), b.response_times.quantile(q));
  }
  ASSERT_EQ(a.cpus.size(), b.cpus.size());
  for (std::size_t i = 0; i < a.cpus.size(); ++i) {
    EXPECT_EQ(a.cpus[i].util_pct, b.cpus[i].util_pct);
  }
  ASSERT_EQ(a.pools.size(), b.pools.size());
  for (std::size_t i = 0; i < a.pools.size(); ++i) {
    EXPECT_EQ(a.pools[i].util_pct, b.pools[i].util_pct);
    EXPECT_EQ(a.pools[i].mean_wait_ms, b.pools[i].mean_wait_ms);
  }
  // The online diagnoser is part of the determinism contract too: verdict,
  // confidence, every evidence window and the suggested action must be
  // bit-identical, not merely equivalent.
  EXPECT_EQ(a.diagnosis.pathology, b.diagnosis.pathology);
  EXPECT_EQ(a.diagnosis.confidence, b.diagnosis.confidence);
  EXPECT_EQ(a.diagnosis.implicated_resources, b.diagnosis.implicated_resources);
  EXPECT_EQ(a.diagnosis.suggested_action.kind, b.diagnosis.suggested_action.kind);
  EXPECT_EQ(a.diagnosis.suggested_action.resource,
            b.diagnosis.suggested_action.resource);
  EXPECT_EQ(a.diagnosis.suggested_action.text, b.diagnosis.suggested_action.text);
  ASSERT_EQ(a.diagnosis.evidence.size(), b.diagnosis.evidence.size());
  for (std::size_t i = 0; i < a.diagnosis.evidence.size(); ++i) {
    const obs::EvidenceWindow& ea = a.diagnosis.evidence[i];
    const obs::EvidenceWindow& eb = b.diagnosis.evidence[i];
    EXPECT_EQ(ea.series, eb.series);
    EXPECT_EQ(ea.from, eb.from);
    EXPECT_EQ(ea.to, eb.to);
    EXPECT_EQ(ea.condition, eb.condition);
    EXPECT_EQ(ea.observed, eb.observed);
    EXPECT_EQ(ea.threshold, eb.threshold);
  }
  EXPECT_EQ(a.diagnosis.summary(), b.diagnosis.summary());
  // Tail evidence rides on the diagnosis (ISSUE 10) and inherits the same
  // contract: the citation string and every number behind it must match.
  EXPECT_EQ(a.diagnosis.tail.present, b.diagnosis.tail.present);
  EXPECT_EQ(a.diagnosis.tail.cohort, b.diagnosis.tail.cohort);
  EXPECT_EQ(a.diagnosis.tail.component, b.diagnosis.tail.component);
  EXPECT_EQ(a.diagnosis.tail.cohort_mean_ms, b.diagnosis.tail.cohort_mean_ms);
  EXPECT_EQ(a.diagnosis.tail.base_mean_ms, b.diagnosis.tail.base_mean_ms);
  EXPECT_EQ(a.diagnosis.tail.delta, b.diagnosis.tail.delta);
  EXPECT_EQ(a.diagnosis.tail.corroborates, b.diagnosis.tail.corroborates);
  EXPECT_EQ(a.diagnosis.tail.text, b.diagnosis.tail.text);
}

TEST(DeriveSeedTest, PureFunctionOfTrialIdentity) {
  const HardwareConfig hw{1, 2, 1, 2};
  const SoftConfig soft{100, 10, 20};
  const std::uint64_t s = RunContext::derive_seed(42, hw, soft, 3000);
  EXPECT_EQ(s, RunContext::derive_seed(42, hw, soft, 3000));
}

TEST(DeriveSeedTest, EveryComponentChangesTheSeed) {
  const HardwareConfig hw{1, 2, 1, 2};
  const SoftConfig soft{100, 10, 20};
  const std::uint64_t s = RunContext::derive_seed(42, hw, soft, 3000);

  EXPECT_NE(s, RunContext::derive_seed(43, hw, soft, 3000));
  EXPECT_NE(s, RunContext::derive_seed(42, hw, soft, 3001));

  HardwareConfig hw2 = hw;
  hw2.app = 4;
  EXPECT_NE(s, RunContext::derive_seed(42, hw2, soft, 3000));

  SoftConfig apache = soft;
  apache.apache_threads = 101;
  EXPECT_NE(s, RunContext::derive_seed(42, hw, apache, 3000));
  SoftConfig tomcat = soft;
  tomcat.tomcat_threads = 11;
  EXPECT_NE(s, RunContext::derive_seed(42, hw, tomcat, 3000));
  SoftConfig conns = soft;
  conns.db_connections = 21;
  EXPECT_NE(s, RunContext::derive_seed(42, hw, conns, 3000));
}

TEST(DeriveSeedTest, SweepPointsGetDistinctSeeds) {
  const HardwareConfig hw{1, 4, 1, 4};
  std::set<std::uint64_t> seeds;
  for (std::size_t users = 1000; users <= 8000; users += 500) {
    for (std::size_t threads : {30, 100, 400}) {
      seeds.insert(RunContext::derive_seed(
          7, hw, SoftConfig{threads, 6, 20}, users));
    }
  }
  EXPECT_EQ(seeds.size(), 15u * 3u);  // no collisions across the grid
}

TEST(DeterminismTest, ExperimentExposesTheTrialSeed) {
  Experiment e(cheap_config(), cheap_options());
  const SoftConfig soft{50, 10, 10};
  const RunResult r = e.run(soft, 200);
  EXPECT_EQ(r.trial_seed, e.trial_seed(soft, 200));
  EXPECT_NE(r.trial_seed, 0u);
}

// The acceptance criterion of this PR: a 6-point sweep with a 4-worker pool
// is bit-identical to the same sweep run strictly serially.
TEST(DeterminismTest, ParallelSweepMatchesSerialSweep) {
  Experiment e(cheap_config(), cheap_options());
  const SoftConfig soft{50, 10, 10};
  const auto workloads = workload_range(100, 600, 100);
  ASSERT_EQ(workloads.size(), 6u);

  const auto serial = sweep_workload(e, soft, workloads, /*jobs=*/1);
  const auto parallel = sweep_workload(e, soft, workloads, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("workload " + std::to_string(workloads[i]));
    expect_bit_identical(serial[i], parallel[i]);
  }
}

// A trial run alone equals the same trial run inside a sweep: results do not
// depend on which other trials share the Experiment or the pool.
TEST(DeterminismTest, SingleRunMatchesSweepMember) {
  Experiment e(cheap_config(), cheap_options());
  const SoftConfig soft{50, 10, 10};
  const auto sweep = sweep_workload(e, soft, {100, 200, 300}, /*jobs=*/3);
  const RunResult alone = e.run(soft, 200);
  expect_bit_identical(alone, sweep[1]);
}

// The profiler's counts are part of the determinism contract: the same
// trial reaches the same count sites the same number of times in the same
// phases no matter which worker thread runs it.
TEST(DeterminismTest, ProfileCountAxisIsBitIdenticalAcrossJobs) {
  ExperimentOptions opts = cheap_options();
  opts.profile = true;
  Experiment e(cheap_config(), opts);
  const SoftConfig soft{50, 10, 10};
  const auto workloads = workload_range(100, 400, 100);  // 4 trials

  const auto serial = sweep_workload(e, soft, workloads, /*jobs=*/1);
  const auto parallel = sweep_workload(e, soft, workloads, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("workload " + std::to_string(workloads[i]));
    const obs::ProfileSnapshot& a = serial[i].profile;
    const obs::ProfileSnapshot& b = parallel[i].profile;
    ASSERT_TRUE(a.enabled);
    ASSERT_TRUE(b.enabled);
    EXPECT_GT(a.total_counts(), 0u);
    for (std::size_t p = 0; p < prof::kPhases; ++p) {
      for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
        EXPECT_EQ(a.counts[p][s], b.counts[p][s])
            << prof::phase_name(static_cast<prof::Phase>(p)) << "/"
            << prof::subsystem_name(static_cast<prof::Subsystem>(s));
      }
    }
  }
}

// --- Multi-tenant determinism (ISSUE 9) -----------------------------------

ExperimentOptions tenant_options() {
  ExperimentOptions opts = cheap_options();
  workload::TenantSpec a;
  a.name = "a";
  a.users = 120;
  workload::TenantSpec b;
  b.name = "b";
  b.users = 80;
  opts.client.tenants = {a, b};
  opts.partition.strategy = soft::ShareStrategy::kKarmaCredits;
  return opts;
}

void expect_tenants_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    SCOPED_TRACE("tenant " + a.tenants[t].name);
    EXPECT_EQ(a.tenants[t].name, b.tenants[t].name);
    EXPECT_EQ(a.tenants[t].users, b.tenants[t].users);
    EXPECT_EQ(a.tenants[t].throughput, b.tenants[t].throughput);
    EXPECT_EQ(a.tenants[t].goodput, b.tenants[t].goodput);
    EXPECT_EQ(a.tenants[t].badput, b.tenants[t].badput);
    EXPECT_EQ(a.tenants[t].mean_rt_s, b.tenants[t].mean_rt_s);
  }
}

// Per-tenant series, SLA splits and the (Karma-partitioned) diagnosis are
// part of the same contract as everything else: bit-identical jobs=1 vs 4.
TEST(DeterminismTest, MultiTenantSweepMatchesSerialSweep) {
  Experiment e(cheap_config(), tenant_options());
  const SoftConfig soft{50, 10, 10};
  const std::vector<std::size_t> workloads = {200, 300, 400};

  const auto serial = sweep_workload(e, soft, workloads, /*jobs=*/1);
  const auto parallel = sweep_workload(e, soft, workloads, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("workload " + std::to_string(workloads[i]));
    expect_bit_identical(serial[i], parallel[i]);
    expect_tenants_identical(serial[i], parallel[i]);
    ASSERT_FALSE(serial[i].tenants.empty());
  }
}

// Seed derivation includes the tenant index, not the global slot index: a
// tenant that never activates a user (empty load phase) must leave every
// other tenant's request sequence — and therefore its SLA numbers —
// untouched. Both runs pass the same `users` argument, which in
// multi-tenant mode only feeds the trial-seed derivation (the farm sums the
// tenant populations itself).
TEST(DeterminismTest, IdleTenantDoesNotPerturbOtherTenants) {
  const SoftConfig soft{50, 10, 10};
  const std::size_t seed_users = 200;

  Experiment without(cheap_config(), tenant_options());
  const RunResult a = without.run(soft, seed_users);

  ExperimentOptions opts = tenant_options();
  workload::TenantSpec idle;
  idle.name = "idle";
  idle.users = 40;
  idle.load_schedule = {{0.0, 0}};  // declared but never activates a user
  opts.client.tenants.push_back(idle);
  Experiment with(cheap_config(), opts);
  const RunResult b = with.run(soft, seed_users);

  EXPECT_EQ(a.trial_seed, b.trial_seed);
  EXPECT_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.response_times.count(), b.response_times.count());
  EXPECT_EQ(a.response_times.mean(), b.response_times.mean());
  ASSERT_EQ(a.tenants.size(), 2u);
  ASSERT_EQ(b.tenants.size(), 3u);
  for (std::size_t t = 0; t < 2; ++t) {
    SCOPED_TRACE("tenant " + a.tenants[t].name);
    EXPECT_EQ(a.tenants[t].name, b.tenants[t].name);
    EXPECT_EQ(a.tenants[t].throughput, b.tenants[t].throughput);
    EXPECT_EQ(a.tenants[t].goodput, b.tenants[t].goodput);
    EXPECT_EQ(a.tenants[t].badput, b.tenants[t].badput);
    EXPECT_EQ(a.tenants[t].mean_rt_s, b.tenants[t].mean_rt_s);
  }
  // The idle tenant itself reports zero traffic.
  EXPECT_EQ(b.tenants[2].throughput, 0.0);
}

// --- Tail attribution determinism (ISSUE 10) ------------------------------

ExperimentOptions traced_options(double rate) {
  ExperimentOptions opts = cheap_options();
  opts.set_trace_sample_rate(rate);
  return opts;
}

// Exact double equality throughout: cohort means and blame vectors are pure
// functions of the deterministic traces, so "close" would hide a bug.
void expect_tail_identical(const obs::TailAttribution& a,
                           const obs::TailAttribution& b) {
  ASSERT_EQ(a.axis.size(), b.axis.size());
  for (std::size_t i = 0; i < a.axis.size(); ++i) {
    EXPECT_EQ(a.axis[i].label(), b.axis[i].label());
  }
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.p50_s, b.p50_s);
  EXPECT_EQ(a.p95_s, b.p95_s);
  EXPECT_EQ(a.p99_s, b.p99_s);
  EXPECT_EQ(a.slo_threshold_s, b.slo_threshold_s);
  ASSERT_EQ(a.cohorts.size(), b.cohorts.size());
  for (std::size_t c = 0; c < a.cohorts.size(); ++c) {
    SCOPED_TRACE("cohort " + a.cohorts[c].name);
    EXPECT_EQ(a.cohorts[c].name, b.cohorts[c].name);
    EXPECT_EQ(a.cohorts[c].requests, b.cohorts[c].requests);
    EXPECT_EQ(a.cohorts[c].mean_rt_s, b.cohorts[c].mean_rt_s);
    EXPECT_EQ(a.cohorts[c].blame_s, b.cohorts[c].blame_s);
    EXPECT_EQ(a.cohorts[c].exemplars, b.cohorts[c].exemplars);
    EXPECT_EQ(a.cohorts[c].slo_misses, b.cohorts[c].slo_misses);
    EXPECT_EQ(a.cohorts[c].slo_miss_share, b.cohorts[c].slo_miss_share);
  }
}

// Tail attribution and its exemplar selection are pure functions of the
// traces, which are pure functions of the trial seed — so a parallel traced
// sweep must reproduce the serial one bit for bit, exemplar ids included.
TEST(DeterminismTest, TailAttributionMatchesAcrossJobs) {
  Experiment e(cheap_config(), traced_options(1.0));
  const SoftConfig soft{50, 10, 10};
  const auto workloads = workload_range(100, 400, 100);

  const auto serial = sweep_workload(e, soft, workloads, /*jobs=*/1);
  const auto parallel = sweep_workload(e, soft, workloads, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  bool attributed = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("workload " + std::to_string(workloads[i]));
    expect_bit_identical(serial[i], parallel[i]);
    expect_tail_identical(serial[i].tail, parallel[i].tail);
    if (!serial[i].tail.empty()) {
      attributed = true;
      const auto* p99 = serial[i].tail.find_cohort("p99+");
      ASSERT_NE(p99, nullptr);
      EXPECT_FALSE(p99->exemplars.empty());
    }
  }
  EXPECT_TRUE(attributed);  // the sweep must actually exercise the tail path
}

// Sub-unity SOFTRES_TRACE_RATE keeps the contract: the sampling decision is
// drawn from the trial's own seeded stream, so two fresh experiments at the
// same rate trace the same requests and attribute the same tail — and
// sampling must not perturb the non-trace observables at all.
TEST(DeterminismTest, TailAttributionStableUnderTraceRate) {
  const SoftConfig soft{50, 10, 10};
  Experiment a(cheap_config(), traced_options(0.25));
  Experiment b(cheap_config(), traced_options(0.25));
  const RunResult ra = a.run(soft, 300);
  const RunResult rb = b.run(soft, 300);

  Experiment untraced(cheap_config(), cheap_options());
  const RunResult ru = untraced.run(soft, 300);
  EXPECT_TRUE(ru.tail.empty());
  EXPECT_FALSE(ru.diagnosis.tail.present);
  EXPECT_EQ(ra.throughput, ru.throughput);
  // Compare the raw sample sequences before any quantile() call: SampleSet
  // sorts lazily in place, so this is the strongest (order-sensitive) form.
  EXPECT_EQ(ra.response_times.raw(), ru.response_times.raw());

  expect_bit_identical(ra, rb);
  expect_tail_identical(ra.tail, rb.tail);
  ASSERT_FALSE(ra.tail.empty());
  EXPECT_LT(ra.tail.requests, ra.response_times.count());  // sampled, not all
}

TEST(DeterminismTest, GridSweepMatchesPointwiseRuns) {
  Experiment e(cheap_config(), cheap_options());
  const std::vector<SoftConfig> softs = {SoftConfig{50, 10, 10},
                                         SoftConfig{20, 5, 5}};
  const std::vector<std::size_t> workloads = {150, 250};
  const auto grid = sweep_grid(e, softs, workloads, /*jobs=*/4);
  ASSERT_EQ(grid.size(), 2u);
  for (std::size_t s = 0; s < softs.size(); ++s) {
    ASSERT_EQ(grid[s].size(), 2u);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      SCOPED_TRACE("soft " + std::to_string(s) + " workload " +
                   std::to_string(workloads[i]));
      expect_bit_identical(e.run(softs[s], workloads[i]), grid[s][i]);
    }
  }
}

}  // namespace
}  // namespace softres::exp

// Tests for the self-profiler (DESIGN.md §11): the prof::Ledger count core
// and the obs::ProfileSnapshot renderers. The two load-bearing guarantees:
//  * zero perturbation — a profiled trial replays the identical event
//    sequence and produces bit-identical results (the ctest analogue of the
//    bench gate; tracing holds the same line in trace_test.cc);
//  * a sound count ledger — deterministic per-phase, per-subsystem counters
//    that tie out against the simulator's own event accounting.

#include <gtest/gtest.h>

#include <string>

#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/testbed.h"
#include "obs/profiler.h"
#include "support/prof.h"

namespace softres {
namespace {

exp::TestbedConfig cheap_config() {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  // 10x demands so trials are cheap (same scaling as determinism_test).
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  return cfg;
}

exp::ExperimentOptions cheap_options() {
  exp::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 15.0;
  opts.client.ramp_down_s = 2.0;
  return opts;
}

/// One profiled standalone trial (the Testbed-level path tests use).
obs::ProfileSnapshot profiled_trial(std::uint64_t* events_executed = nullptr) {
  prof::Ledger ledger;
  {
    const prof::InstallGuard guard(&ledger);
    SOFTRES_PROF_PHASE(kSetup);
    exp::TestbedConfig cfg = cheap_config();
    workload::ClientConfig client;
    client.users = 300;
    client.ramp_up_s = 5.0;
    client.runtime_s = 15.0;
    client.ramp_down_s = 2.0;
    exp::Testbed bed(cfg, client);
    bed.run();
    if (events_executed != nullptr) {
      *events_executed = bed.simulator().events_executed();
    }
  }
  return obs::ProfileSnapshot::of(ledger);
}

TEST(ProfilerTest, OffByDefaultAndZeroPerturbation) {
  const exp::SoftConfig soft{50, 10, 10};
  const exp::Experiment plain_e(cheap_config(), cheap_options());
  const exp::RunResult plain = plain_e.run(soft, 200);
  EXPECT_FALSE(plain.profile.enabled);

  exp::ExperimentOptions opts = cheap_options();
  opts.profile = true;
  const exp::Experiment prof_e(cheap_config(), opts);
  const exp::RunResult profiled = prof_e.run(soft, 200);
  ASSERT_TRUE(profiled.profile.enabled);
  EXPECT_GT(profiled.profile.total_counts(), 0u);

  // The instrumented run replays the identical simulation: every observable
  // a figure script reads is bit-identical, not merely close.
  EXPECT_EQ(plain.trial_seed, profiled.trial_seed);
  EXPECT_EQ(plain.throughput, profiled.throughput);
  ASSERT_EQ(plain.response_times.count(), profiled.response_times.count());
  EXPECT_EQ(plain.response_times.mean(), profiled.response_times.mean());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(plain.response_times.quantile(q),
              profiled.response_times.quantile(q));
  }
  ASSERT_EQ(plain.cpus.size(), profiled.cpus.size());
  for (std::size_t i = 0; i < plain.cpus.size(); ++i) {
    EXPECT_EQ(plain.cpus[i].util_pct, profiled.cpus[i].util_pct);
  }
  EXPECT_EQ(plain.diagnosis.pathology, profiled.diagnosis.pathology);
}

TEST(ProfilerTest, DispatchCountTiesOutAgainstSimulator) {
  std::uint64_t events = 0;
  const obs::ProfileSnapshot snap = profiled_trial(&events);
  ASSERT_TRUE(snap.enabled);
  ASSERT_GT(events, 0u);

  // Every dispatched event counts exactly once at kDispatch.
  EXPECT_EQ(snap.total_counts(prof::Subsystem::kDispatch), events);
  // Every dispatch popped its event from the queue first, and pushes must
  // cover everything that was ever popped.
  EXPECT_GE(snap.total_counts(prof::Subsystem::kEventQueuePop), events);
  EXPECT_GE(snap.total_counts(prof::Subsystem::kEventQueuePush),
            snap.total_counts(prof::Subsystem::kEventQueuePop));

  // A loaded trial exercises every attributed subsystem.
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    const auto sub = static_cast<prof::Subsystem>(s);
    EXPECT_GT(snap.total_counts(sub), 0u) << prof::subsystem_name(sub);
  }
  // The phase marker advanced through the whole schedule: steady-state work
  // landed in the measurement window, setup work before the ramp.
  EXPECT_GT(snap.total_counts(prof::Phase::kMeasure), 0u);
  EXPECT_GT(snap.total_counts(prof::Phase::kRampUp), 0u);
}

TEST(ProfilerTest, SnapshotMergeAccumulatesCounts) {
  const obs::ProfileSnapshot one = profiled_trial();
  obs::ProfileSnapshot two = one;
  two.merge(one);
  EXPECT_EQ(two.total_counts(), 2 * one.total_counts());
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
      EXPECT_EQ(two.counts[p][s], 2 * one.counts[p][s]);
    }
  }
  // Merging a disabled snapshot is a no-op.
  obs::ProfileSnapshot three = one;
  three.merge(obs::ProfileSnapshot{});
  EXPECT_EQ(three.total_counts(), one.total_counts());
}

TEST(ProfilerTest, RenderersEmitNothingWhenDisabled) {
  const obs::ProfileSnapshot off;
  EXPECT_TRUE(obs::render_profile_table(off).empty());
  EXPECT_TRUE(obs::one_line_profile_summary(off).empty());
}

TEST(ProfilerTest, TableAndSummaryCarryTheCounts) {
  const obs::ProfileSnapshot snap = profiled_trial();

  const std::string table = obs::render_profile_table(snap);
  EXPECT_NE(table.find("subsystem"), std::string::npos);
  EXPECT_NE(table.find("dispatch"), std::string::npos);
  EXPECT_NE(table.find("event_queue_push"), std::string::npos);
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    EXPECT_NE(table.find(prof::phase_name(static_cast<prof::Phase>(p))),
              std::string::npos);
  }
  EXPECT_NE(table.find(std::to_string(snap.total_counts())),
            std::string::npos);
  EXPECT_NE(table.find("100.0%"), std::string::npos);

  const std::string line = obs::one_line_profile_summary(snap);
  EXPECT_EQ(line.rfind("profile: " + std::to_string(snap.total_counts()), 0),
            0u)
      << line;
  // The per-event trio only restates the event count, which the line gives
  // as the dispatch count; the named subsystems lead with the busiest other.
  const std::uint64_t events = snap.total_counts(prof::Subsystem::kDispatch);
  EXPECT_NE(line.find(std::to_string(events) + " events"), std::string::npos)
      << line;
  for (const char* per_event : {"event_queue_push", "event_queue_pop",
                                "dispatch"}) {
    EXPECT_EQ(line.find(per_event), std::string::npos) << line;
  }
  prof::Subsystem busiest = prof::Subsystem::kCount;
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    const auto sub = static_cast<prof::Subsystem>(s);
    if (sub == prof::Subsystem::kEventQueuePush ||
        sub == prof::Subsystem::kEventQueuePop ||
        sub == prof::Subsystem::kDispatch) {
      continue;
    }
    if (busiest == prof::Subsystem::kCount ||
        snap.total_counts(sub) > snap.total_counts(busiest)) {
      busiest = sub;
    }
  }
  ASSERT_GT(snap.total_counts(busiest), 0u);
  EXPECT_NE(line.find(std::string("; ") + prof::subsystem_name(busiest)),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find("cycles"), std::string::npos) << line;
  EXPECT_EQ(line.find("overhead"), std::string::npos) << line;
}

TEST(ProfilerTest, CountsLandInTheInstalledLedgerAndPhase) {
  const auto at = [](const prof::Ledger& l, prof::Phase p, prof::Subsystem s) {
    return l.counts[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
  };
  prof::Ledger ledger;
  {
    const prof::InstallGuard guard(&ledger);
    SOFTRES_PROF_PHASE(kSetup);
    SOFTRES_PROF_COUNT(kDispatch);
    for (int i = 0; i < 3; ++i) SOFTRES_PROF_COUNT(kDistSample);
    prof::count(prof::Subsystem::kCount);  // untagged: counts nothing
    SOFTRES_PROF_PHASE(kMeasure);
    SOFTRES_PROF_COUNT(kDispatch);
    SOFTRES_PROF_COUNT(kDispatch);
  }
  EXPECT_EQ(at(ledger, prof::Phase::kSetup, prof::Subsystem::kDispatch), 1u);
  EXPECT_EQ(at(ledger, prof::Phase::kSetup, prof::Subsystem::kDistSample),
            3u);
  EXPECT_EQ(at(ledger, prof::Phase::kMeasure, prof::Subsystem::kDispatch),
            2u);
  EXPECT_EQ(at(ledger, prof::Phase::kMeasure, prof::Subsystem::kDistSample),
            0u);
  EXPECT_EQ(obs::ProfileSnapshot::of(ledger).total_counts(), 6u);

  // Uninstalled: nothing is counted, yet the thread's phase marker still
  // advances — the bench allocation ledger attributes by it.
  EXPECT_EQ(prof::t_ledger, nullptr);
  SOFTRES_PROF_PHASE(kRampDown);
  EXPECT_EQ(prof::t_phase, prof::Phase::kRampDown);
  SOFTRES_PROF_COUNT(kDispatch);
  EXPECT_EQ(obs::ProfileSnapshot::of(ledger).total_counts(), 6u);
  EXPECT_EQ(ledger.phase, prof::Phase::kMeasure);
  SOFTRES_PROF_PHASE(kSetup);
}

}  // namespace
}  // namespace softres

// Tests for the online pathology diagnoser stack: the time-series store's
// columns and window statistics, the per-pathology detector rules driven by a
// synthetic registry, the Registry::reset_values() between-trials regression,
// and the golden list of probe families every trial records.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/run_context.h"
#include "exp/testbed.h"
#include "obs/diagnoser.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "sim/rng.h"

namespace softres::obs {
namespace {

// ---------------------------------------------------------------------------
// Window statistics of the store

/// A one-gauge store recorded at t = 0..n-1 with values v(t).
struct OneSeries {
  template <typename Fn>
  OneSeries(int n, Fn v) : gauge(registry.gauge("x")), tl(registry, 16) {
    for (int t = 0; t < n; ++t) {
      gauge.set(v(t));
      tl.record(t);
    }
  }
  Registry registry;
  Gauge gauge;
  Timeline tl;
};

TEST(SeriesWindowTest, RollingStatisticsOverTrailingWindow) {
  const OneSeries one(6, [](int t) { return 2.0 * t; });  // 0 2 4 6 8 10
  // A 2 s trailing window from t=5 holds the samples at t=3,4,5.
  EXPECT_DOUBLE_EQ(one.tl.trailing_mean(0, 2.0), 8.0);
  // A window wider than the data covers every sample.
  EXPECT_DOUBLE_EQ(one.tl.trailing_mean(0, 100.0), 5.0);
  // [lo, hi) windows: t=1,2 only.
  EXPECT_DOUBLE_EQ(one.tl.mean_between(one.tl[0], 1.0, 3.0), 3.0);
}

TEST(SeriesWindowTest, StatisticsDegradeGracefullyOnShortSeries) {
  // Fewer samples than a window asks for must read as the mean of what is
  // there, and nothing recorded as 0 — detectors read windows that are
  // still filling.
  const OneSeries empty(0, [](int) { return 1.0; });
  EXPECT_DOUBLE_EQ(empty.tl.trailing_mean(0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.tl.mean_between(empty.tl[0], 0.0, 10.0), 0.0);
  EXPECT_TRUE(empty.tl.window(empty.tl[0], 0.0, 10.0).empty());
  const OneSeries one(1, [](int) { return 5.0; });
  EXPECT_DOUBLE_EQ(one.tl.trailing_mean(0, 10.0), 5.0);
  // A window that misses every sample is empty, not an extrapolation.
  EXPECT_DOUBLE_EQ(one.tl.mean_between(one.tl[0], 3.0, 9.0), 0.0);
}

// ---------------------------------------------------------------------------
// Timeline

TEST(TimelineTest, TracksFamiliesAndPolledSeries) {
  Registry r;
  Gauge t0 = r.gauge("pool_util_pct", {{"pool", "tomcat0.threads"}});
  Gauge a0 = r.gauge("pool_util_pct", {{"pool", "apache0.workers"}});
  r.gauge_fn("poll", [](sim::SimTime now) { return 2.0 * now; });
  Timeline tl(r, 8);
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl[0].family, "pool_util_pct");
  EXPECT_EQ(tl[0].name, "pool_util_pct{pool=\"tomcat0.threads\"}");
  EXPECT_EQ(tl[2].name, "poll");

  t0.set(80.0);
  a0.set(40.0);
  tl.record(1.0);
  t0.set(90.0);
  tl.record(2.0);
  EXPECT_EQ(tl.ticks(), 2u);
  EXPECT_DOUBLE_EQ(tl.times().back(), 2.0);

  const Series* w =
      tl.find_series("pool_util_pct", {{"pool", "tomcat0.threads"}});
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->values, (std::vector<double>{80.0, 90.0}));
  EXPECT_EQ(tl.find_series("pool_util_pct", {{"pool", "apache0.workers"}}),
            &tl[1]);
  EXPECT_EQ(tl.find_series("poll")->values, (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(tl.find_series("pool_util_pct", {{"pool", "nope"}}), nullptr);
}

TEST(TimelineTest, UnknownSeriesReadsZero) {
  EXPECT_DOUBLE_EQ(Reader().read(1.0), 0.0);  // a handle on no series
  Registry r;
  Timeline tl(r, 1);
  tl.record(1.0);
  // SOFTRES_LINT_ALLOW(SR013: this test exercises the unknown-series path)
  EXPECT_EQ(tl.find_series("does_not_exist"), nullptr);
}

// The store keeps the whole trial — all 1,230 ticks of the paper-length
// schedule — in the columns reserved up front, with no regrowth.
TEST(TimelineTest, KeepsWholeTrialInReservedColumns) {
  Registry r;
  Gauge g = r.gauge("x");
  Timeline tl(r, 1230);  // the paper-length schedule: 480 + 720 + 30 s
  const double* column = tl[0].values.data();
  const sim::SimTime* times = tl.times().data();
  for (int t = 1; t <= 1230; ++t) {
    g.set(t);
    tl.record(t);
  }
  ASSERT_EQ(tl.ticks(), 1230u);
  EXPECT_EQ(tl[0].values.data(), column);
  EXPECT_EQ(tl.times().data(), times);
  EXPECT_DOUBLE_EQ(tl.times().front(), 1.0);
  EXPECT_DOUBLE_EQ(tl[0].values.front(), 1.0);
  EXPECT_DOUBLE_EQ(tl.mean_between(tl[0], 1.0, 1231.0), 615.5);
}

// Oracle: the columns answer mean_between and the diagnoser's trailing mean
// bit for bit like naive per-series (time, value) vectors summed in the same
// order — oldest first over [lo, hi), newest first over the trailing window.
TEST(TimelineTest, MeansMatchNaivePerSeriesVectors) {
  sim::Rng rng(2718);
  Registry r;
  std::vector<Gauge> gauges;
  for (int k = 0; k < 5; ++k) {
    gauges.push_back(r.gauge("g", {{"k", std::to_string(k)}}));
  }
  Timeline tl(r, 200);
  std::vector<sim::SimTime> times;
  std::vector<std::vector<double>> naive(gauges.size());
  for (int t = 1; t <= 200; ++t) {
    for (std::size_t k = 0; k < gauges.size(); ++k) {
      const double v = rng.uniform(0.0, 100.0);
      gauges[k].set(v);
      naive[k].push_back(v);
    }
    times.push_back(t);
    tl.record(t);
    for (std::size_t k = 0; k < gauges.size(); ++k) {
      const double w = rng.uniform(1.0, 21.0);
      double sum = 0.0;
      std::size_t n = 0;
      for (std::size_t i = times.size(); i-- > 0 && times[i] >= t - w;) {
        sum += naive[k][i];
        ++n;
      }
      ASSERT_EQ(tl.trailing_mean(k, w), sum / static_cast<double>(n));
    }
  }
  for (int q = 0; q < 500; ++q) {
    const std::size_t k = static_cast<std::size_t>(q) % gauges.size();
    const double lo = rng.uniform(-5.0, 205.0);
    const double hi = rng.uniform(lo, lo + 80.0);
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] >= lo && times[i] < hi) {
        sum += naive[k][i];
        ++n;
      }
    }
    ASSERT_EQ(tl.mean_between(tl[k], lo, hi),
              n ? sum / static_cast<double>(n) : 0.0);
  }
}

// The double-poll regression: rate-style pull sources differentiate against
// their previous call, so a second reader at the same instant (the
// end-of-trial snapshot taken at the last tick) would see dt = 0. The
// registry memoizes one evaluation per timestamp.
TEST(TimelineTest, PullSourceEvaluatedOncePerTimestamp) {
  Registry r;
  int calls = 0;
  r.gauge_fn("poll", [&calls](sim::SimTime now) {
    ++calls;
    return 2.0 * now;
  });
  const Reader reader = r.series().front();
  ASSERT_TRUE(reader.valid());
  EXPECT_DOUBLE_EQ(reader.read(1.0), 2.0);
  EXPECT_DOUBLE_EQ(reader.read(1.0), 2.0);  // same instant: memoized
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(reader.read(2.0), 4.0);  // new instant: re-evaluated
  EXPECT_EQ(calls, 2);
  // reset_values() (between trials) drops the memo with the values.
  r.reset_values();
  EXPECT_DOUBLE_EQ(reader.read(2.0), 4.0);
  EXPECT_EQ(calls, 3);
  // A store tick and a snapshot at the same instant share one evaluation.
  Timeline tl(r, 1);
  tl.record(3.0);
  EXPECT_DOUBLE_EQ(r.snapshot(3.0).find("poll")->value, 6.0);
  EXPECT_EQ(calls, 4);
}

// A run of above-threshold samples must not survive
// Registry::reset_values(): once the trial boundary zeroes the gauge, the
// next tick records 0, so no above-threshold credit leaks from trial 1 into
// trial 2's windows.
TEST(TimelineTest, HeldForRunBreaksAcrossRegistryReset) {
  Registry r;
  Gauge util = r.gauge("pool_util_pct", {{"pool", "tomcat0.threads"}});
  Timeline tl(r, 8);

  util.set(90.0);
  tl.record(1.0);
  tl.record(2.0);
  tl.record(3.0);
  r.reset_values();  // the trial boundary: gauge now reads 0
  tl.record(4.0);
  util.set(90.0);
  tl.record(5.0);
  tl.record(6.0);
  EXPECT_EQ(tl[0].values,
            (std::vector<double>{90.0, 90.0, 90.0, 0.0, 90.0, 90.0}));
  // The trailing window after the reset averages the reset sample in and
  // none of the pre-reset run.
  EXPECT_DOUBLE_EQ(tl.trailing_mean(0, 2.0), 60.0);
}

// ---------------------------------------------------------------------------
// Registry reset between back-to-back trials (the histogram-leak regression)

TEST(RegistryResetTest, SecondTrialStartsFromZeroedValues) {
  Registry r;
  Counter done = r.counter("client_requests_total");
  Gauge depth = r.gauge("queue_depth");
  Histogram rt = r.histogram("client_response_time_seconds", {0.5, 1.0});

  // Trial 1.
  done.inc(7.0);
  depth.set(3.0);
  rt.observe(0.3);
  rt.observe(0.7);
  rt.observe(5.0);
  ASSERT_EQ(rt.count(), 3u);
  ASSERT_DOUBLE_EQ(rt.sum(), 6.0);

  // What Testbed::build does when re-wiring onto a reused RunContext.
  r.reset_values();
  EXPECT_DOUBLE_EQ(done.value(), 0.0);
  EXPECT_DOUBLE_EQ(depth.value(), 0.0);
  EXPECT_EQ(rt.count(), 0u);
  EXPECT_DOUBLE_EQ(rt.sum(), 0.0);

  // Trial 2: the old handles stay wired and the second trial's numbers are
  // its own, not trial 1's plus its own.
  done.inc(2.0);
  rt.observe(0.4);
  const Snapshot snap = r.snapshot(0.0);
  const MetricSample* h = snap.find("client_response_time_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 0.4);
  ASSERT_EQ(h->bucket_counts.size(), 3u);
  EXPECT_EQ(h->bucket_counts[0], 1u);  // 0.4 <= 0.5 (per-bucket storage)
  EXPECT_EQ(h->bucket_counts[1], 0u);
  EXPECT_EQ(h->bucket_counts[2], 0u);
  const MetricSample* c = snap.find("client_requests_total");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 2.0);
}

TEST(RegistryResetTest, RunContextResetMetricsClearsItsRegistry) {
  exp::RunContext ctx(1, exp::TestbedConfig::defaults(), 100);
  Histogram rt =
      ctx.registry().histogram("client_response_time_seconds", {1.0});
  rt.observe(0.5);
  rt.observe(2.0);
  ASSERT_EQ(rt.count(), 2u);
  ctx.reset_metrics();
  EXPECT_EQ(rt.count(), 0u);
  EXPECT_DOUBLE_EQ(rt.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Diagnoser rules, driven by a synthetic registry

// A miniature two-node topology (apache0 web, tomcat0 app) whose series are
// plain stored gauges, so each test scripts the exact shapes the detectors
// must recognise. Family names, labels and pool naming match the testbed's
// probe registration, which is what Diagnoser::discover() keys on.
class DiagnoserRig {
 public:
  DiagnoserRig() {
    apache_cpu_ = registry_.gauge("cpu_util_pct", {{"node", "apache0"}});
    tomcat_cpu_ = registry_.gauge("cpu_util_pct", {{"node", "tomcat0"}});
    tomcat_gc_ = registry_.gauge("gc_util_pct", {{"node", "tomcat0"}});
    threads_util_ =
        registry_.gauge("pool_util_pct", {{"pool", "tomcat0.threads"}});
    workers_util_ =
        registry_.gauge("pool_util_pct", {{"pool", "apache0.workers"}});
    threads_waiting_ =
        registry_.gauge("pool_waiting", {{"pool", "tomcat0.threads"}});
    workers_waiting_ =
        registry_.gauge("pool_waiting", {{"pool", "apache0.workers"}});
    throughput_ =
        registry_.gauge("server_throughput", {{"server", "tomcat0"}});
    active_ =
        registry_.gauge("apache_threads_active", {{"server", "apache0"}});
    connecting_ =
        registry_.gauge("apache_threads_connecting", {{"server", "apache0"}});
    timeline_ = Timeline(registry_, 64);
    diagnoser_ = std::make_unique<Diagnoser>(timeline_);
    healthy();
  }

  void healthy() {
    apache_cpu_.set(40.0);
    tomcat_cpu_.set(50.0);
    tomcat_gc_.set(1.0);
    threads_util_.set(60.0);
    threads_waiting_.set(0.0);
    workers_util_.set(50.0);
    workers_waiting_.set(0.0);
    throughput_.set(100.0);
    active_.set(10.0);
    connecting_.set(8.0);
  }

  void starved_threads() {  // Fig 4: pegged app pool, idle hardware
    threads_util_.set(100.0);
    threads_waiting_.set(5.0);
  }

  void gc_storm() {  // Fig 5: high GC share on a busy (not saturated) node
    tomcat_gc_.set(12.0);
    tomcat_cpu_.set(85.0);
  }

  void fin_wait() {  // Fig 7: workers pegged, few talking to the app tier
    workers_util_.set(100.0);
    active_.set(30.0);
    connecting_.set(5.0);
  }

  void run_ticks(int n) {
    for (int i = 0; i < n; ++i) {
      now_ += 1.0;
      timeline_.record(now_);
      diagnoser_->observe(now_);
    }
  }

  Diagnoser& diagnoser() { return *diagnoser_; }

  Gauge apache_cpu_, tomcat_cpu_, tomcat_gc_;
  Gauge threads_util_, workers_util_, threads_waiting_, workers_waiting_;
  Gauge throughput_, active_, connecting_;

 private:
  Registry registry_;
  Timeline timeline_;
  std::unique_ptr<Diagnoser> diagnoser_;
  sim::SimTime now_ = 0.0;
};

TEST(DiagnoserTest, HealthyTrialDiagnosesNone) {
  DiagnoserRig rig;
  rig.run_ticks(30);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kNone);
  EXPECT_DOUBLE_EQ(d.confidence, 1.0);
  EXPECT_TRUE(d.evidence.empty());
  EXPECT_TRUE(d.implicated_resources.empty());
  EXPECT_EQ(d.to_hint().kind, core::BottleneckKind::kNone);
  EXPECT_EQ(rig.diagnoser().active_detectors(), 0u);
}

TEST(DiagnoserTest, FlagsUnderAllocationWithCitedEvidence) {
  DiagnoserRig rig;
  rig.starved_threads();
  rig.run_ticks(20);
  EXPECT_EQ(rig.diagnoser().active_detectors(), 1u);

  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kSoftUnderAlloc);
  EXPECT_DOUBLE_EQ(d.confidence, 1.0);
  ASSERT_EQ(d.evidence.size(), 1u);
  const EvidenceWindow& w = d.evidence.front();
  EXPECT_EQ(w.series, "pool_util_pct{pool=\"tomcat0.threads\"}");
  EXPECT_DOUBLE_EQ(w.from, 1.0);
  EXPECT_DOUBLE_EQ(w.to, 20.0);
  EXPECT_DOUBLE_EQ(w.observed, 100.0);
  EXPECT_DOUBLE_EQ(w.threshold, 99.0);
  EXPECT_NE(w.condition.find("waiter"), std::string::npos);
  ASSERT_EQ(d.implicated_resources,
            std::vector<std::string>{"tomcat0.threads"});
  EXPECT_EQ(d.suggested_action.kind, SuggestedAction::Kind::kGrowPool);
  EXPECT_EQ(d.suggested_action.resource, "tomcat0.threads");

  const core::DiagnosisHint hint = d.to_hint();
  EXPECT_TRUE(hint.valid);
  EXPECT_EQ(hint.kind, core::BottleneckKind::kSoft);
  ASSERT_EQ(hint.soft, std::vector<std::string>{"tomcat0.threads"});
  EXPECT_TRUE(hint.hardware.empty());
}

TEST(DiagnoserTest, FlagsGcOverAllocationAndImplicatesFeedingPool) {
  DiagnoserRig rig;
  rig.gc_storm();
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kGcOverAlloc);
  ASSERT_GE(d.evidence.size(), 1u);
  EXPECT_EQ(d.evidence.front().series, "gc_util_pct{node=\"tomcat0\"}");
  // The GC rule names both the burned CPU and the pool whose idle units feed
  // the collector.
  const std::vector<std::string> want = {"tomcat0.cpu", "tomcat0.threads"};
  EXPECT_EQ(d.implicated_resources, want);
  EXPECT_EQ(d.suggested_action.kind, SuggestedAction::Kind::kShrinkPool);
  EXPECT_EQ(d.suggested_action.resource, "tomcat0.threads");

  const core::DiagnosisHint hint = d.to_hint();
  EXPECT_EQ(hint.kind, core::BottleneckKind::kSoft);  // hidden soft cause
  EXPECT_EQ(hint.critical, "tomcat0.cpu");            // hardware symptom
}

TEST(DiagnoserTest, FlagsFinWaitBufferEffect) {
  DiagnoserRig rig;
  rig.fin_wait();
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kFinWaitBuffer);
  ASSERT_GE(d.evidence.size(), 1u);
  EXPECT_EQ(d.evidence.front().series,
            "apache_threads_connecting{server=\"apache0\"}");
  ASSERT_EQ(d.implicated_resources,
            std::vector<std::string>{"apache0.workers"});
  EXPECT_EQ(d.suggested_action.kind, SuggestedAction::Kind::kGrowPool);
  EXPECT_EQ(d.suggested_action.resource, "apache0.workers");
}

TEST(DiagnoserTest, SaturatedCpuIsHardwareNotUnderAllocation) {
  DiagnoserRig rig;
  // The pool is pegged *because* the node is out of CPU: the paper's classic
  // case, which must not masquerade as a soft bottleneck.
  rig.starved_threads();
  rig.tomcat_cpu_.set(100.0);
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kHardware);
  ASSERT_EQ(d.implicated_resources, std::vector<std::string>{"tomcat0.cpu"});
  EXPECT_EQ(d.suggested_action.kind, SuggestedAction::Kind::kAddHardware);
  EXPECT_EQ(d.to_hint().kind, core::BottleneckKind::kHardware);
  EXPECT_EQ(d.to_hint().critical, "tomcat0.cpu");
}

TEST(DiagnoserTest, TwoSoftPathologiesDiagnoseMulti) {
  DiagnoserRig rig;
  rig.starved_threads();
  rig.fin_wait();
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kMulti);
  EXPECT_GE(d.evidence.size(), 2u);
  // Both resources are named; the action is the re-balance escape hatch.
  const std::vector<std::string> want = {"tomcat0.threads", "apache0.workers"};
  EXPECT_EQ(d.implicated_resources, want);
  EXPECT_EQ(d.suggested_action.kind, SuggestedAction::Kind::kNone);
}

TEST(DiagnoserTest, SaturatedCpusOnTwoTiersDiagnoseMulti) {
  DiagnoserRig rig;
  rig.apache_cpu_.set(100.0);
  rig.tomcat_cpu_.set(100.0);
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kMulti);
}

TEST(DiagnoserTest, AnalysisWindowExcludesOutOfWindowEvidence) {
  DiagnoserRig rig;
  rig.starved_threads();
  rig.run_ticks(30);
  // The same evidence, restricted to a window it does not overlap, must not
  // fire (ramp transients cannot produce a verdict).
  rig.diagnoser().set_analysis_window(1000.0, 2000.0);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kNone);
  EXPECT_TRUE(d.evidence.empty());
}

TEST(DiagnoserTest, ShortBurstBelowMinVerdictDoesNotFire) {
  DiagnoserRig rig;
  // 9 pegged ticks: the run clears hold_s (5 s) but its 8 s total stays
  // below min_verdict_s (15 s), so the verdict stays healthy.
  rig.starved_threads();
  rig.run_ticks(9);
  rig.healthy();
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kNone);
}

TEST(DiagnoserTest, RunsShorterThanHoldAreDiscarded) {
  DiagnoserRig rig;
  rig.starved_threads();
  rig.run_ticks(4);  // 3 s run < hold_s
  rig.healthy();
  rig.run_ticks(20);
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kNone);
}

TEST(DiagnoserTest, ConfidenceScalesWithEvidenceDuration) {
  DiagnoserRig rig;
  rig.starved_threads();
  rig.run_ticks(12);  // open run [1 s, 12 s] = 11 s of evidence
  const Diagnosis d = rig.diagnoser().diagnosis();
  EXPECT_EQ(d.pathology, Pathology::kNone);  // 11 s < min_verdict_s
  rig.run_ticks(6);  // now 17 s >= min_verdict_s, confidence saturates
  const Diagnosis d2 = rig.diagnoser().diagnosis();
  EXPECT_EQ(d2.pathology, Pathology::kSoftUnderAlloc);
  EXPECT_DOUBLE_EQ(d2.confidence, 1.0);
  EXPECT_NE(d2.summary().find("kSoftUnderAlloc"), std::string::npos);
  EXPECT_NE(d2.summary().find("tomcat0.threads"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden list: every register_* family a trial records, by family and labels,
// with nothing but registry series in the store.

TEST(TimelineTest, RecordsEveryProbeFamily) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 1, 1, 1};
  workload::ClientConfig client;
  client.users = 10;
  exp::Testbed bed(cfg, client);
  const Timeline& tl = bed.timeline();

  const std::vector<std::pair<std::string, Labels>> golden = {
      // register_cpu_util
      {"cpu_util_pct", {{"node", "apache0"}}},
      {"cpu_util_pct", {{"node", "tomcat0"}}},
      {"cpu_util_pct", {{"node", "cjdbc0"}}},
      {"cpu_util_pct", {{"node", "mysql0"}}},
      // register_gc_util
      {"gc_util_pct", {{"node", "tomcat0"}}},
      {"gc_util_pct", {{"node", "cjdbc0"}}},
      // register_pool
      {"pool_util_pct", {{"pool", "apache0.workers"}}},
      {"pool_waiting", {{"pool", "apache0.workers"}}},
      {"pool_capacity", {{"pool", "apache0.workers"}}},
      {"pool_util_pct", {{"pool", "tomcat0.threads"}}},
      {"pool_waiting", {{"pool", "tomcat0.threads"}}},
      {"pool_capacity", {{"pool", "tomcat0.threads"}}},
      {"pool_util_pct", {{"pool", "tomcat0.dbconns"}}},
      {"pool_waiting", {{"pool", "tomcat0.dbconns"}}},
      {"pool_capacity", {{"pool", "tomcat0.dbconns"}}},
      // register_server_ops
      {"server_throughput", {{"server", "apache0"}}},
      {"server_mean_rt_seconds", {{"server", "apache0"}}},
      {"server_throughput", {{"server", "tomcat0"}}},
      {"server_mean_rt_seconds", {{"server", "tomcat0"}}},
      {"server_throughput", {{"server", "cjdbc0"}}},
      {"server_mean_rt_seconds", {{"server", "cjdbc0"}}},
      {"server_throughput", {{"server", "mysql0"}}},
      {"server_mean_rt_seconds", {{"server", "mysql0"}}},
      // register_apache_timeline: the five Fig 7/8 series
      {"apache_processed_requests", {{"server", "apache0"}}},
      {"apache_worker_busy_ms", {{"server", "apache0"}}},
      {"apache_tomcat_interaction_ms", {{"server", "apache0"}}},
      {"apache_threads_active", {{"server", "apache0"}}},
      {"apache_threads_connecting", {{"server", "apache0"}}},
      // ClientFarm::bind_registry
      {"client_requests_total", {{"kind", "dynamic"}}},
      {"client_requests_total", {{"kind", "static"}}},
      {"client_active_users", {}},
      {"client_load", {}}};
  for (const auto& [family, labels] : golden) {
    EXPECT_NE(tl.find_series(family, labels), nullptr)
        << "missing series: " << render_series(family, labels);
  }
  // Every counter and gauge, and nothing else: no probe-hook series.
  EXPECT_EQ(tl.size(), golden.size());
  EXPECT_EQ(tl.size(), bed.registry().series().size());
}

}  // namespace
}  // namespace softres::obs

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/testbed.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace softres::obs {
namespace {

tier::Request::TraceSpan span(const std::string& server, double enter,
                              double leave, double queue = 0.0,
                              double conn = 0.0, double gc = 0.0,
                              double fin = 0.0) {
  return tier::Request::TraceSpan{server, enter, leave, queue, conn, gc, fin};
}

TEST(TierOfTest, StripsTrailingDigits) {
  EXPECT_EQ(tier_of("tomcat0"), "tomcat");
  EXPECT_EQ(tier_of("mysql12"), "mysql");
  EXPECT_EQ(tier_of("apache"), "apache");
}

TEST(SpanTreeTest, AssemblesOutOfOrderSpans) {
  // Servers push spans at *leave* time, so a real trace arrives inner-first;
  // assembly must not care. Feed a deliberately scrambled order.
  std::vector<tier::Request::TraceSpan> spans = {
      span("mysql1", 5.5, 6.5), span("apache0", 0.0, 10.0),
      span("cjdbc0", 2.0, 4.0), span("tomcat0", 1.0, 9.0),
      span("mysql0", 2.5, 3.5), span("cjdbc0", 5.0, 7.0),
  };
  const std::vector<SpanNode> roots = build_span_tree(spans);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].span.server, "apache0");
  ASSERT_EQ(roots[0].children.size(), 1u);
  const SpanNode& tomcat = roots[0].children[0];
  EXPECT_EQ(tomcat.span.server, "tomcat0");
  ASSERT_EQ(tomcat.children.size(), 2u);
  // Children come out enter-ordered regardless of recording order.
  EXPECT_EQ(tomcat.children[0].span.enter, 2.0);
  EXPECT_EQ(tomcat.children[1].span.enter, 5.0);
  for (const SpanNode& q : tomcat.children) {
    ASSERT_EQ(q.children.size(), 1u);
    EXPECT_EQ(tier_of(q.children[0].span.server), "mysql");
  }
}

TEST(SpanTreeTest, ConcurrentSiblingsShareAParent) {
  // Overlap without containment must not nest.
  std::vector<tier::Request::TraceSpan> spans = {
      span("tomcat0", 0.0, 10.0), span("cjdbc0", 1.0, 5.0),
      span("cjdbc1", 4.0, 9.0),
  };
  const std::vector<SpanNode> roots = build_span_tree(spans);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].children.size(), 2u);
}

TEST(SamplingTest, HashMixIsDeterministicAndSeedSensitive) {
  for (std::uint64_t id = 1; id < 100; ++id) {
    EXPECT_EQ(sim::Rng::hash_mix(42, id), sim::Rng::hash_mix(42, id));
  }
  int differing = 0;
  for (std::uint64_t id = 1; id < 100; ++id) {
    if (sim::Rng::hash_mix(42, id) != sim::Rng::hash_mix(43, id)) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(SamplingTest, HashMixFractionTracksRate) {
  // u = h >> 11 scaled to [0,1) — the sampler traces iff u < rate. Over many
  // ids the traced fraction must track the rate (hash uniformity).
  const double rate = 0.05;
  int hits = 0;
  const int n = 20000;
  for (int id = 1; id <= n; ++id) {
    const std::uint64_t h =
        sim::Rng::hash_mix(7, static_cast<std::uint64_t>(id));
    if (static_cast<double>(h >> 11) * 0x1.0p-53 < rate) ++hits;
  }
  const double fraction = static_cast<double>(hits) / n;
  EXPECT_NEAR(fraction, rate, 0.01);
}

TEST(RegistryTest, DedupesOnNameAndLabels) {
  Registry r;
  Counter a = r.counter("x_total", {{"k", "v"}});
  Counter b = r.counter("x_total", {{"k", "v"}});
  Counter c = r.counter("x_total", {{"k", "w"}});
  a.inc();
  b.inc(2.0);
  c.inc();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  const Snapshot snap = r.snapshot(0.0);
  const MetricSample* s = snap.find("x_total", {{"k", "v"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 3.0);
}

TEST(RegistryTest, DefaultHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5.0);
  h.observe(1.0);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(RegistryTest, PrometheusExpositionGolden) {
  Registry r;
  Counter c = r.counter("requests_total", {{"kind", "dynamic"}},
                        "Total requests");
  c.inc(3.0);
  r.gauge_fn("temp", [](sim::SimTime) { return 42.0; });
  Histogram h = r.histogram("rt_seconds", {0.5, 1.0}, {}, "RT");
  h.observe(0.3);
  h.observe(0.7);
  h.observe(5.0);

  std::ostringstream os;
  r.write_prometheus(os, 0.0);
  const std::string expected =
      "# HELP requests_total Total requests\n"
      "# TYPE requests_total counter\n"
      "requests_total{kind=\"dynamic\"} 3\n"
      "# TYPE temp gauge\n"
      "temp 42\n"
      "# HELP rt_seconds RT\n"
      "# TYPE rt_seconds histogram\n"
      "rt_seconds_bucket{le=\"0.5\"} 1\n"
      "rt_seconds_bucket{le=\"1\"} 2\n"
      "rt_seconds_bucket{le=\"+Inf\"} 3\n"
      "rt_seconds_sum 6\n"
      "rt_seconds_count 3\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(RegistryTest, ExportSortsSeriesWithinFamilyByLabelKey) {
  // Series registration order must not leak into the exported text (the
  // determinism contract's unordered-iteration rule applied to our own
  // exporters): register deliberately out of label order, expect sorted
  // emission. Family blocks keep first-appearance order.
  Registry r;
  r.counter("done_total", {{"srv", "tomcat1"}}).inc(2.0);
  r.counter("done_total", {{"srv", "apache0"}}).inc(1.0);
  r.gauge("queue_depth", {{"srv", "cjdbc0"}}).set(7.0);
  r.counter("done_total", {{"srv", "mysql0"}}).inc(3.0);

  std::ostringstream os;
  r.write_prometheus(os, 0.0);
  const std::string expected =
      "# TYPE done_total counter\n"
      "done_total{srv=\"apache0\"} 1\n"
      "done_total{srv=\"mysql0\"} 3\n"
      "done_total{srv=\"tomcat1\"} 2\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth{srv=\"cjdbc0\"} 7\n";
  EXPECT_EQ(os.str(), expected);

  std::ostringstream csv;
  r.write_csv(csv, 0.0);
  const std::string expected_csv =
      "metric,labels,kind,value\n"
      "done_total,srv=apache0,counter,1\n"
      "done_total,srv=mysql0,counter,3\n"
      "done_total,srv=tomcat1,counter,2\n"
      "queue_depth,srv=cjdbc0,gauge,7\n";
  EXPECT_EQ(csv.str(), expected_csv);
}

TEST(RegistryTest, CsvExportGolden) {
  Registry r;
  Counter c = r.counter("done_total", {{"srv", "a0"}});
  c.inc(4.0);
  Histogram h = r.histogram("lat", {1.0}, {});
  h.observe(0.5);
  std::ostringstream os;
  r.write_csv(os, 0.0);
  const std::string expected =
      "metric,labels,kind,value\n"
      "done_total,srv=a0,counter,4\n"
      "lat_bucket,le=1,histogram,1\n"
      "lat_bucket,le=+Inf,histogram,1\n"
      "lat_sum,,histogram,0.5\n"
      "lat_count,,histogram,1\n";
  EXPECT_EQ(os.str(), expected);
}

// The store records every counter and gauge — polled or stored — once per
// tick under its family and labels; histograms have no scalar column.
TEST(TimelineTest, RecordsEveryCounterAndGaugePerTick) {
  sim::Simulator sim;
  Registry r;
  double v = 0.0;
  r.gauge_fn("cpu_util_pct", [&v](sim::SimTime) { return v; },
             {{"node", "tomcat0"}});
  Counter done = r.counter("pages_total");
  r.histogram("lat", {1.0});
  Timeline tl(r, 3);
  for (int t = 1; t <= 3; ++t) {
    sim.schedule_at(t, [&] { tl.record(sim.now()); });
  }
  sim.schedule_at(1.5, [&] {
    v = 50.0;
    done.inc();
  });
  sim.run_until(3.5);
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.times(), (std::vector<sim::SimTime>{1.0, 2.0, 3.0}));
  const Series* cpu = tl.find_series("cpu_util_pct", {{"node", "tomcat0"}});
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->name, "cpu_util_pct{node=\"tomcat0\"}");
  EXPECT_EQ(cpu->values, (std::vector<double>{0.0, 50.0, 50.0}));
  const Series* pages = tl.find_series("pages_total");
  ASSERT_NE(pages, nullptr);
  EXPECT_EQ(pages->values, (std::vector<double>{0.0, 1.0, 1.0}));
  EXPECT_EQ(tl.find_series("lat"), nullptr);
}

TEST(BreakdownTest, TelescopesExactlyOnSyntheticTrace) {
  tier::Request req;
  req.id = 1;
  req.interaction = 3;
  req.sent_at = -0.1;
  req.completed_at = 1.05;
  req.enable_trace();
  // Recorded inner-first, as real servers do.
  req.record_span("mysql0", 0.25, 0.35);
  req.record_span("cjdbc0", 0.2, 0.4);
  req.record_span("tomcat0", 0.1, 0.9, 0.01, 0.02, 0.03);
  req.record_span("apache0", 0.0, 1.0, 0.05, 0.0, 0.0, 0.02);

  TraceCollector collector;
  ASSERT_TRUE(collector.add(req));
  const LatencyBreakdown b = collector.breakdown();
  EXPECT_EQ(b.requests, 1u);
  EXPECT_NEAR(b.mean_rt_ms, 1150.0, 1e-9);
  // Root = apache: residual = 1.15 - (0.05 + 1.0) = 0.1 s.
  EXPECT_NEAR(b.network_other_ms, 100.0, 1e-9);
  // The telescoping identity: rows + residual == mean RT (FIN excluded).
  EXPECT_NEAR(b.accounted_ms(), b.mean_rt_ms, 1e-9);

  const LatencyBreakdown::Row* tomcat = b.find("tomcat");
  ASSERT_NE(tomcat, nullptr);
  // Exclusive tomcat service: 0.8 - 0.03 gc - 0.02 conn - (0 + 0.2) cjdbc.
  EXPECT_NEAR(tomcat->service_ms, 550.0, 1e-9);
  EXPECT_NEAR(tomcat->gc_ms, 30.0, 1e-9);
  EXPECT_NEAR(tomcat->conn_wait_ms, 20.0, 1e-9);
  const LatencyBreakdown::Row* apache = b.find("apache");
  ASSERT_NE(apache, nullptr);
  EXPECT_NEAR(apache->fin_wait_ms, 20.0, 1e-9);
  // Exclusive apache service: 1.0 - (0.01 + 0.8) tomcat = 0.19.
  EXPECT_NEAR(apache->service_ms, 190.0, 1e-9);
}

TEST(BreakdownTest, SkipsUntracedAndIncompleteRequests) {
  TraceCollector collector;
  tier::Request untraced;
  untraced.completed_at = 1.0;
  EXPECT_FALSE(collector.add(untraced));
  tier::Request in_flight;
  in_flight.enable_trace();
  in_flight.record_span("tomcat0", 0.0, 1.0);
  EXPECT_FALSE(collector.add(in_flight));
  EXPECT_EQ(collector.size(), 0u);
}

TEST(BreakdownTest, MatchesEndToEndResponseTimeOnLiveTestbed) {
  // The acceptance identity on real traces: per-tier sums plus the network
  // residual reproduce the traced requests' mean RT to within 1 %.
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  workload::ClientConfig client;
  client.users = 300;
  client.ramp_up_s = 5.0;
  client.runtime_s = 30.0;
  client.ramp_down_s = 2.0;
  client.trace_sample_rate = 0.05;
  exp::Testbed bed(cfg, client);
  bed.run();

  TraceCollector collector;
  ASSERT_GT(collector.collect(bed.farm().traced_requests()), 0u);
  const LatencyBreakdown b = collector.breakdown();
  ASSERT_GT(b.mean_rt_ms, 0.0);
  EXPECT_NEAR(b.accounted_ms() / b.mean_rt_ms, 1.0, 0.01);
  // All four tiers show up with sensible visit counts.
  for (const char* tier : {"apache", "tomcat", "cjdbc", "mysql"}) {
    const LatencyBreakdown::Row* row = b.find(tier);
    ASSERT_NE(row, nullptr) << tier;
    EXPECT_GT(row->visits, 0.0);
    EXPECT_GT(row->residence_ms, 0.0);
  }
}

TEST(ChromeTraceTest, EmitsBalancedJsonWithTierProcesses) {
  tier::Request req;
  req.id = 7;
  req.interaction = 1;
  req.sent_at = 0.0;
  req.completed_at = 1.1;
  req.enable_trace();
  req.record_span("tomcat0", 0.1, 0.9, 0.01);
  req.record_span("apache0", 0.0, 1.0, 0.0, 0.0, 0.0, 0.05);
  TraceCollector collector;
  ASSERT_TRUE(collector.add(req));

  std::ostringstream os;
  collector.write_chrome_trace(os);
  const std::string json = os.str();
  int braces = 0, brackets = 0;
  for (char ch : json) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("tomcat0 queue"), std::string::npos);
  EXPECT_NE(json.find("apache0 fin-wait"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
}

TEST(ExperimentTest, RunResultCarriesSnapshotAndTraces) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  exp::ExperimentOptions opts;
  opts.client.users = 300;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 20.0;
  opts.client.ramp_down_s = 2.0;
  opts.set_trace_sample_rate(0.05);
  exp::Experiment experiment(cfg, opts);
  const exp::RunResult r = experiment.run(cfg.soft, 300);

  EXPECT_GT(r.traces.size(), 0u);
  const MetricSample* reqs =
      r.metrics.find("client_requests_total", {{"kind", "dynamic"}});
  ASSERT_NE(reqs, nullptr);
  EXPECT_GT(reqs->value, 0.0);
  const MetricSample* hist = r.metrics.find("client_response_time_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, r.response_times.count());
  // The trial's store moved into the result whole: one column per counter
  // and gauge, one sample per tick of the 27 s trial.
  EXPECT_EQ(r.series.ticks(), 27u);
  for (const Series& s : r.series) EXPECT_EQ(s.size(), 27u);
  EXPECT_NE(r.find_series("apache_processed_requests", {{"server", "apache0"}}),
            nullptr);
  EXPECT_NE(r.find_series("pool_util_pct", {{"pool", "tomcat0.threads"}}),
            nullptr);
  EXPECT_NE(r.find_series("cpu_util_pct", {{"node", "apache0"}}), nullptr);
}

// A flight-recorder report that cannot be written is an error naming the
// path (and the variable it came from), not a silently missing file.
TEST(ExperimentTest, UnwritableReportThrowsNamingPath) {
  ::setenv("SOFTRES_REPORT_HTML", "/nonexistent_dir_softres/out.html", 1);
  exp::ExperimentOptions opts = exp::ExperimentOptions::from_env();
  opts.client.ramp_up_s = 2.0;
  opts.client.runtime_s = 3.0;
  opts.client.ramp_down_s = 1.0;
  const exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  const exp::Experiment experiment(cfg, opts);
  try {
    experiment.run(exp::SoftConfig{400, 15, 60}, 20);
    ::unsetenv("SOFTRES_REPORT_HTML");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    ::unsetenv("SOFTRES_REPORT_HTML");
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent_dir_softres/out_s400-15-60_u20.html"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("SOFTRES_REPORT_HTML"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace softres::obs

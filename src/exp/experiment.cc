#include "exp/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/run_context.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "soft/pool_monitor.h"

namespace softres::exp {

ExperimentOptions ExperimentOptions::from_env() {
  ExperimentOptions opts;
  if (env_flag("SOFTRES_FULL")) {
    opts.client.ramp_up_s = 480.0;   // 8 minutes
    opts.client.runtime_s = 720.0;   // 12 minutes
    opts.client.ramp_down_s = 30.0;
  }
  if (const auto rate = env_fraction("SOFTRES_TRACE_RATE")) {
    opts.client.trace_sample_rate = *rate;
  }
  // Base seed of the seed-derivation chain: every trial stream hashes off
  // this via RunContext::derive_seed, so one env switch re-seeds every bench
  // and example without touching the per-trial identity hashing.
  if (const auto seed = env_uint("SOFTRES_SEED")) {
    opts.client.seed = *seed;
  }
  if (const char* report = std::getenv("SOFTRES_REPORT_HTML")) {
    opts.report_html = report;
  }
  opts.profile = env_flag("SOFTRES_PROFILE");
  return opts;
}

double RunResult::goodput(double threshold_s) const {
  return sla(threshold_s).goodput;
}

metrics::SlaSplit RunResult::sla(double threshold_s) const {
  return metrics::SlaModel(threshold_s).split(response_times, window_s);
}

std::vector<std::string> RunResult::saturated_hardware() const {
  std::vector<std::string> out;
  for (const auto& c : cpus) {
    if (c.saturated) out.push_back(c.name);
  }
  return out;
}

std::vector<std::string> RunResult::saturated_soft() const {
  std::vector<std::string> out;
  for (const auto& p : pools) {
    if (p.saturated) out.push_back(p.name);
  }
  return out;
}

const obs::Series* RunResult::find_series(const std::string& family,
                                          const obs::Labels& labels) const {
  return series.find_series(family, labels);
}

const CpuStat* RunResult::find_cpu(const std::string& name) const {
  for (const auto& c : cpus) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const ServerOps* RunResult::find_server(const std::string& name) const {
  for (const auto& s : servers) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const PoolStat* RunResult::find_pool(const std::string& name) const {
  for (const auto& p : pools) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const TenantStat* RunResult::find_tenant(const std::string& name) const {
  for (const auto& t : tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Experiment::Experiment(TestbedConfig base, ExperimentOptions opts)
    : base_(std::move(base)), opts_(std::move(opts)) {}

namespace {

CpuStat condense_cpu(const Testbed& bed, const std::string& node_name) {
  const obs::Timeline& tl = bed.timeline();
  const sim::SimTime lo = bed.measure_start();
  const sim::SimTime hi = bed.measure_end();
  const obs::Labels node = {{"node", node_name}};
  CpuStat stat;
  stat.name = node_name + ".cpu";
  if (const obs::Series* util = tl.find_series("cpu_util_pct", node)) {
    stat.util_pct = tl.mean_between(*util, lo, hi);
  }
  if (const obs::Series* gc = tl.find_series("gc_util_pct", node)) {
    stat.gc_util_pct = tl.mean_between(*gc, lo, hi);
  }
  stat.saturated = stat.util_pct >= kCpuSaturationPct;
  return stat;
}

PoolStat condense_pool(const Testbed& bed, const soft::Pool& pool) {
  const obs::Timeline& tl = bed.timeline();
  const sim::SimTime lo = bed.measure_start();
  const sim::SimTime hi = bed.measure_end();
  PoolStat stat;
  stat.name = pool.name();
  stat.capacity = pool.capacity();
  stat.mean_wait_ms = 1000.0 * pool.mean_wait_time();
  if (const obs::Series* util =
          tl.find_series("pool_util_pct", {{"pool", pool.name()}})) {
    stat.util_pct = tl.mean_between(*util, lo, hi);
    stat.saturated = soft::is_saturated(tl.window(*util, lo, hi));
  }
  return stat;
}

ServerOps condense_server(const tier::Server& server) {
  ServerOps ops;
  ops.name = server.name();
  ops.throughput = server.window_throughput();
  ops.mean_rt_s = server.window_mean_rt();
  ops.avg_jobs = server.window_avg_jobs();
  return ops;
}

/// "out.html" + (400/6/60, 6200) -> "out_s400-6-60_u6200.html": one report
/// file per trial even when a sweep shares one SOFTRES_REPORT_HTML value.
std::string report_path(const std::string& base, const SoftConfig& soft,
                        std::size_t users) {
  std::string suffix = "_s" + std::to_string(soft.apache_threads) + "-" +
                       std::to_string(soft.tomcat_threads) + "-" +
                       std::to_string(soft.db_connections) + "_u" +
                       std::to_string(users);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + suffix + ".html";
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

}  // namespace

std::uint64_t Experiment::trial_seed(const SoftConfig& soft,
                                     std::size_t users) const {
  TestbedConfig cfg = base_;
  cfg.soft = soft;
  return RunContext::derive_seed(opts_.client.seed, cfg.hw, cfg.soft, users);
}

RunResult Experiment::run(const SoftConfig& soft, std::size_t users) const {
  TestbedConfig cfg = base_;
  cfg.soft = soft;
  workload::ClientConfig client = opts_.client;
  client.users = users;

  // Install the profiler ledger before the context is built so topology and
  // registry construction land in the kSetup phase; the testbed advances the
  // phase at its own (simulated-time) transitions. The ledger is installed
  // on *this* thread only, which is the thread that runs the whole trial —
  // parallel sweep workers each profile their own trials independently, so
  // the counts stay bit-identical to a serial sweep.
  std::optional<prof::Ledger> ledger;
  std::optional<prof::InstallGuard> profile_guard;
  if (opts_.profile) profile_guard.emplace(&ledger.emplace());
  // Always reset the thread's phase marker: the bench allocation ledger
  // attributes by it whether or not a profiler ledger is installed.
  SOFTRES_PROF_PHASE(kSetup);

  // One trial = one context. The trial seed is a pure function of the
  // trial's identity, so sweeps can run these in any order — or in
  // parallel — and reproduce the serial results bit for bit. The client
  // farm's user streams and trace sampling hash off the same trial seed.
  RunContext ctx(opts_.client.seed, cfg, users, opts_.governor,
                 opts_.partition);
  client.seed = ctx.trial_seed();
  Testbed bed(ctx, cfg, client);
  bed.run();

  RunResult r;
  r.hw = cfg.hw;
  r.soft = soft;
  r.users = users;
  r.window_s = client.runtime_s;
  r.trial_seed = ctx.trial_seed();
  r.response_times = bed.farm().response_times();
  r.throughput = bed.farm().window_throughput();
  r.req_ratio = bed.workload().req_ratio();

  for (const auto& node : bed.nodes()) {
    r.cpus.push_back(condense_cpu(bed, node->name()));
  }
  for (const auto& a : bed.apaches()) {
    PoolStat workers = condense_pool(bed, a->worker_pool());
    r.pools.push_back(workers);
    // For the web tier the operational "RTT" is the worker busy time
    // (response path + FIN wait) and the concurrency is worker occupancy:
    // that is what the thread pool has to cover.
    ServerOps ops = condense_server(*a);
    ops.mean_rt_s = a->window_mean_busy_s();
    ops.avg_jobs = workers.util_pct / 100.0 *
                   static_cast<double>(a->worker_pool().capacity());
    r.servers.push_back(ops);
  }
  for (const auto& t : bed.tomcats()) {
    r.pools.push_back(condense_pool(bed, t->thread_pool()));
    r.pools.push_back(condense_pool(bed, t->connection_pool()));
    r.servers.push_back(condense_server(*t));
    r.tomcat_gc_seconds += bed.window_gc_seconds(t->jvm());
  }
  for (const auto& c : bed.cjdbcs()) {
    r.servers.push_back(condense_server(*c));
    r.cjdbc_gc_seconds += bed.window_gc_seconds(c->jvm());
  }
  for (const auto& m : bed.mysqls()) {
    r.servers.push_back(condense_server(*m));
  }
  const workload::ClientFarm& farm = bed.farm();
  for (std::size_t t = 0; t < farm.num_tenants(); ++t) {
    TenantStat ts;
    ts.name = farm.tenant(t).name;
    ts.users = farm.tenant(t).users;
    ts.sla_threshold_s = farm.tenant(t).sla_threshold_s;
    ts.throughput = farm.tenant_throughput(t);
    ts.goodput = farm.tenant_goodput(t, ts.sla_threshold_s);
    ts.badput = ts.throughput - ts.goodput;
    ts.mean_rt_s = farm.tenant_response_times(t).mean();
    r.tenants.push_back(std::move(ts));
  }
  r.metrics = ctx.registry().snapshot(ctx.simulator().now());
  ctx.traces().collect(bed.farm().traced_requests());
  r.diagnosis = bed.diagnoser().diagnosis();
  // Tail attribution and its diagnosis corroboration: pure functions of the
  // traces (themselves a function of the trial seed), so bit-identical
  // whether the sweep ran serial or across SOFTRES_JOBS workers.
  obs::TailConfig tail_cfg;
  tail_cfg.slo_threshold_s = opts_.sla_threshold_s;
  r.tail = obs::TailAttributor(tail_cfg).attribute(ctx.traces().traces());
  obs::corroborate(r.diagnosis, r.tail);
  if (ledger) r.profile = obs::ProfileSnapshot::of(*ledger);
  if (bed.governor() != nullptr) r.governor_actions = bed.governor()->actions();
  r.series = bed.timeline().take();

  if (!opts_.report_html.empty()) {
    obs::ReportMeta meta;
    meta.title = "Trial " + cfg.hw.to_string() + " / " + soft.to_string() +
                 " @ " + std::to_string(users) + " users";
    meta.topology = cfg.hw.to_string();
    meta.allocation = soft.to_string();
    meta.workload = std::to_string(users) + " users";
    meta.measure_start = bed.measure_start();
    meta.measure_end = bed.measure_end();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f req/s", r.throughput);
    meta.extra.emplace_back("throughput", buf);
    std::snprintf(buf, sizeof(buf), "%.1f req/s",
                  r.goodput(opts_.sla_threshold_s));
    meta.extra.emplace_back(
        "goodput@" + std::to_string(opts_.sla_threshold_s) + "s", buf);
    std::snprintf(buf, sizeof(buf), "%.0f ms",
                  1000.0 * r.response_times.mean());
    meta.extra.emplace_back("mean response time", buf);
    meta.extra.emplace_back("trial seed", std::to_string(r.trial_seed));
    for (const core::GovernorAction& act : r.governor_actions) {
      meta.resizes.push_back(
          obs::ReportMeta::ResizeMark{act.at, act.pool, act.from, act.to});
    }
    const obs::LatencyBreakdown breakdown = ctx.traces().breakdown();
    const std::string path = report_path(opts_.report_html, soft, users);
    if (!obs::write_flight_recorder_html(
            path, meta, r.series, r.diagnosis,
            breakdown.rows.empty() ? nullptr : &breakdown,
            r.profile.enabled ? &r.profile : nullptr,
            r.tail.empty() ? nullptr : &r.tail,
            r.tail.empty() ? nullptr : &ctx.traces())) {
      const char* env = std::getenv("SOFTRES_REPORT_HTML");
      throw std::runtime_error(
          "cannot write flight-recorder report '" + path + "'" +
          (env != nullptr && opts_.report_html == env
               ? " (from SOFTRES_REPORT_HTML)"
               : ""));
    }
  }

  r.traces = std::move(ctx.traces());
  return r;
}

}  // namespace softres::exp

#include "harness.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <ostream>

#include "exp/parallel.h"
#include "exp/runner_adapter.h"

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double monotonic_s() { return clock_s(CLOCK_MONOTONIC); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

// ---------------------------------------------------------------------------

Tracer::Id Tracer::open(std::string name, Id parent, std::uint64_t group,
                        std::string label) {
  Span span;
  span.name = std::move(name);
  span.label = std::move(label);
  span.parent = parent;
  span.group = group;
  span.tid = this_thread_tid();
  span.start_s = monotonic_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::close(Id id) {
  const double now = monotonic_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_s = now;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[160];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
                  1e6 * (s.start_s - origin), 1e6 * (s.end_s - s.start_s),
                  s.tid);
    os << "{\"name\":\"" << json_escape(s.name) << "\"," << buf
       << "\"args\":{\"group\":\"" << std::hex << s.group << std::dec
       << "\",\"label\":\"" << json_escape(s.label) << "\"}},\n";
  }
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"perfbench\"}}\n]}\n";
}

void Tracer::print_self_times(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Id>> children(spans_.size());
  for (Id i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kRoot) children[spans_[i].parent].push_back(i);
  }
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (Id i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> iv;
    for (const Id c : children[i]) {
      iv.emplace_back(spans_[c].start_s, spans_[c].end_s);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double dur = s.end_s - s.start_s;
    Row& r = rows[s.name];
    ++r.count;
    r.total_s += dur;
    r.self_s += std::max(0.0, dur - covered);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total_s > b.second.total_s;
  });
  os << "span self times (host):\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-30s %7s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  os << buf;
  for (const auto& [name, r] : sorted) {
    std::snprintf(buf, sizeof(buf), "  %-30s %7zu %12.6f %12.6f\n",
                  name.c_str(), r.count, r.total_s, r.self_s);
    os << buf;
  }
}

Scope::Scope(Tracer* tracer, std::string name, Tracer::Id parent,
             std::uint64_t group, std::string label)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->open(std::move(name), parent, group, std::move(label));
  }
}

Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

// ---------------------------------------------------------------------------

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

void digest_result(Digest& d, const exp::RunResult& r) {
  d.add(r.hw.to_string());
  d.add(r.soft.to_string());
  d.add(static_cast<std::uint64_t>(r.users));
  d.add(r.trial_seed);
  d.add(r.throughput);
  d.add(static_cast<std::uint64_t>(r.response_times.count()));
  d.add(r.response_times.mean());
  for (const exp::CpuStat& c : r.cpus) {
    d.add(c.name);
    d.add(c.util_pct);
    d.add(c.gc_util_pct);
  }
  for (const exp::PoolStat& p : r.pools) {
    d.add(p.name);
    d.add(static_cast<std::uint64_t>(p.capacity));
    d.add(p.util_pct);
    d.add(p.mean_wait_ms);
    d.add(static_cast<std::uint64_t>(p.saturated));
  }
  for (const exp::ServerOps& s : r.servers) {
    d.add(s.name);
    d.add(s.throughput);
    d.add(s.mean_rt_s);
    d.add(s.avg_jobs);
  }
  d.add(r.cjdbc_gc_seconds);
  d.add(r.tomcat_gc_seconds);
  d.add(r.req_ratio);
  d.add(static_cast<std::uint64_t>(r.diagnosis.pathology));
  d.add(r.diagnosis.confidence);
  for (const std::string& res : r.diagnosis.implicated_resources) d.add(res);
  d.add(r.diagnosis.tail.component);
  d.add(static_cast<std::uint64_t>(r.diagnosis.tail.corroborates));
  d.add(static_cast<std::uint64_t>(r.tail.requests));
  for (const auto& c : r.tail.cohorts) {
    d.add(static_cast<std::uint64_t>(c.requests));
    d.add(c.mean_rt_s);
  }
  for (const core::GovernorAction& a : r.governor_actions) {
    d.add(a.at);
    d.add(a.pool);
    d.add(static_cast<std::uint64_t>(a.from));
    d.add(static_cast<std::uint64_t>(a.to));
  }
  for (const exp::TenantStat& t : r.tenants) {
    d.add(t.name);
    d.add(t.throughput);
    d.add(t.goodput);
    d.add(t.badput);
    d.add(t.mean_rt_s);
  }
}

void digest_observation(Digest& d, const core::Observation& o) {
  d.add(static_cast<std::uint64_t>(o.workload));
  d.add(o.throughput);
  d.add(o.goodput);
  d.add(o.slo_satisfaction);
  d.add(o.req_ratio);
  for (const auto& h : o.hardware) {
    d.add(h.name);
    d.add(h.util_pct);
  }
  for (const auto& p : o.soft) {
    d.add(p.name);
    d.add(static_cast<std::uint64_t>(p.capacity));
    d.add(p.util_pct);
    d.add(static_cast<std::uint64_t>(p.saturated));
  }
  for (const auto& s : o.servers) {
    d.add(s.name);
    d.add(s.throughput);
    d.add(s.mean_rt_s);
    d.add(s.avg_jobs);
  }
}

void digest_report(Digest& d, const core::AllocationReport& r) {
  d.add(std::string(core::to_string(r.status)));
  d.add(r.critical.critical_resource);
  d.add(r.critical.reserve.to_string());
  d.add(static_cast<std::uint64_t>(r.min_jobs.saturation_workload));
  d.add(r.min_jobs.saturation_throughput);
  d.add(r.min_jobs.critical_rtt_s);
  d.add(static_cast<std::uint64_t>(r.min_jobs.min_jobs));
  d.add(r.req_ratio);
  for (const core::TierRow& row : r.rows) {
    d.add(static_cast<std::uint64_t>(row.tier));
    d.add(row.rtt_s);
    d.add(row.throughput);
    d.add(row.avg_jobs);
    d.add(static_cast<std::uint64_t>(row.pool_per_server));
    d.add(static_cast<std::uint64_t>(row.pool_total));
  }
  d.add(r.recommended.to_string());
  d.add(static_cast<std::uint64_t>(r.experiments_run));
}

double forced_flow_deviation(const core::Observation& o) {
  double app = 0.0;
  double db = 0.0;
  for (const core::ServerObservation& s : o.servers) {
    if (s.tier == core::Tier::kApp) app += s.throughput;
    if (s.tier == core::Tier::kDb) db += s.throughput;
  }
  if (app <= 0.0 || o.req_ratio <= 0.0) return 1.0;
  return std::fabs(db / app / o.req_ratio - 1.0);
}

// ---------------------------------------------------------------------------

Session::Session(std::uint64_t seed, std::size_t jobs, Tracer* tracer,
                 bool setup_only)
    : seed_(seed), jobs_(jobs), tracer_(tracer), setup_only_(setup_only) {}

const exp::Experiment& Session::experiment(
    const exp::TestbedConfig& cfg, const exp::ExperimentOptions& opts) {
  experiments_.emplace_back(cfg, opts);
  return experiments_.back();
}

bool Session::start(const std::string& workload) {
  t_first_ = monotonic_s();
  if (setup_only_) return false;
  cpu_first_ = process_cpu_s();
  if (tracer_ != nullptr) {
    workload_span_ = tracer_->open(workload, Tracer::kRoot);
  }
  return true;
}

void Session::stop() {
  wall_s_ = monotonic_s() - t_first_;
  cpu_s_ = process_cpu_s() - cpu_first_;
  if (tracer_ != nullptr) tracer_->close(workload_span_);
}

std::vector<Trial*> Session::issue(const std::vector<TrialSpec>& specs,
                                   Tracer::Id parent) {
  std::vector<Trial*> batch;
  for (const TrialSpec& spec : specs) {
    Trial& t = trials_.emplace_back();
    t.spec = spec;
    t.op = add_op(trial_label(spec));
    batch.push_back(&t);
  }
  Scope span(tracer_, "exp.batch", parent);
  const double submitted = monotonic_s();
  {
    exp::ParallelExecutor pool(jobs_);
    pool.run_indexed(batch.size(), [&](std::size_t i) {
      Trial& t = *batch[i];
      const double begin = monotonic_s();
      t.queue_wait_s = begin - submitted;
      const std::uint64_t group =
          tracer_ != nullptr
              ? t.spec.experiment->trial_seed(t.spec.soft, t.spec.users)
              : 0;
      Scope trial(tracer_, "exp.trial", span.id(), group);
      const AllocCounts before = thread_allocs();
      try {
        t.result = t.spec.experiment->run(t.spec.soft, t.spec.users);
        t.ran = true;
      } catch (const std::exception& e) {
        t.error = e.what();
      }
      const AllocCounts after = thread_allocs();
      t.allocs = {after.setup - before.setup, after.steady - before.steady};
      t.host_s = monotonic_s() - begin;
      return 0;
    });
  }
  layers_.batch_worker_s +=
      static_cast<double>(jobs_) * (monotonic_s() - submitted);
  return batch;
}

std::size_t Session::add_op(std::string label) {
  ops_.push_back(Op{std::move(label), false});
  return ops_.size() - 1;
}

void Session::fail(std::size_t op, const std::string& why) {
  std::cout << "[FAIL] " << ops_[op].label << ": " << why << "\n";
  ops_[op].failed = true;
}

std::size_t Session::ops_failed() const {
  return static_cast<std::size_t>(std::count_if(
      ops_.begin(), ops_.end(), [](const Op& o) { return o.failed; }));
}

std::string trial_label(const TrialSpec& spec) {
  return spec.soft.to_string() + " @ " + std::to_string(spec.users) + " (" +
         spec.experiment->base_config().hw.to_string() + ")";
}

namespace {

int tier_index(const std::string& server) {
  static const char* const kTiers[4] = {"apache", "tomcat", "cjdbc", "mysql"};
  for (int i = 0; i < 4; ++i) {
    if (server.rfind(kTiers[i], 0) == 0) return i;
  }
  return -1;
}

}  // namespace

void account_trials(Session& s) {
  Layers& L = s.layers();
  for (Trial& t : s.trials()) {
    L.trial_s.add(t.host_s);
    L.queue_wait_s += t.queue_wait_s;
    L.allocs.setup += t.allocs.setup;
    L.allocs.steady += t.allocs.steady;
    ++L.alloc_trials;
    if (!t.ran) {
      s.fail(t.op, "Experiment::run threw: " + t.error);
      continue;
    }
    const exp::RunResult& r = t.result;
    L.traced_requests += r.traces.size();
    for (const auto& series : r.series) L.series_samples += series.size();
    for (const exp::ServerOps& srv : r.servers) {
      const int i = tier_index(srv.name);
      if (i < 0) continue;
      L.tier_rt_x[i] += srv.throughput * srv.mean_rt_s;
      L.tier_x[i] += srv.throughput;
    }
    L.governor_resizes += r.governor_actions.size();
  }
}

void check_forced_flow(Session& s, std::size_t op,
                       const core::Observation& o) {
  const double dev = forced_flow_deviation(o);
  Layers& L = s.layers();
  L.flow_deviation_max = std::max(L.flow_deviation_max, dev);
  if (dev > kForcedFlowTolerance) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "Forced Flow Law off by %.2f%% (tolerance %.1f%%)",
                  100.0 * dev, 100.0 * kForcedFlowTolerance);
    s.fail(op, buf);
  }
}

}  // namespace perfbench

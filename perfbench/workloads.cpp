// The benchmark's three workloads, built from the paper's §III figures and
// §IV Table I as the repository's benches issue them. Options are built
// directly, never through ExperimentOptions::from_env or bench/bench_util.h,
// so no SOFTRES_* variable in the caller's environment changes what is
// measured; every executor gets an explicit worker count.

#include <iostream>
#include <stdexcept>

#include "exp/runner_adapter.h"
#include "exp/sweep.h"
#include "harness.h"
#include "obs/diagnoser.h"
#include "soft/partition.h"
#include "workload/load_shapes.h"

namespace perfbench {
namespace {

using softres::obs::Pathology;

/// The compressed 20 s / 60 s / 3 s trial schedule of bench/bench_util.h.
exp::ExperimentOptions compressed(std::uint64_t seed) {
  exp::ExperimentOptions opts;
  opts.client.seed = seed;
  opts.client.ramp_up_s = 20.0;
  opts.client.runtime_s = 60.0;
  opts.client.ramp_down_s = 3.0;
  return opts;
}

exp::TestbedConfig topology(const char* hw) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig::parse(hw);
  return cfg;
}

/// softs x users, row-major, as exp::sweep_grid flattens a grid.
std::vector<TrialSpec> grid(const exp::Experiment& e,
                            const std::vector<exp::SoftConfig>& softs,
                            const std::vector<std::size_t>& users) {
  std::vector<TrialSpec> specs;
  for (const exp::SoftConfig& soft : softs) {
    for (const std::size_t u : users) specs.push_back({&e, soft, u});
  }
  return specs;
}

const Trial& find(const std::vector<Trial*>& trials,
                  const exp::SoftConfig& soft, std::size_t users) {
  for (const Trial* t : trials) {
    if (t->spec.soft == soft && t->spec.users == users) return *t;
  }
  throw std::logic_error("no trial " + soft.to_string() + " @ " +
                         std::to_string(users));
}

/// The check bench_util's expect_diagnosis makes: the verdict matches, with
/// at least one evidence window unless the trial should be healthy.
void expect_diagnosis(Session& s, const Trial& t, Pathology want) {
  if (!t.ran) return;  // already failed
  const softres::obs::Diagnosis& d = t.result.diagnosis;
  if (d.pathology == want &&
      (want == Pathology::kNone || !d.evidence.empty())) {
    return;
  }
  s.fail(t.op, "diagnosis '" + d.summary() + "', expected " +
                   softres::obs::pathology_name(want));
}

/// The check bench_util's expect_tail_blame makes: the p99+ cohort's
/// dominant blame is `component` and corroborates the verdict.
void expect_tail_blame(Session& s, const Trial& t,
                       const std::string& component) {
  if (!t.ran) return;
  const exp::RunResult& r = t.result;
  const auto* p99 = r.tail.empty() ? nullptr : r.tail.find_cohort("p99+");
  std::string got = "<untraced>";
  if (p99 != nullptr) {
    const std::size_t dom = r.tail.dominant_component(*p99);
    if (dom != softres::obs::TailAttribution::npos) {
      got = r.tail.axis[dom].label();
    }
  }
  if (got == component && r.diagnosis.tail.present &&
      r.diagnosis.tail.corroborates) {
    return;
  }
  s.fail(t.op, "p99+ dominant blame " + got + ", expected " + component +
                   " corroborating the diagnosis");
}

/// Forced Flow Law and digest over every trial, in issue order.
void check_results(Session& s) {
  for (const Trial& t : s.trials()) {
    if (!t.ran) continue;
    const exp::ExperimentOptions& opts = t.spec.experiment->options();
    check_forced_flow(s, t.op,
                      exp::RunnerAdapter::to_observation(
                          t.result, opts.sla_threshold_s));
    digest_result(s.digest(), t.result);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// figure_sweep: the Fig 4 and Fig 5 grids and the Fig 7/8 trials.

void figure_sweep(Session& s) {
  // bench_fig4 and bench_fig7_8 trace at 1 % so the 200-trace budget covers
  // the measurement window; their tail checks read the blame vectors.
  exp::ExperimentOptions traced = compressed(s.seed());
  traced.set_trace_sample_rate(0.01);
  const exp::Experiment& fig4 = s.experiment(topology("1/2/1/2"), traced);
  const exp::Experiment& fig5 =
      s.experiment(topology("1/4/1/4"), compressed(s.seed()));
  const exp::Experiment& fig78 = s.experiment(topology("1/4/1/4"), traced);

  const std::vector<TrialSpec> fig4_specs =
      grid(fig4, {{400, 6, 200}, {400, 10, 200}, {400, 20, 200},
                  {400, 200, 200}},
           exp::workload_range(4600, 6600, 400));
  const std::vector<TrialSpec> fig5_specs =
      grid(fig5, {{400, 200, 10}, {400, 200, 50}, {400, 200, 100},
                  {400, 200, 200}},
           exp::workload_range(6000, 7800, 600));
  const std::vector<TrialSpec> fig78_specs = {
      {&fig78, {30, 6, 20}, 6000},
      {&fig78, {30, 6, 20}, 7400},
      {&fig78, {400, 6, 20}, 7400},
  };

  if (!s.start("figure_sweep")) return;
  std::vector<Trial*> r4;
  std::vector<Trial*> r5;
  std::vector<Trial*> r78;
  {
    Scope span(s.tracer(), "fig4.grid", s.workload_span());
    r4 = s.issue(fig4_specs, span.id());
  }
  {
    Scope span(s.tracer(), "fig5.grid", s.workload_span());
    r5 = s.issue(fig5_specs, span.id());
  }
  {
    Scope span(s.tracer(), "fig7_8.trials", s.workload_span());
    r78 = s.issue(fig78_specs, span.id());
  }
  s.stop();

  account_trials(s);
  check_results(s);
  // The verdicts bench_fig4, bench_fig5 and bench_fig7_8 assert.
  expect_diagnosis(s, find(r4, {400, 6, 200}, 6600),
                   Pathology::kSoftUnderAlloc);
  expect_diagnosis(s, find(r4, {400, 200, 200}, 4600), Pathology::kNone);
  expect_tail_blame(s, find(r4, {400, 6, 200}, 5000), "tomcat.queue");
  expect_diagnosis(s, find(r5, {400, 200, 200}, 7800),
                   Pathology::kGcOverAlloc);
  expect_diagnosis(s, find(r5, {400, 200, 10}, 6000), Pathology::kNone);
  expect_diagnosis(s, find(r78, {30, 6, 20}, 7400),
                   Pathology::kFinWaitBuffer);
  expect_tail_blame(s, find(r78, {30, 6, 20}, 7400), "apache.queue");
  expect_diagnosis(s, find(r78, {30, 6, 20}, 6000), Pathology::kNone);

  Layers& L = s.layers();
  L.trials_executed = L.trials_consumed = s.trials().size();
}

// ---------------------------------------------------------------------------
// calibration: Algorithm 1 (Table I) on 1/2/1/2, then 1/4/1/4.

namespace {

/// Forwards Algorithm 1's RunExperiment calls and records each batch as a
/// span. Untraced, it forwards to exp::RunnerAdapter. Traced, it issues the
/// batch's trials itself through Session::issue — the same Experiment::run
/// calls on an executor of the same size, which RunnerAdapter::run_batch
/// makes — so every trial gets its own span; the digest shows both paths
/// give identical observations.
class ForwardingRunner final : public core::ExperimentRunner {
 public:
  struct Record {
    core::Observation obs;
    std::size_t op = 0;
  };

  ForwardingRunner(Session& s, const exp::Experiment& e, double slo_s)
      : session_(s), experiment_(e), slo_s_(slo_s),
        adapter_(e, slo_s, s.jobs()) {}

  core::Observation run(const core::Allocation& alloc,
                        std::size_t workload) override {
    return forward(alloc, {workload}, false).front();
  }
  std::vector<core::Observation> run_batch(
      const core::Allocation& alloc,
      const std::vector<std::size_t>& workloads) override {
    return forward(alloc, workloads, true);
  }
  std::size_t preferred_batch() const override {
    return adapter_.preferred_batch();
  }

  void set_parent(Tracer::Id parent) { parent_ = parent; }
  const std::vector<Record>& records() const { return records_; }
  double runner_s() const { return runner_s_; }

 private:
  std::vector<core::Observation> forward(
      const core::Allocation& alloc, const std::vector<std::size_t>& workloads,
      bool batch) {
    const double begin = monotonic_s();
    Scope span(session_.tracer(), "core.runner_batch", parent_);
    const exp::SoftConfig soft = exp::RunnerAdapter::to_soft_config(alloc);
    std::vector<core::Observation> out;
    if (session_.tracer() == nullptr) {
      try {
        if (batch) {
          out = adapter_.run_batch(alloc, workloads);
        } else {
          out.push_back(adapter_.run(alloc, workloads.front()));
        }
      } catch (const std::exception& e) {
        for (const std::size_t w : workloads) {
          session_.fail(session_.add_op(trial_label({&experiment_, soft, w})),
                        std::string("Experiment::run threw: ") + e.what());
        }
        throw;
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        records_.push_back(
            {out[i],
             session_.add_op(trial_label({&experiment_, soft, workloads[i]}))});
      }
    } else {
      std::vector<TrialSpec> specs;
      for (const std::size_t w : workloads) {
        specs.push_back({&experiment_, soft, w});
      }
      for (const Trial* t : session_.issue(specs, span.id())) {
        if (!t->ran) {
          throw std::runtime_error("trial " + trial_label(t->spec) +
                                   " threw: " + t->error);
        }
        out.push_back(exp::RunnerAdapter::to_observation(t->result, slo_s_));
        records_.push_back({out.back(), t->op});
      }
    }
    runner_s_ += monotonic_s() - begin;
    return out;
  }

  Session& session_;
  const exp::Experiment& experiment_;
  double slo_s_;
  exp::RunnerAdapter adapter_;
  Tracer::Id parent_ = Tracer::kRoot;
  std::vector<Record> records_;
  double runner_s_ = 0.0;
};

struct Calibration {
  std::string hw;
  ForwardingRunner runner;
  core::AllocationAlgorithm algorithm;
  std::size_t op;
  core::AllocationReport report;
  bool ran = false;

  Calibration(Session& s, const char* hw_text, double slo_s)
      : hw(hw_text),
        runner(s, s.experiment(topology(hw_text), compressed(s.seed())),
               slo_s),
        algorithm(runner, core::AlgorithmConfig{}),
        op(s.add_op("Algorithm 1 on " + hw)) {}
};

/// AllocationAlgorithm::run, with each public procedure called (and timed)
/// on its own.
void run_algorithm(Session& s, Calibration& c) {
  Layers& L = s.layers();
  const double t0 = monotonic_s();
  try {
    core::CriticalResourceResult crit;
    {
      Scope span(s.tracer(), "core.find_critical_resource", s.workload_span(),
                 0, c.hw);
      c.runner.set_parent(span.id());
      crit = c.algorithm.find_critical_resource();
    }
    const double t1 = monotonic_s();
    L.find_critical_resource_s += t1 - t0;
    if (crit.status != core::AlgorithmStatus::kOk &&
        crit.status != core::AlgorithmStatus::kMultiBottleneck) {
      c.report.status = crit.status;
      c.report.critical = crit;
      c.report.experiments_run = c.algorithm.experiments_run();
    } else {
      core::MinJobsResult jobs;
      {
        Scope span(s.tracer(), "core.infer_min_concurrent_jobs",
                   s.workload_span(), 0, c.hw);
        c.runner.set_parent(span.id());
        jobs = c.algorithm.infer_min_concurrent_jobs(crit);
      }
      const double t2 = monotonic_s();
      L.infer_min_concurrent_jobs_s += t2 - t1;
      {
        Scope span(s.tracer(), "core.calculate_min_allocation",
                   s.workload_span(), 0, c.hw);
        c.runner.set_parent(span.id());
        c.report = c.algorithm.calculate_min_allocation(crit, jobs);
      }
      L.calculate_min_allocation_s += monotonic_s() - t2;
    }
    c.ran = true;
  } catch (const std::exception& e) {
    s.fail(c.op, std::string("Algorithm 1 threw: ") + e.what());
  }
  L.algorithm_s += monotonic_s() - t0;
}

/// Table I's verdicts: status ok and the expected critical CPU.
void expect_critical(Session& s, const Calibration& c, core::Tier tier,
                     const std::string& server_prefix) {
  if (!c.ran) return;
  const core::AllocationReport& r = c.report;
  const std::string& res = r.critical.critical_resource;
  const bool cpu = res.size() > 4 && res.compare(res.size() - 4, 4, ".cpu") == 0;
  if (r.status == core::AlgorithmStatus::kOk && r.critical.critical_tier == tier &&
      res.rfind(server_prefix, 0) == 0 && cpu) {
    return;
  }
  s.fail(c.op, std::string("status ") + core::to_string(r.status) +
                   ", critical resource '" + res + "', expected " +
                   server_prefix + "*.cpu");
}

}  // namespace

void calibration(Session& s) {
  // bench_table1: SLO 1 s, default AlgorithmConfig, untraced trials.
  Calibration app(s, "1/2/1/2", 1.0);
  Calibration mid(s, "1/4/1/4", 1.0);

  if (!s.start("calibration")) return;
  run_algorithm(s, app);
  run_algorithm(s, mid);
  s.stop();

  account_trials(s);
  Layers& L = s.layers();
  for (const Calibration* c : {&app, &mid}) {
    for (const ForwardingRunner::Record& rec : c->runner.records()) {
      check_forced_flow(s, rec.op, rec.obs);
      digest_observation(s.digest(), rec.obs);
    }
    digest_report(s.digest(), c->report);
    L.trials_executed += c->runner.records().size();
    L.trials_consumed += c->algorithm.experiments_run();
    L.runner_s += c->runner.runner_s();
    std::cout << "Table I " << c->hw << ": "
              << core::to_string(c->report.status) << ", critical "
              << c->report.critical.critical_resource << ", recommended "
              << c->report.recommended.to_string() << ", "
              << c->algorithm.experiments_run() << " trials consumed, "
              << c->runner.records().size() << " executed\n";
  }
  expect_critical(s, app, core::Tier::kApp, "tomcat");
  expect_critical(s, mid, core::Tier::kMiddleware, "cjdbc");
}

// ---------------------------------------------------------------------------
// governed_tenants: bench_governor's flash crowd and diurnal wave, then
// bench_tenants' two-tenant strategy sweep.

namespace {

/// bench_governor's scenario schedule: 5 s ramp-up, SLO 1 s.
exp::ExperimentOptions scenario(std::uint64_t seed, double runtime_s) {
  exp::ExperimentOptions opts = compressed(seed);
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = runtime_s;
  opts.client.ramp_down_s = 3.0;
  opts.sla_threshold_s = 1.0;
  return opts;
}

exp::ExperimentOptions governed(exp::ExperimentOptions opts) {
  opts.governor = core::GovernorConfig{};
  opts.governor.enabled = true;
  return opts;
}

double tenant_goodput(const Trial& t, const std::string& tenant) {
  const exp::TenantStat* stat = t.result.find_tenant(tenant);
  return stat != nullptr ? stat->goodput : 0.0;
}

/// exp::TenantStrategyOutcome::greedy_gain_pct for one honest/greedy pair.
double greedy_gain_pct(const Trial& honest, const Trial& greedy,
                       const std::string& tenant) {
  const double h = tenant_goodput(honest, tenant);
  return h > 0.0 ? 100.0 * (tenant_goodput(greedy, tenant) - h) / h : 0.0;
}

}  // namespace

void governed_tenants(Session& s) {
  // Flash crowd, 1/4/1/4, 2500 -> 7000 -> 2500 users: the static candidates
  // of exp::governed_sweep, then one governed trial from the liberal one.
  const exp::TestbedConfig c1414 = topology("1/4/1/4");
  exp::ExperimentOptions flash = scenario(s.seed(), 150.0);
  flash.client.load_schedule =
      softres::workload::flash_crowd_schedule(2500, 7000, 60.0, 50.0);
  const exp::Experiment& flash_static = s.experiment(c1414, flash);
  const exp::Experiment& flash_governed = s.experiment(c1414, governed(flash));
  const std::vector<exp::SoftConfig> candidates = {
      {400, 200, 200}, {200, 100, 100}, {150, 60, 60}, {100, 30, 30}};
  std::vector<TrialSpec> flash_specs;
  for (const exp::SoftConfig& c : candidates) {
    flash_specs.push_back({&flash_static, c, 7000});
  }

  // Diurnal wave, 1/2/1/2, 1500 <-> 5000 users: static vs governed.
  const exp::TestbedConfig c1212 = topology("1/2/1/2");
  exp::ExperimentOptions wave = scenario(s.seed(), 120.0);
  wave.client.load_schedule =
      softres::workload::diurnal_schedule(1500, 5000, 60.0, 120.0);
  const exp::SoftConfig liberal{400, 200, 200};
  const TrialSpec wave_static{&s.experiment(c1212, wave), liberal, 5000};
  const TrialSpec wave_governed{&s.experiment(c1212, governed(wave)), liberal,
                                5000};

  // Two tenants on saturated app-tier pools (10x demands, 1 s think), each
  // strategy honest and with "gold" misreporting 8x, as exp::tenant_sweep
  // builds its variants.
  exp::TestbedConfig contended = exp::TestbedConfig::defaults();
  contended.demands.tomcat_base_s *= 10.0;
  contended.demands.cjdbc_per_query_s *= 10.0;
  contended.demands.mysql_per_query_s *= 10.0;
  exp::ExperimentOptions tenants = compressed(s.seed());
  tenants.client.think_time_mean_s = 1.0;
  softres::workload::TenantSpec gold;
  gold.name = "gold";
  gold.users = 120;
  softres::workload::TenantSpec silver;
  silver.name = "silver";
  silver.users = 120;
  const std::vector<softres::soft::ShareStrategy> strategies = {
      softres::soft::ShareStrategy::kStaticSplit,
      softres::soft::ShareStrategy::kWorkConserving,
      softres::soft::ShareStrategy::kKarmaCredits,
  };
  std::vector<TrialSpec> tenant_specs;
  for (const softres::soft::ShareStrategy strategy : strategies) {
    for (const bool greedy : {false, true}) {
      exp::ExperimentOptions opts = tenants;
      opts.client.tenants = {gold, silver};
      if (greedy) opts.client.tenants[0].reported_demand *= 8.0;
      opts.partition.strategy = strategy;
      tenant_specs.push_back(
          {&s.experiment(contended, opts), {200, 4, 8}, 240});
    }
  }

  if (!s.start("governed_tenants")) return;
  std::vector<Trial*> flash_runs;
  std::vector<Trial*> flash_gov;
  std::vector<Trial*> tenant_runs;
  {
    Scope span(s.tracer(), "governor.flash_crowd", s.workload_span());
    flash_runs = s.issue(flash_specs, span.id());
    flash_gov = s.issue({{&flash_governed, candidates.front(), 7000}},
                        span.id());
  }
  {
    Scope span(s.tracer(), "governor.diurnal", s.workload_span());
    s.issue({wave_static}, span.id());
    s.issue({wave_governed}, span.id());
  }
  {
    Scope span(s.tracer(), "tenants.sweep", s.workload_span());
    tenant_runs = s.issue(tenant_specs, span.id());
  }
  s.stop();

  account_trials(s);
  check_results(s);
  Layers& L = s.layers();
  L.trials_executed = L.trials_consumed = s.trials().size();

  // Reported, not gated: the governed trial beats the best static candidate
  // at some seeds and not at others (see README.md).
  const Trial* best = nullptr;
  for (const Trial* t : flash_runs) {
    if (t->ran && (best == nullptr || t->result.goodput(1.0) >
                                          best->result.goodput(1.0))) {
      best = t;
    }
  }
  const Trial& gov = *flash_gov.front();
  if (best != nullptr && gov.ran) {
    L.governor_advantage_rps =
        gov.result.goodput(1.0) - best->result.goodput(1.0);
    std::cout << "governor advantage over best static ("
              << best->spec.soft.to_string()
              << "): " << L.governor_advantage_rps << " req/s\n";
  }

  // bench_tenants' strategy-proofness verdicts; tenant_runs holds each
  // strategy's honest run, then its greedy run.
  const Trial& wc_honest = *tenant_runs[2];
  const Trial& wc_greedy = *tenant_runs[3];
  const Trial& karma_honest = *tenant_runs[4];
  const Trial& karma_greedy = *tenant_runs[5];
  if (wc_honest.ran && wc_greedy.ran) {
    const double gain = greedy_gain_pct(wc_honest, wc_greedy, "gold");
    if (gain <= 5.0) {
      s.fail(wc_greedy.op, "work-conserving liar gain " +
                               std::to_string(gain) + "% <= 5%");
    }
  }
  if (karma_honest.ran && karma_greedy.ran) {
    const double gain = greedy_gain_pct(karma_honest, karma_greedy, "gold");
    if (gain > 1.0) {
      s.fail(karma_greedy.op,
             "karma liar gain " + std::to_string(gain) + "% > 1%");
    }
  }
  expect_diagnosis(s, wc_greedy, Pathology::kNoisyNeighbor);
  if (wc_greedy.ran) {
    const auto& implicated = wc_greedy.result.diagnosis.implicated_resources;
    if (implicated.empty() || implicated.front() != "tenant:gold") {
      s.fail(wc_greedy.op, "noisy-neighbour verdict does not lead with "
                           "tenant:gold");
    }
  }
}

}  // namespace perfbench

// Per-layer measurements of the traced run: the serial replica pass that
// reads every component's public counters, the ladder rungs that time one
// public call of one module in isolation, and the named metric table.

#include <algorithm>
#include <memory>

#include "exp/run_context.h"
#include "exp/testbed.h"
#include "harness.h"
#include "hw/cpu.h"
#include "obs/tail.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "soft/pool.h"
#include "tier/request.h"

namespace perfbench {

void replica_pass(Session& s) {
  Layers& L = s.layers();
  Tracer* tracer = s.tracer();
  Scope root(tracer, "replica", Tracer::kRoot);
  for (const Trial& t : s.trials()) {
    if (!t.ran) continue;
    const exp::Experiment& e = *t.spec.experiment;
    const exp::ExperimentOptions& opts = e.options();
    exp::TestbedConfig cfg = e.base_config();
    cfg.soft = t.spec.soft;
    softres::workload::ClientConfig client = opts.client;
    client.users = t.spec.users;
    const std::uint64_t group = t.result.trial_seed;
    Scope trial(tracer, "replica.trial", root.id(), group);
    try {
      // Built exactly as Experiment::run builds a trial; the testbed is
      // destroyed before the context it is wired onto.
      const double t0 = monotonic_s();
      std::unique_ptr<exp::RunContext> ctx;
      std::unique_ptr<exp::Testbed> bed;
      {
        Scope span(tracer, "exp.build", trial.id(), group);
        ctx = std::make_unique<exp::RunContext>(opts.client.seed, cfg,
                                                t.spec.users, opts.governor,
                                                opts.partition);
        client.seed = ctx->trial_seed();
        bed = std::make_unique<exp::Testbed>(*ctx, cfg, client);
      }
      const double t1 = monotonic_s();
      {
        Scope span(tracer, "sim.run", trial.id(), group);
        bed->run();
      }
      const double t2 = monotonic_s();
      L.build_s += t1 - t0;
      L.run_s += t2 - t1;
      ++L.replicas;

      const softres::workload::ClientFarm& farm = bed->farm();
      L.events += ctx->simulator().events_executed();
      L.pages += farm.pages_started();
      L.window_pages += farm.response_times().count();
      for (const auto& node : bed->nodes()) {
        L.cpu_jobs += node->cpu().jobs_completed();
      }
      for (const auto& entry : bed->pool_set().entries()) {
        L.pool_acquires += entry.pool->total_acquired();
        L.pool_waits += entry.pool->wait_stats().count();
        L.pool_wait_s_sum += entry.pool->wait_stats().sum();
        L.drained_units += entry.pool->drained_total();
      }
      for (const auto& tomcat : bed->tomcats()) {
        L.jvm_collections += tomcat->jvm().collections();
        L.jvm_gc_s += tomcat->jvm().total_gc_seconds();
      }
      for (const auto& cjdbc : bed->cjdbcs()) {
        L.jvm_collections += cjdbc->jvm().collections();
        L.jvm_gc_s += cjdbc->jvm().total_gc_seconds();
      }
      L.request_slab_peak =
          std::max(L.request_slab_peak, ctx->requests().allocated());

      ctx->traces().collect(farm.traced_requests());
      softres::obs::TailConfig tail_cfg;
      tail_cfg.slo_threshold_s = opts.sla_threshold_s;
      const double t3 = monotonic_s();
      const softres::obs::TailAttribution tail =
          softres::obs::TailAttributor(tail_cfg).attribute(
              ctx->traces().traces());
      L.tail_attribute_s += monotonic_s() - t3;

      if (farm.window_throughput() != t.result.throughput ||
          tail.requests != t.result.tail.requests) {
        s.fail(t.op, "replica gave throughput " +
                         std::to_string(farm.window_throughput()) + " and " +
                         std::to_string(tail.requests) +
                         " traced requests, the trial " +
                         std::to_string(t.result.throughput) + " and " +
                         std::to_string(t.result.tail.requests));
      }
      bed.reset();
      ctx.reset();
    } catch (const std::exception& ex) {
      s.fail(t.op, std::string("replica threw: ") + ex.what());
    }
  }
}

// ---------------------------------------------------------------------------
// Rungs. Each reports the median over rounds of host ns per operation; the
// random streams derive from the base seed through RunContext::derive_seed,
// as bench/bench_kernel.cpp seeds its kernel microbenchmarks.

namespace {

constexpr int kRounds = 15;

double median(const softres::sim::SampleSet& samples) {
  return samples.quantile(0.5);
}

/// ns per Simulator::schedule + step pair with `depth` events standing.
double queue_rung(std::uint64_t seed, std::size_t depth) {
  softres::sim::Simulator sim;
  softres::sim::Rng rng(exp::RunContext::derive_seed(
      seed, exp::HardwareConfig{}, exp::SoftConfig{}, depth));
  for (std::size_t i = 0; i < depth; ++i) sim.schedule(rng.next_double(), [] {});
  std::vector<double> delays(100000);
  for (double& d : delays) d = rng.next_double();
  softres::sim::SampleSet ns;
  for (int round = 0; round < kRounds; ++round) {
    const double t0 = monotonic_s();
    for (const double d : delays) {
      sim.schedule(d, [] {});
      sim.step();
    }
    ns.add(1e9 * (monotonic_s() - t0) / static_cast<double>(delays.size()));
  }
  return median(ns);
}

/// ns per Cpu::submit, run to completion with `concurrency` jobs sharing
/// one processor-sharing core.
double cpu_rung(std::size_t concurrency) {
  constexpr int kRepeats = 40;
  softres::sim::SampleSet ns;
  for (int round = 0; round < kRounds; ++round) {
    double elapsed = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      softres::sim::Simulator sim;
      softres::hw::Cpu cpu(sim, "c", 1);
      const double t0 = monotonic_s();
      for (std::size_t i = 0; i < concurrency; ++i) {
        cpu.submit(0.001 * static_cast<double>(i + 1), [] {});
      }
      sim.run();
      elapsed += monotonic_s() - t0;
    }
    ns.add(1e9 * elapsed / static_cast<double>(kRepeats * concurrency));
  }
  return median(ns);
}

/// ns per Pool::acquire + release pair on a full pool: the acquire queues a
/// waiter and the release admits it.
double pool_rung() {
  softres::sim::Simulator sim;
  softres::soft::Pool pool(sim, "p", 4);
  for (int i = 0; i < 4; ++i) pool.acquire([] {});
  constexpr int kPairs = 200000;
  softres::sim::SampleSet ns;
  for (int round = 0; round < kRounds; ++round) {
    const double t0 = monotonic_s();
    for (int i = 0; i < kPairs; ++i) {
      pool.acquire([&pool] { pool.release(); });
      pool.release();
    }
    ns.add(1e9 * (monotonic_s() - t0) / kPairs);
  }
  return median(ns);
}

}  // namespace

void measure_rungs(Session& s) {
  Layers& L = s.layers();
  Scope root(s.tracer(), "rungs", Tracer::kRoot);
  const std::size_t depths[3] = {1000, 10000, 100000};
  for (int i = 0; i < 3; ++i) {
    Scope span(s.tracer(), "rung.queue", root.id(), depths[i]);
    L.queue_ns[i] = queue_rung(s.seed(), depths[i]);
  }
  {
    Scope span(s.tracer(), "rung.cpu_ps", root.id());
    L.cpu_ps_ns = cpu_rung(100);
  }
  {
    Scope span(s.tracer(), "rung.pool", root.id());
    L.pool_ns = pool_rung();
  }
}

// ---------------------------------------------------------------------------

std::vector<LayerMetric> per_layer_metrics(const Layers& L) {
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double pages = d(L.pages);
  const double replicas = d(L.replicas);
  const double trials = d(L.trial_s.count());
  const std::string per_trial = "per trial, over " +
                                std::to_string(L.trial_s.count()) + " trials";
  const std::string per_replica =
      "per trial, over " + std::to_string(L.replicas) + " replicas";
  const auto tier_rt = [&](int i) {
    return 1e3 * per(L.tier_rt_x[i], L.tier_x[i]);
  };
  const char* const kRtBase = "throughput-weighted over the tier's servers";
  softres::sim::SampleSet trial_s = L.trial_s;
  const double p50 = trial_s.count() > 0 ? trial_s.quantile(0.5) : 0.0;
  const double max = trial_s.count() > 0 ? trial_s.quantile(1.0) : 0.0;

  return {
      {"sim.events", d(L.events), "count", "count", "replica pass"},
      {"sim.events_per_page", per(d(L.events), pages), "count/page", "count",
       "pages started (ClientFarm::pages_started)"},
      {"sim.run_s", L.run_s, "s", "host", "sum of Testbed::run"},
      {"sim.ns_per_event", 1e9 * per(L.run_s, d(L.events)), "ns", "host",
       "events executed in Testbed::run"},
      {"sim.queue_ns.d1k", L.queue_ns[0], "ns", "host",
       "per schedule+step pair at depth 1000"},
      {"sim.queue_ns.d10k", L.queue_ns[1], "ns", "host",
       "per schedule+step pair at depth 10000"},
      {"sim.queue_ns.d100k", L.queue_ns[2], "ns", "host",
       "per schedule+step pair at depth 100000"},
      {"workload.trials", trials, "count", "count", ""},
      {"workload.pages", pages, "count", "count", ""},
      {"hw.cpu_jobs_per_page", per(d(L.cpu_jobs), pages), "count/page",
       "count", "pages started"},
      {"hw.cpu_ps_ns.c100", L.cpu_ps_ns, "ns", "host",
       "per Cpu::submit with 100 concurrent jobs"},
      {"soft.acquires_per_page", per(d(L.pool_acquires), d(L.window_pages)),
       "count/page", "count", "pages completed in the measurement window"},
      {"soft.drained_units", d(L.drained_units), "count", "count", ""},
      {"soft.wait_ms", 1e3 * per(L.pool_wait_s_sum, d(L.pool_waits)), "ms",
       "sim", "mean over acquisitions in the measurement window"},
      {"soft.pool_ns", L.pool_ns, "ns", "host",
       "per acquire+release pair with a waiter queued"},
      {"jvm.collections", d(L.jvm_collections), "count", "count", ""},
      {"jvm.gc_s", L.jvm_gc_s, "s", "sim", "summed over JVMs, whole trial"},
      {"tier.apache.rt_ms", tier_rt(0), "ms", "sim", kRtBase},
      {"tier.tomcat.rt_ms", tier_rt(1), "ms", "sim", kRtBase},
      {"tier.cjdbc.rt_ms", tier_rt(2), "ms", "sim", kRtBase},
      {"tier.mysql.rt_ms", tier_rt(3), "ms", "sim", kRtBase},
      {"obs.traced_requests", d(L.traced_requests), "count", "count", ""},
      {"obs.series_samples", d(L.series_samples), "count", "count",
       "retained in RunResult::series"},
      {"obs.tail_attribute_ms", 1e3 * per(L.tail_attribute_s, replicas), "ms",
       "host", per_replica},
      {"exp.trial_s_p50", p50, "s", "host", per_trial},
      {"exp.trial_s_max", max, "s", "host", per_trial},
      {"exp.build_ms", 1e3 * per(L.build_s, replicas), "ms", "host",
       per_replica},
      {"exp.executor_busy_share", per(L.trial_s.mean() * trials,
                                      L.batch_worker_s),
       "share", "host", "workers x batch wall time"},
      {"exp.queue_wait_s", L.queue_wait_s, "s", "host",
       "summed over trials, batch submit to trial start"},
      {"core.trials_executed", d(L.trials_executed), "count", "count", ""},
      {"core.trials_consumed", d(L.trials_consumed), "count", "count", ""},
      {"core.speculation_useful_share",
       per(d(L.trials_consumed), d(L.trials_executed)), "share", "count",
       "trials executed"},
      {"core.find_critical_resource_s", L.find_critical_resource_s, "s",
       "host", ""},
      {"core.infer_min_concurrent_jobs_s", L.infer_min_concurrent_jobs_s, "s",
       "host", ""},
      {"core.calculate_min_allocation_s", L.calculate_min_allocation_s, "s",
       "host", ""},
      {"core.runner_share", per(L.runner_s, L.algorithm_s), "share", "host",
       "Algorithm-1 wall time"},
      {"core.governor_resizes", d(L.governor_resizes), "count", "count", ""},
      {"core.governor_advantage_rps", L.governor_advantage_rps, "req/s",
       "sim", "governed minus best static goodput at 1 s"},
      {"mem.steady_allocs_per_trial", per(d(L.allocs.steady), trials),
       "count/trial", "count", per_trial},
      {"mem.setup_allocs_per_trial", per(d(L.allocs.setup), trials),
       "count/trial", "count", per_trial},
      {"mem.request_bytes", d(sizeof(softres::tier::Request)), "B", "count",
       "sizeof(tier::Request)"},
      {"mem.request_slab_peak", d(L.request_slab_peak), "count", "count",
       "highest RequestArena::allocated()"},
  };
}

}  // namespace perfbench

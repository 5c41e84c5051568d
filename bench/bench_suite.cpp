// The CI performance suite (google-benchmark): a small, stable set of
// whole-system benchmarks whose JSON output is the repo's checked-in
// performance baseline (bench/baseline/<platform>.json) and the
// BENCH_softres.json snapshot at the repo root. The CI bench job runs
//
//   bench_suite --benchmark_format=json --benchmark_out=BENCH_softres.json
//               --profile --profile-out=profile.folded
//
// and tools/bench_diff compares the result against the baseline, failing
// the build on a >20% geomean regression (see DESIGN.md §9) and printing a
// per-subsystem attribution table from the embedded "profile" block
// (DESIGN.md §11).
//
// The suite is a ladder from the bottom of the stack up: the simulator's
// pending set (BM_EventQueueDepth, BM_EventQueueTrialMix), the CPU and pool
// models (BM_CpuProcessorSharing, BM_PoolAcquireRelease, BM_PoolContended),
// one trial (BM_TrialEventRate, BM_TraceAttribution), one contended trial
// at a paper operating point (BM_ContendedTrial) and a sweep
// (BM_SweepThroughput).
//
// Reported per benchmark, beyond wall time:
//   items_per_second        trials/s (sweep benches), events/s or
//                           operations/s (kernel rungs)
//   events_per_s            simulator dispatch rate
//   ns_per_event            wall nanoseconds per dispatched event
//   allocs_per_trial        steady-state operator-new calls per trial
//                           (ramp-up through ramp-down; the arena/freelist
//                           work is only proven by this staying flat)
//   setup_allocs_per_trial  setup-phase operator-new calls per trial
//                           (topology build + registry construction),
//                           reported separately so one-time construction
//                           cost can't mask a steady-state regression
//
// Keep this suite SMALL and its arguments FIXED: every entry is a contract
// with the baseline file, and renaming or re-parameterizing a benchmark
// silently drops it from the regression comparison (bench_diff warns on
// unmatched names).
//
// The --profile pass runs *after* the gated benchmarks so the timed numbers
// are never perturbed by instrumentation: a dedicated serial sweep with the
// profiler on, whose merged snapshot is printed as a table, written as a
// collapsed-stack file (flamegraph.pl / speedscope), and spliced into the
// --benchmark_out JSON as a top-level "profile" block.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#define SOFTRES_BENCH_ALLOC_LEDGER  // install the counting-allocator hooks
#include "bench_util.h"
#include "exp/config.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/run_context.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "hw/cpu.h"
#include "obs/profiler.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "soft/pool.h"
#include "tier/request.h"

using namespace softres;

namespace {

exp::TestbedConfig suite_config() {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  // 10x demands keep individual trials short without changing the event mix.
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  return cfg;
}

exp::ExperimentOptions suite_options() {
  exp::ExperimentOptions opts;
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 20.0;
  opts.client.ramp_down_s = 2.0;
  return opts;
}

// Seed-derivation contract: even a kernel rung derives its stream from the
// bench point's identity (its size in the users slot), never from an ad-hoc
// literal.
std::uint64_t kernel_seed(std::size_t size) {
  return exp::RunContext::derive_seed(1, exp::HardwareConfig{},
                                      exp::SoftConfig{}, size);
}

// Pending set under uniform [0, 1) s delays: range(0) events are scheduled,
// then drained. The 100k point is the adversarial case for the timing wheel
// (a quarter of the entries share buckets ~25 deep).
void BM_EventQueueDepth(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::Rng rng(kernel_seed(depth));  // SOFTRES_LINT_ALLOW(SR004: derived)
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule(rng.next_double(), [] {});
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(depth));
}
BENCHMARK(BM_EventQueueDepth)->Arg(1000)->Arg(10000)->Arg(100000);

// Pending set under a trial's traffic: ~6k timers standing (think timers,
// due uniformly over the next 14 s) and each schedule + step pair drawing
// its delay from the push histogram of serial Fig 4/5 trials (DESIGN.md
// §9): 15.5 % under 0.1 ms, 69.5 % 0.1-1 ms, 10 % 1-10 ms, 2 % 10-100 ms,
// 0.3 % 0.1-1 s, 2.7 % 1-14 s, log-uniform within a band.
void BM_EventQueueTrialMix(benchmark::State& state) {
  constexpr std::size_t kStanding = 6000;
  sim::Rng rng(kernel_seed(kStanding));  // SOFTRES_LINT_ALLOW(SR004: derived)
  const auto band = [&rng](double lo, double hi) {
    return lo * std::exp(rng.next_double() * std::log(hi / lo));
  };
  const auto delay = [&rng, &band] {
    const double u = rng.next_double();
    if (u < 0.155) return band(1e-6, 1e-4);
    if (u < 0.850) return band(1e-4, 1e-3);
    if (u < 0.950) return band(1e-3, 1e-2);
    if (u < 0.970) return band(1e-2, 1e-1);
    if (u < 0.973) return band(1e-1, 1.0);
    return 1.0 + 13.0 * rng.next_double();
  };
  std::vector<double> delays(1 << 16);
  for (double& d : delays) d = delay();
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const auto fire = [&fired] { ++fired; };
  for (std::size_t i = 0; i < kStanding; ++i) {
    sim.schedule(14.0 * rng.next_double(), fire);
  }
  for (const double d : delays) {  // warm-up: the near traffic settles
    sim.schedule(d, fire);
    sim.step();
  }
  std::size_t next = 0;
  for (auto _ : state) {
    sim.schedule(delays[next++ & (delays.size() - 1)], fire);
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["pending"] = static_cast<double>(sim.events_pending());
}
BENCHMARK(BM_EventQueueTrialMix);

// Processor-sharing CPU: range(0) jobs submitted at once, run to completion.
void BM_CpuProcessorSharing(benchmark::State& state) {
  const auto concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    hw::Cpu cpu(sim, "c", 1);
    int done = 0;
    state.ResumeTiming();
    for (int i = 0; i < concurrency; ++i) {
      cpu.submit(0.001 * (i + 1), [&done] { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          concurrency);
}
BENCHMARK(BM_CpuProcessorSharing)->Arg(10)->Arg(100)->Arg(500);

// Pool grant fast path: acquire and release with a unit free.
void BM_PoolAcquireRelease(benchmark::State& state) {
  sim::Simulator sim;
  soft::Pool pool(sim, "p", 16);
  for (auto _ : state) {
    pool.acquire([] {});
    pool.release();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PoolAcquireRelease);

// Pool wait path: every acquire queues, and the release admits the waiter.
void BM_PoolContended(benchmark::State& state) {
  sim::Simulator sim;
  soft::Pool pool(sim, "p", 4);
  for (int i = 0; i < 4; ++i) pool.acquire([] {});
  for (auto _ : state) {
    pool.acquire([&pool] { pool.release(); });  // waits, then releases
    pool.release();                             // admits the waiter
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PoolContended);

// Sweep throughput in trials/s — the headline number. range(0) is the
// parallel-executor pool size (1 = strictly serial, 0 = all cores).
void BM_SweepThroughput(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const exp::Experiment e(suite_config(), suite_options());
  const auto workloads = exp::workload_range(100, 800, 100);  // 8 trials

  std::uint64_t trials = 0;
  double tp_checksum = 0.0;
  const bench::AllocDelta allocs;
  for (auto _ : state) {
    const auto results =
        exp::sweep_workload(e, exp::SoftConfig{50, 10, 10}, workloads, jobs);
    trials += results.size();
    for (const auto& r : results) tp_checksum += r.throughput;
  }
  benchmark::DoNotOptimize(tp_checksum);
  state.SetItemsProcessed(static_cast<int64_t>(trials));
  if (trials > 0) {
    state.counters["allocs_per_trial"] =
        static_cast<double>(allocs.steady()) / static_cast<double>(trials);
    state.counters["setup_allocs_per_trial"] =
        static_cast<double>(allocs.setup()) / static_cast<double>(trials);
  }
  state.SetLabel("jobs=" + std::to_string(
                     jobs ? jobs : exp::ParallelExecutor::default_jobs()));
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Runs the standalone trial (cfg, client) once per iteration and reports
// the engine's per-trial counters: events/s, ns/event and allocs/trial.
// Returns the largest request slab any iteration carved.
std::size_t run_trials(benchmark::State& state, const exp::TestbedConfig& cfg,
                       const workload::ClientConfig& client) {
  std::uint64_t events = 0;
  std::uint64_t trials = 0;
  std::size_t slab_peak = 0;
  const bench::AllocDelta allocs;
  for (auto _ : state) {
    // Standalone Testbeds don't go through Experiment::run, so mark the
    // phase boundary by hand for the allocation ledger.
    SOFTRES_PROF_PHASE(kSetup);
    exp::Testbed bed(cfg, client);
    bed.run();
    events += bed.simulator().events_executed();
    slab_peak = std::max(slab_peak, bed.context().requests().allocated());
    ++trials;
  }
  SOFTRES_PROF_PHASE(kSetup);
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  // (events * 1e-9 / elapsed)^-1 = elapsed_ns / events.
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(events) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  if (trials > 0) {
    state.counters["allocs_per_trial"] =
        static_cast<double>(allocs.steady()) / static_cast<double>(trials);
    state.counters["setup_allocs_per_trial"] =
        static_cast<double>(allocs.setup()) / static_cast<double>(trials);
  }
  return slab_peak;
}

// One full testbed trial at a fixed population: event rate and per-event
// cost of the end-to-end engine (queue, callbacks, tiers, client farm).
void BM_TrialEventRate(benchmark::State& state) {
  workload::ClientConfig client;
  client.users = static_cast<std::size_t>(state.range(0));
  client.ramp_up_s = 5.0;
  client.runtime_s = 15.0;
  client.ramp_down_s = 2.0;
  run_trials(state, exp::TestbedConfig::defaults(), client);
}
BENCHMARK(BM_TrialEventRate)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// The contended rung: the trial of the Fig 5 allocation census (1/4/1/4,
// 400-200-200 at 7800 users, the figure benches' compressed 20/60/3 s
// schedule, seed 42). The rungs above never queue at a pool; here thousands
// of requests wait for Tomcat threads and DB connections at once, so this
// is where bytes per request and queue allocations show.
void BM_ContendedTrial(benchmark::State& state) {
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig::parse("1/4/1/4");
  cfg.soft = exp::SoftConfig::parse("400-200-200");
  workload::ClientConfig client;
  client.users = 7800;
  client.ramp_up_s = 20.0;
  client.runtime_s = 60.0;
  client.ramp_down_s = 3.0;
  const std::size_t slab_peak = run_trials(state, cfg, client);
  state.counters["request_slab_peak"] = static_cast<double>(slab_peak);
  state.counters["request_bytes"] = static_cast<double>(sizeof(tier::Request));
}
BENCHMARK(BM_ContendedTrial)->Unit(benchmark::kMillisecond);

// Cost of the request-tracing + tail-attribution pipeline on one trial.
// range(0) is the trace sample rate in percent: 0 = tracing off (the
// baseline trial), 100 = trace every request up to the collector cap, build
// span trees, decompose blame vectors and attribute the percentile cohorts.
// The pair bounds the observability overhead a traced trial pays end to end;
// the tracing-off entry keeps the comparison honest if the baseline trial
// itself drifts.
void BM_TraceAttribution(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  exp::ExperimentOptions opts = suite_options();
  opts.set_trace_sample_rate(rate);
  const exp::Experiment e(suite_config(), opts);

  std::uint64_t trials = 0;
  std::uint64_t attributed = 0;
  double blame_checksum = 0.0;
  const bench::AllocDelta allocs;
  for (auto _ : state) {
    const exp::RunResult r = e.run(exp::SoftConfig{50, 10, 10}, 400);
    attributed += r.tail.requests;
    for (const auto& c : r.tail.cohorts) {
      for (double b : c.blame_s) blame_checksum += b;
    }
    ++trials;
  }
  benchmark::DoNotOptimize(blame_checksum);
  state.SetItemsProcessed(static_cast<int64_t>(trials));
  if (trials > 0) {
    state.counters["traced_per_trial"] =
        static_cast<double>(attributed) / static_cast<double>(trials);
    state.counters["allocs_per_trial"] =
        static_cast<double>(allocs.steady()) / static_cast<double>(trials);
    state.counters["setup_allocs_per_trial"] =
        static_cast<double>(allocs.setup()) / static_cast<double>(trials);
  }
}
BENCHMARK(BM_TraceAttribution)
    ->Arg(0)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Splice `"profile": {...}` into the root object of the --benchmark_out
/// JSON by inserting before its final closing brace. Done as a string edit
/// because the repo deliberately carries no C++ JSON library.
bool inject_profile_json(const std::string& path,
                         const obs::ProfileSnapshot& snap) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  in.close();
  const std::size_t brace = text.find_last_of('}');
  if (brace == std::string::npos) return false;
  text.insert(brace, ",\n  \"profile\": " + obs::profile_json(snap, 2) + "\n");
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text;
  return out.good();
}

/// The dedicated profiled pass: the same sweep BM_SweepThroughput times,
/// run serially with the profiler on. Serial keeps the collapsed-stack
/// output ordering trivially stable; the count axis would be identical
/// under any jobs value (tests/determinism_test.cc holds that line).
int run_profile_pass(const std::string& folded_path,
                     const std::string& bench_out) {
  exp::ExperimentOptions opts = suite_options();
  opts.profile = true;
  const exp::Experiment e(suite_config(), opts);
  const auto workloads = exp::workload_range(100, 800, 100);
  const auto results =
      exp::sweep_workload(e, exp::SoftConfig{50, 10, 10}, workloads, 1);

  obs::ProfileSnapshot total;
  for (const auto& r : results) total.merge(r.profile);
  std::cout << "\n" << obs::render_profile_table(total);

  std::ofstream folded(folded_path);
  if (!folded) {
    std::cerr << "bench_suite: cannot write " << folded_path << "\n";
    return 1;
  }
  obs::write_collapsed_stacks(folded, total);
  std::cout << "[profile] wrote collapsed stacks to " << folded_path << "\n";

  if (!bench_out.empty()) {
    if (inject_profile_json(bench_out, total)) {
      std::cout << "[profile] embedded profile block in " << bench_out << "\n";
    } else {
      std::cerr << "bench_suite: could not embed profile block in "
                << bench_out << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool profile = exp::env_flag("SOFTRES_PROFILE");
  std::string profile_out = "profile.folded";
  std::string bench_out;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
      continue;
    }
    if (std::strncmp(argv[i], "--profile-out=", 14) == 0) {
      profile = true;
      profile_out = argv[i] + 14;
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      bench_out = argv[i] + 16;
    }
    bench_args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (profile) return run_profile_pass(profile_out, bench_out);
  return 0;
}

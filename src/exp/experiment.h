#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/testbed.h"
#include "metrics/sla.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/tail.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "workload/client_farm.h"

namespace softres::exp {

/// Trial durations and SLA policy. `from_env()` honours SOFTRES_FULL=1 by
/// switching to the paper's 8 min ramp-up / 12 min runtime schedule, and
/// SOFTRES_SEED=<n> as the base seed of the RunContext::derive_seed chain
/// (the one sanctioned way to re-seed benches and examples).
struct ExperimentOptions {
  workload::ClientConfig client;   // users is overridden per run
  double sla_threshold_s = 2.0;    // reporting default, as in the paper

  /// Closed-loop soft-resource governor (disabled by default). When
  /// governor.enabled is set, every trial runs a core::Governor at sampling
  /// cadence that live-resizes the testbed's pools; RunResult::
  /// governor_actions carries the applied resizes.
  core::GovernorConfig governor;

  /// Pool-sharing policy of a multi-tenant trial (strategy kNone by
  /// default). Tenants themselves ride in client.tenants; arbiters are only
  /// built when both are set. Like the governor, the policy is not part of
  /// the trial-seed derivation, so strategies compare on identical arrivals.
  soft::SharePolicy partition;

  /// Opt-in self-profiling (DESIGN.md §11): each trial installs a
  /// prof::Ledger and RunResult::profile carries its counts. from_env()
  /// reads it from SOFTRES_PROFILE=1.
  bool profile = false;

  /// Single switch for tier-by-tier request tracing, plumbed into
  /// ClientConfig::trace_sample_rate (0 = off, the default; 1 = every dynamic
  /// request). from_env() reads it from SOFTRES_TRACE_RATE.
  double trace_sample_rate() const { return client.trace_sample_rate; }
  void set_trace_sample_rate(double rate) {
    client.trace_sample_rate = rate;
  }

  /// When non-empty, every trial writes a flight-recorder HTML report; the
  /// trial's soft allocation and workload are folded into the file name
  /// ("out.html" -> "out_s400-6-60_u6200.html"). from_env() reads it from
  /// SOFTRES_REPORT_HTML. A report that cannot be written makes run() throw
  /// std::runtime_error naming the path.
  std::string report_html;

  /// Reads SOFTRES_FULL, SOFTRES_TRACE_RATE, SOFTRES_SEED,
  /// SOFTRES_REPORT_HTML and SOFTRES_PROFILE; throws std::invalid_argument
  /// naming the variable when a value is malformed (exp::env_flag et al.).
  static ExperimentOptions from_env();
};

struct CpuStat {
  std::string name;
  double util_pct = 0.0;     // mean over the measurement window
  double gc_util_pct = 0.0;  // of which GC freezes
  bool saturated = false;    // util >= kCpuSaturationPct
};

struct PoolStat {
  std::string name;
  std::size_t capacity = 0;
  double util_pct = 0.0;     // mean occupancy over the window
  double mean_wait_ms = 0.0; // queueing delay to obtain a unit
  bool saturated = false;    // density-based rule (soft::is_saturated)
};

struct ServerOps {
  std::string name;
  double throughput = 0.0;  // completions/s in the window
  double mean_rt_s = 0.0;   // per-request residence time
  double avg_jobs = 0.0;    // time-averaged jobs inside (Little's L)
};

/// Per-tenant SLA accounting of a multi-tenant trial (RunResult::tenants;
/// empty for single-tenant runs). goodput/badput split the tenant's window
/// throughput at its own TenantSpec::sla_threshold_s.
struct TenantStat {
  std::string name;
  std::size_t users = 0;
  double sla_threshold_s = 2.0;
  double throughput = 0.0;  // interactions/s in the window
  double goodput = 0.0;     // of which met the tenant SLA
  double badput = 0.0;      // of which violated it
  double mean_rt_s = 0.0;
};

/// Everything one trial produces: the client-side SLA data plus the full
/// monitoring picture the allocation algorithm consumes.
struct RunResult {
  HardwareConfig hw;
  SoftConfig soft;
  std::size_t users = 0;
  double window_s = 0.0;
  /// Seed the trial's RNG streams were derived from: a pure function of
  /// (base seed, topology, soft config, users) — see RunContext::derive_seed.
  std::uint64_t trial_seed = 0;

  sim::SampleSet response_times;  // dynamic requests completed in-window
  double throughput = 0.0;        // interactions/s

  std::vector<CpuStat> cpus;
  std::vector<PoolStat> pools;
  std::vector<ServerOps> servers;
  double cjdbc_gc_seconds = 0.0;   // summed over middleware JVMs
  double tomcat_gc_seconds = 0.0;  // summed over app-server JVMs
  double req_ratio = 0.0;          // workload's queries per interaction

  /// The trial's time-series store, moved out of the testbed: one column per
  /// registry counter and gauge, one sample per 1 s tick of the whole trial.
  obs::Timeline series;

  /// End-of-trial registry snapshot (every probe, counter and histogram);
  /// export with obs::write_prometheus / obs::write_csv.
  obs::Snapshot metrics;
  /// Assembled span trees of the traced requests (empty unless
  /// trace_sample_rate > 0); traces.breakdown() is the Fig 9 analysis.
  obs::TraceCollector traces;
  /// The online diagnoser's verdict over the measurement window, with its
  /// evidence windows; diagnosis.to_hint() feeds core::detect_bottleneck.
  /// diagnosis.tail carries the request-level corroboration when traced.
  obs::Diagnosis diagnosis;
  /// Percentile-cohort blame summary of the traced requests (empty unless
  /// trace_sample_rate > 0). A pure function of the trial's traces, so part
  /// of the bit-identical-across-jobs determinism contract.
  obs::TailAttribution tail;
  /// Self-profiler counts (enabled=false unless ExperimentOptions::profile
  /// was set). Deterministic: bit-identical across jobs=1 / jobs=N sweeps.
  obs::ProfileSnapshot profile;
  /// Resizes applied by the closed-loop governor, in event order (empty for
  /// ungoverned trials). Part of the determinism contract: bit-identical
  /// across jobs=1 / jobs=N sweeps.
  std::vector<core::GovernorAction> governor_actions;
  /// Per-tenant SLA accounting, in tenant-declaration order (empty for
  /// single-tenant trials). Same determinism contract as everything above.
  std::vector<TenantStat> tenants;

  double goodput(double threshold_s) const;
  metrics::SlaSplit sla(double threshold_s) const;
  std::vector<std::string> saturated_hardware() const;
  std::vector<std::string> saturated_soft() const;
  const obs::Series* find_series(const std::string& family,
                                 const obs::Labels& labels = {}) const;
  const CpuStat* find_cpu(const std::string& name) const;
  const ServerOps* find_server(const std::string& name) const;
  const PoolStat* find_pool(const std::string& name) const;
  const TenantStat* find_tenant(const std::string& name) const;
};

inline constexpr double kCpuSaturationPct = 95.0;

/// Runs trials of one hardware configuration: builds a fresh Testbed per
/// (soft allocation, workload) point and condenses its monitoring output.
/// This is the RunExperiment(H, S, workload) primitive of Algorithm 1.
///
/// Thread-safety contract: `run` is const and re-entrant. Each call builds a
/// private RunContext (simulator, RNG, registry, trace collector) and a
/// fresh Testbed on top of it, touching no mutable Experiment state and no
/// globals, so any number of `run` calls may execute concurrently on one
/// Experiment — this is what ParallelExecutor-based sweeps rely on. Results
/// are independent of interleaving because each trial's RNG streams are
/// seeded from the trial's identity, never from run order.
class Experiment {
 public:
  Experiment(TestbedConfig base, ExperimentOptions opts);

  RunResult run(const SoftConfig& soft, std::size_t users) const;

  /// The seed `run(soft, users)` will derive its trial streams from.
  std::uint64_t trial_seed(const SoftConfig& soft, std::size_t users) const;

  const TestbedConfig& base_config() const { return base_; }
  const ExperimentOptions& options() const { return opts_; }

 private:
  TestbedConfig base_;
  ExperimentOptions opts_;
};

}  // namespace softres::exp

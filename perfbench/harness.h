#pragma once

// Shared pieces of the repository benchmark: host clocks, the span recorder
// of the traced run, the result digest, and the per-workload Session that
// issues trials and keeps the operation ledger. Everything here sits outside
// the simulator: it times calls into the public API of src/ and reads public
// counters, nothing more.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/runner.h"
#include "exp/experiment.h"
#include "sim/stats.h"

namespace perfbench {

namespace exp = softres::exp;
namespace core = softres::core;

/// CLOCK_MONOTONIC in seconds. run.py reads the same clock before it spawns
/// the process, which is how set-up time is measured from process start.
double monotonic_s();
/// User + system CPU seconds of the whole process, all threads included.
double process_cpu_s();

// ---------------------------------------------------------------------------
// Spans of the traced run, kept in memory and written once at the end.

class Tracer {
 public:
  using Id = std::size_t;
  static constexpr Id kRoot = static_cast<Id>(-1);

  /// Opens a span; `group` ties together spans of one trial (its seed).
  Id open(std::string name, Id parent, std::uint64_t group = 0,
          std::string label = {});
  void close(Id id);

  /// Chrome trace_event JSON: one complete ("X") event per span, then the
  /// process_name metadata event tools/validate_trace_json.cmake expects.
  void write_chrome_trace(std::ostream& os) const;
  /// Count, total and self time per span name. Self time is a span's
  /// duration minus the union of its children's intervals, so parallel
  /// children are not double-counted.
  void print_self_times(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    std::string label;
    Id parent = kRoot;
    std::uint64_t group = 0;
    std::uint32_t tid = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; inert (id kRoot) when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, Tracer::Id parent,
        std::uint64_t group = 0, std::string label = {});
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Tracer::Id id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Id id_ = Tracer::kRoot;
};

// ---------------------------------------------------------------------------
// Allocation counts from the counting operator new (alloc_count.cpp). Split
// by the trial phase marker exp::Experiment::run maintains on its thread:
// kSetup is topology and registry construction, everything later is steady
// state. Always zero in the untraced binary, which keeps the stock allocator.

struct AllocCounts {
  std::uint64_t setup = 0;
  std::uint64_t steady = 0;
};
/// Allocations made so far by the calling thread.
AllocCounts thread_allocs();

// ---------------------------------------------------------------------------
// Digest of a workload's deterministic results (FNV-1a over field values and
// the bit patterns of doubles). Equal seeds must give equal digests.

class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void digest_result(Digest& d, const exp::RunResult& r);
void digest_observation(Digest& d, const core::Observation& o);
void digest_report(Digest& d, const core::AllocationReport& r);

/// Forced Flow Law between the app and database tiers: the summed DB-tier
/// completions over the summed app-tier completions must equal the
/// workload's Req_ratio. Returns the relative deviation.
double forced_flow_deviation(const core::Observation& o);
/// Largest deviation accepted. The ratio is not exact: req_ratio is the
/// mix's expected queries per interaction (1 to 5 each, coefficient of
/// variation about 0.3), the window holds only a sample of interactions
/// (about 2.4k in the smallest trials, a 0.6 % standard error), and its
/// edges cut requests in flight. Losing or duplicating queries in a tier
/// moves the ratio by far more.
inline constexpr double kForcedFlowTolerance = 0.03;

// ---------------------------------------------------------------------------
// Per-layer accumulators of one workload pass. Filled by the session, the
// workloads, the replica pass and the rungs; turned into named metrics by
// per_layer_metrics() (layers.cpp).

struct Layers {
  // Replica pass: component counters, whole trial unless noted.
  std::uint64_t events = 0;
  std::uint64_t pages = 0;          // ClientFarm::pages_started
  std::uint64_t window_pages = 0;   // pages completed in the window
  std::uint64_t cpu_jobs = 0;
  std::uint64_t pool_acquires = 0;  // window (pools reset at window start)
  std::uint64_t pool_waits = 0;     // grants timed, window
  double pool_wait_s_sum = 0.0;     // summed waits of those grants
  std::uint64_t drained_units = 0;
  std::uint64_t jvm_collections = 0;
  double jvm_gc_s = 0.0;
  std::size_t request_slab_peak = 0;
  double build_s = 0.0;             // RunContext + Testbed construction
  double run_s = 0.0;               // Testbed::run
  double tail_attribute_s = 0.0;
  std::size_t replicas = 0;

  // Trial results of the traced pass.
  std::uint64_t traced_requests = 0;
  std::uint64_t series_samples = 0;
  double tier_rt_x[4] = {};  // sum over servers of throughput x residence
  double tier_x[4] = {};     // sum over servers of throughput

  // Executor: per-trial host time and queueing, per-batch worker time.
  softres::sim::SampleSet trial_s;
  double queue_wait_s = 0.0;
  double batch_worker_s = 0.0;  // workers x batch wall time
  AllocCounts allocs;
  std::size_t alloc_trials = 0;

  // Algorithm 1 and the governor.
  std::size_t trials_executed = 0;
  std::size_t trials_consumed = 0;
  double find_critical_resource_s = 0.0;
  double infer_min_concurrent_jobs_s = 0.0;
  double calculate_min_allocation_s = 0.0;
  double algorithm_s = 0.0;
  double runner_s = 0.0;
  std::size_t governor_resizes = 0;
  double governor_advantage_rps = 0.0;

  // Worst Forced Flow Law deviation seen (printed beside the tolerance).
  double flow_deviation_max = 0.0;

  // Rungs: host ns per operation, median over rounds.
  double queue_ns[3] = {};  // standing depth 1k, 10k, 100k
  double cpu_ps_ns = 0.0;
  double pool_ns = 0.0;
};

// ---------------------------------------------------------------------------

struct TrialSpec {
  const exp::Experiment* experiment = nullptr;
  exp::SoftConfig soft;
  std::size_t users = 0;
};

struct Trial {
  TrialSpec spec;
  std::size_t op = 0;  // index into the session's operation ledger
  bool ran = false;    // Experiment::run returned
  std::string error;
  exp::RunResult result;
  double host_s = 0.0;
  double queue_wait_s = 0.0;
  AllocCounts allocs;
};

/// One workload pass: owns the experiments, issues trials, times the
/// interval from the first trial's start to the last result, and keeps the
/// ledger of operations (trials, Algorithm-1 runs) and their failures.
class Session {
 public:
  Session(std::uint64_t seed, std::size_t jobs, Tracer* tracer,
          bool setup_only);

  std::uint64_t seed() const { return seed_; }
  std::size_t jobs() const { return jobs_; }
  Tracer* tracer() const { return tracer_; }

  /// Experiments live as long as the session, so trial specs and the
  /// replica pass can point at them.
  const exp::Experiment& experiment(const exp::TestbedConfig& cfg,
                                    const exp::ExperimentOptions& opts);

  /// Ends set-up and starts the timed interval. Returns false when the
  /// process only measures set-up; the workload then returns at once.
  bool start(const std::string& workload);
  /// Ends the timed interval at the workload's last result.
  void stop();
  Tracer::Id workload_span() const { return workload_span_; }
  double first_trial_monotonic_s() const { return t_first_; }
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

  /// Issues one batch through a fresh exp::ParallelExecutor of jobs()
  /// workers, the way exp::sweep_grid issues a grid: one Experiment::run per
  /// spec, results in spec order. Each trial is one operation; one that
  /// throws is a failed operation.
  std::vector<Trial*> issue(const std::vector<TrialSpec>& specs,
                            Tracer::Id parent);

  std::size_t add_op(std::string label);
  void fail(std::size_t op, const std::string& why);
  std::size_t ops() const { return ops_.size(); }
  std::size_t ops_failed() const;

  std::deque<Trial>& trials() { return trials_; }
  Digest& digest() { return digest_; }
  Layers& layers() { return layers_; }

 private:
  struct Op {
    std::string label;
    bool failed = false;
  };

  std::uint64_t seed_;
  std::size_t jobs_;
  Tracer* tracer_;
  bool setup_only_;
  std::deque<exp::Experiment> experiments_;
  std::deque<Trial> trials_;
  std::vector<Op> ops_;
  Digest digest_;
  Layers layers_;
  Tracer::Id workload_span_ = Tracer::kRoot;
  double t_first_ = 0.0;
  double cpu_first_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
};

/// "400-6-200 @ 6600 (1/2/1/2)"
std::string trial_label(const TrialSpec& spec);

/// Marks every trial whose Experiment::run threw as failed and folds the
/// trial results into the per-layer accumulators. Call once, after stop().
void account_trials(Session& s);

/// Fails operation `op` when observation `o` breaks the Forced Flow Law.
void check_forced_flow(Session& s, std::size_t op, const core::Observation& o);

// ---------------------------------------------------------------------------
// The workloads (workloads.cpp). Each builds its experiments and trial specs
// (set-up), calls s.start(), issues its trials, calls s.stop() at the last
// result, then checks its paper anchors and fills the digest.

void figure_sweep(Session& s);
void calibration(Session& s);
void governed_tenants(Session& s);

// ---------------------------------------------------------------------------
// The traced run's per-layer measurements (layers.cpp).

/// Serial replica of every trial through the public RunContext + Testbed
/// constructors Experiment::run uses: times construction and Testbed::run,
/// reads the component counters, and fails a trial whose replica does not
/// reproduce its throughput exactly.
void replica_pass(Session& s);
/// Ladder rungs: single public calls of sim::Simulator, hw::Cpu and
/// soft::Pool timed in isolation.
void measure_rungs(Session& s);

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;  // count | sim | host
  std::string base;  // what a ratio or mean is taken over
};
std::vector<LayerMetric> per_layer_metrics(const Layers& L);

}  // namespace perfbench

#pragma once

#include <cstddef>
#include <vector>

#include "exp/experiment.h"

namespace softres::exp {

/// Inclusive arithmetic range of workloads (user counts).
std::vector<std::size_t> workload_range(std::size_t lo, std::size_t hi,
                                        std::size_t step);

/// Run one soft allocation across a workload range.
///
/// Trials fan out over a ParallelExecutor sized by `jobs` (0 = SOFTRES_JOBS
/// env / hardware_concurrency; 1 = strictly serial on the caller). Results
/// keep the input order and are bit-identical for every pool size: each
/// trial's RNG streams are derived from (base seed, topology, soft, users),
/// never from execution order.
std::vector<RunResult> sweep_workload(const Experiment& exp,
                                      const SoftConfig& soft,
                                      const std::vector<std::size_t>& users,
                                      std::size_t jobs = 0);

/// Run a grid of soft allocations across a workload range: result[s][u] is
/// softs[s] at users[u]. The whole grid is one flat batch on the executor,
/// so parallelism spans both axes (a 4-config x 6-workload grid keeps 24
/// cores busy, not 6).
std::vector<std::vector<RunResult>> sweep_grid(
    const Experiment& exp, const std::vector<SoftConfig>& softs,
    const std::vector<std::size_t>& users, std::size_t jobs = 0);

/// Highest throughput across a sweep (the y-value of Fig 10).
double max_throughput(const std::vector<RunResult>& results);

/// Highest goodput at a threshold across a sweep.
double max_goodput(const std::vector<RunResult>& results, double threshold_s);

/// Where along a workload sweep a pathology first appears — the "onset
/// workload" of Figs 4/5/7 (e.g. the 6-thread allocation starves from 5800
/// users on). One entry per pathology observed across the sweep.
struct PathologyOnset {
  obs::Pathology pathology = obs::Pathology::kNone;
  std::size_t onset_users = 0;  // lowest user count whose verdict matched
  std::size_t trials = 0;       // trials of the sweep with this verdict
  double peak_confidence = 0.0;
};

/// Aggregate the diagnoser verdicts of one workload sweep (one row of a
/// sweep_grid result). Entries appear in onset order; healthy (kNone)
/// verdicts are not listed.
std::vector<PathologyOnset> pathology_onsets(
    const std::vector<RunResult>& results);

/// Score the closed-loop governor against the best *static* allocation on
/// one scenario: the paper's Algorithm 1 question ("which fixed S is best?")
/// versus the governed answer ("resize S live"). See governed_sweep.
struct GovernedComparison {
  /// Best static trial by goodput (moved out of the grid).
  RunResult best_static;
  SoftConfig best_static_soft;
  double best_static_goodput = 0.0;
  /// Goodput of `start` held static (0 when `start` is not among the
  /// candidates): what the governed trial would score without resizing.
  double start_goodput = 0.0;
  /// The governed trial, started from `start` (its RunResult carries the
  /// governor action log).
  RunResult governed;
  double governed_goodput = 0.0;
  double sla_threshold_s = 2.0;
  /// governed_goodput - best_static_goodput (positive = governor wins).
  double advantage() const { return governed_goodput - best_static_goodput; }
};

/// Run the static grid (governor disabled) at `users`, pick the allocation
/// with the highest goodput at `exp`'s SLA threshold, then run one governed
/// trial starting from `start` with `governor` (enabled is forced on). All
/// static trials fan out over the executor; the comparison is deterministic
/// for any `jobs`.
GovernedComparison governed_sweep(const Experiment& exp,
                                  const std::vector<SoftConfig>& softs,
                                  std::size_t users, const SoftConfig& start,
                                  const core::GovernorConfig& governor,
                                  std::size_t jobs = 0);

/// One multi-tenant scenario for the fairness sweep: the tenant population
/// plus the demand-misreporting experiment's knobs. The greedy variant of a
/// strategy re-runs the identical trial with one tenant's reported demand
/// inflated by `misreport_factor` — arrivals are bit-identical (the share
/// policy is not part of the trial seed), so any goodput the greedy tenant
/// gains is purely what the strategy's weighting hands to a liar.
struct TenantScenario {
  std::vector<workload::TenantSpec> tenants;
  std::size_t greedy_tenant = 0;   // index into `tenants`
  double misreport_factor = 4.0;   // reported_demand multiplier when greedy
  soft::SharePolicy base_policy;   // epoch/cap knobs; strategy set per run
};

/// Honest-vs-greedy outcome of one sharing strategy.
struct TenantStrategyOutcome {
  soft::ShareStrategy strategy = soft::ShareStrategy::kNone;
  RunResult honest;
  RunResult greedy;
  /// Jain's fairness index over per-tenant goodput, honest / greedy runs.
  double honest_jain = 1.0;
  double greedy_jain = 1.0;
  /// The misreporting tenant's goodput in each run.
  double honest_goodput = 0.0;
  double greedy_goodput = 0.0;
  /// Goodput gain the misreporting tenant extracts, in percent of its honest
  /// goodput (0 when it had none). The strategy-proofness score: kKarma
  /// ignores reported demand entirely, so its gain is exactly zero.
  double greedy_gain_pct() const {
    return honest_goodput > 0.0
               ? 100.0 * (greedy_goodput - honest_goodput) / honest_goodput
               : 0.0;
  }
};

/// The fairness/Pareto report of `tenant_sweep`: one outcome per strategy,
/// in input order. The per-strategy (sum goodput, Jain index) pairs are the
/// goodput-fairness frontier; greedy_gain_pct is the misreporting column.
struct TenantSweepReport {
  std::vector<TenantStrategyOutcome> outcomes;
  const TenantStrategyOutcome* find(soft::ShareStrategy s) const;
};

/// Run `scenario` under every strategy, honest and greedy, as one flat batch
/// on the executor (2 x strategies trials). Deterministic for any `jobs`:
/// every variant replays identical arrivals, so the columns compare pure
/// policy effects.
TenantSweepReport tenant_sweep(const Experiment& exp, const SoftConfig& soft,
                               const TenantScenario& scenario,
                               const std::vector<soft::ShareStrategy>& strategies,
                               std::size_t jobs = 0);

}  // namespace softres::exp

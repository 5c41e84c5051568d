#include "exp/sweep.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "exp/parallel.h"
#include "metrics/sla.h"

namespace softres::exp {

std::vector<std::size_t> workload_range(std::size_t lo, std::size_t hi,
                                        std::size_t step) {
  std::vector<std::size_t> out;
  for (std::size_t u = lo; u <= hi; u += step) out.push_back(u);
  return out;
}

std::vector<RunResult> sweep_workload(const Experiment& exp,
                                      const SoftConfig& soft,
                                      const std::vector<std::size_t>& users,
                                      std::size_t jobs) {
  // A fresh executor per sweep keeps the function free of global state (and
  // lets SOFTRES_JOBS changes take effect per call); thread start-up is
  // noise next to even the cheapest trial.
  ParallelExecutor pool(jobs);
  return pool.run_indexed(users.size(), [&](std::size_t i) {
    return exp.run(soft, users[i]);
  });
}

std::vector<std::vector<RunResult>> sweep_grid(
    const Experiment& exp, const std::vector<SoftConfig>& softs,
    const std::vector<std::size_t>& users, std::size_t jobs) {
  const std::size_t cols = users.size();
  ParallelExecutor pool(jobs);
  std::vector<RunResult> flat =
      pool.run_indexed(softs.size() * cols, [&](std::size_t i) {
        return exp.run(softs[i / cols], users[i % cols]);
      });
  std::vector<std::vector<RunResult>> out;
  out.reserve(softs.size());
  for (std::size_t s = 0; s < softs.size(); ++s) {
    out.emplace_back(std::make_move_iterator(flat.begin() + s * cols),
                     std::make_move_iterator(flat.begin() + (s + 1) * cols));
  }
  return out;
}

double max_throughput(const std::vector<RunResult>& results) {
  double best = 0.0;
  for (const auto& r : results) best = std::max(best, r.throughput);
  return best;
}

double max_goodput(const std::vector<RunResult>& results, double threshold_s) {
  double best = 0.0;
  for (const auto& r : results) best = std::max(best, r.goodput(threshold_s));
  return best;
}

GovernedComparison governed_sweep(const Experiment& exp,
                                  const std::vector<SoftConfig>& softs,
                                  std::size_t users, const SoftConfig& start,
                                  const core::GovernorConfig& governor,
                                  std::size_t jobs) {
  GovernedComparison out;
  out.sla_threshold_s = exp.options().sla_threshold_s;

  // Static side: the same scenario under every candidate fixed allocation,
  // with the governor forced off so the grid answers Algorithm 1's question.
  ExperimentOptions static_opts = exp.options();
  static_opts.governor.enabled = false;
  const Experiment static_exp(exp.base_config(), static_opts);
  std::vector<std::vector<RunResult>> grid =
      sweep_grid(static_exp, softs, {users}, jobs);
  bool first = true;
  for (std::size_t s = 0; s < grid.size(); ++s) {
    RunResult& r = grid[s][0];
    const double g = r.goodput(out.sla_threshold_s);
    if (softs[s] == start) out.start_goodput = g;
    if (first || g > out.best_static_goodput) {
      out.best_static_goodput = g;
      out.best_static_soft = softs[s];
      out.best_static = std::move(r);
      first = false;
    }
  }

  // Governed side: one trial from `start`, resizing live.
  ExperimentOptions gov_opts = exp.options();
  gov_opts.governor = governor;
  gov_opts.governor.enabled = true;
  const Experiment gov_exp(exp.base_config(), gov_opts);
  out.governed = gov_exp.run(start, users);
  out.governed_goodput = out.governed.goodput(out.sla_threshold_s);
  return out;
}

const TenantStrategyOutcome* TenantSweepReport::find(
    soft::ShareStrategy s) const {
  for (const TenantStrategyOutcome& o : outcomes) {
    if (o.strategy == s) return &o;
  }
  return nullptr;
}

TenantSweepReport tenant_sweep(const Experiment& exp, const SoftConfig& soft,
                               const TenantScenario& scenario,
                               const std::vector<soft::ShareStrategy>& strategies,
                               std::size_t jobs) {
  // Every variant runs the same tenant population, so the same total user
  // count — and therefore the same trial seed and identical arrivals. Only
  // the share policy and the reported demand differ, neither of which is
  // part of the seed derivation.
  std::size_t total_users = 0;
  for (const workload::TenantSpec& t : scenario.tenants) {
    total_users += t.users;
  }

  auto run_variant = [&](soft::ShareStrategy s, bool greedy) {
    ExperimentOptions opts = exp.options();
    opts.client.tenants = scenario.tenants;
    if (greedy) {
      opts.client.tenants[scenario.greedy_tenant].reported_demand *=
          scenario.misreport_factor;
    }
    opts.partition = scenario.base_policy;
    opts.partition.strategy = s;
    const Experiment variant(exp.base_config(), opts);
    return variant.run(soft, total_users);
  };

  // One flat batch: honest and greedy runs of every strategy fan out
  // together (index 2s = honest, 2s+1 = greedy).
  ParallelExecutor pool(jobs);
  std::vector<RunResult> flat =
      pool.run_indexed(2 * strategies.size(), [&](std::size_t i) {
        return run_variant(strategies[i / 2], (i % 2) == 1);
      });

  TenantSweepReport report;
  const std::string& greedy_name =
      scenario.tenants[scenario.greedy_tenant].name;
  auto tenant_goodputs = [](const RunResult& r) {
    std::vector<double> g;
    g.reserve(r.tenants.size());
    for (const TenantStat& t : r.tenants) g.push_back(t.goodput);
    return g;
  };
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    TenantStrategyOutcome o;
    o.strategy = strategies[s];
    o.honest = std::move(flat[2 * s]);
    o.greedy = std::move(flat[2 * s + 1]);
    o.honest_jain = metrics::jain_fairness(tenant_goodputs(o.honest));
    o.greedy_jain = metrics::jain_fairness(tenant_goodputs(o.greedy));
    if (const TenantStat* t = o.honest.find_tenant(greedy_name)) {
      o.honest_goodput = t->goodput;
    }
    if (const TenantStat* t = o.greedy.find_tenant(greedy_name)) {
      o.greedy_goodput = t->goodput;
    }
    report.outcomes.push_back(std::move(o));
  }
  return report;
}

std::vector<PathologyOnset> pathology_onsets(
    const std::vector<RunResult>& results) {
  std::vector<PathologyOnset> out;
  // Scan in ascending-workload order so the first sighting is the onset.
  std::vector<const RunResult*> ordered;
  ordered.reserve(results.size());
  for (const auto& r : results) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RunResult* a, const RunResult* b) {
                     return a->users < b->users;
                   });
  for (const RunResult* r : ordered) {
    const obs::Pathology p = r->diagnosis.pathology;
    if (p == obs::Pathology::kNone) continue;
    PathologyOnset* entry = nullptr;
    for (PathologyOnset& o : out) {
      if (o.pathology == p) entry = &o;
    }
    if (entry == nullptr) {
      out.push_back(PathologyOnset{p, r->users, 0, 0.0});
      entry = &out.back();
    }
    ++entry->trials;
    entry->peak_confidence =
        std::max(entry->peak_confidence, r->diagnosis.confidence);
  }
  return out;
}

}  // namespace softres::exp

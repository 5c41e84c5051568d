// Scenario bench: the closed-loop governor vs static allocations on
// time-varying load. The flash-crowd half doubles as an acceptance check —
// the governed trial must score at least 95 % of the best static allocation
// found by the grid (the paper's Algorithm 1 answer) and at least 1.5x its
// own starting allocation held static, the claim governor_test checks at
// three seeds — and its failure count is the exit code, so the check is
// ctest-visible like the figure benches.
// The diurnal half is informational: it shows the resize cadence over a
// slow wave, where hysteresis (deadband + cooldown + token bucket) matters
// more than reaction speed.

#include "bench_util.h"
#include "core/governor.h"
#include "workload/load_shapes.h"

using namespace softres;

namespace {

exp::ExperimentOptions scenario_options(double runtime_s) {
  exp::ExperimentOptions opts = bench::bench_options();
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = runtime_s;
  opts.client.ramp_down_s = 3.0;
  opts.sla_threshold_s = 1.0;
  return opts;
}

void print_resizes(const std::vector<core::GovernorAction>& actions,
                   std::size_t limit = 8) {
  std::cout << "  " << actions.size() << " resize(s)";
  if (!actions.empty()) std::cout << ":";
  std::cout << "\n";
  for (std::size_t i = 0; i < actions.size() && i < limit; ++i) {
    const core::GovernorAction& a = actions[i];
    std::cout << "    t=" << metrics::Table::fmt(a.at, 1) << "s  " << a.pool
              << "  " << a.from << " -> " << a.to << "\n";
  }
  if (actions.size() > limit) {
    std::cout << "    ... " << (actions.size() - limit) << " more\n";
  }
}

}  // namespace

int main() {
  int failures = 0;

  bench::header("Governor vs static allocation, flash crowd",
                "1/4/1/4, 2500 -> 7000 -> 2500 users, SLO 1 s; governed "
                "trial must reach 95% of the best static grid point and "
                "1.5x its static start");

  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 4, 1, 4};
  exp::ExperimentOptions opts = scenario_options(150.0);
  opts.client.load_schedule =
      workload::flash_crowd_schedule(2500, 7000, 60.0, 50.0);
  const exp::Experiment flash(cfg, opts);

  const std::vector<exp::SoftConfig> candidates = {
      exp::SoftConfig{400, 200, 200},  // liberal: GC overhead at baseline
      exp::SoftConfig{200, 100, 100},
      exp::SoftConfig{150, 60, 60},
      exp::SoftConfig{100, 30, 30},    // lean: starves during the crowd
  };
  const exp::GovernedComparison cmp = exp::governed_sweep(
      flash, candidates, /*users=*/7000, /*start=*/candidates.front(),
      core::GovernorConfig{});

  metrics::Table t({"policy", "goodput@1s", "badput@1s", "resizes"});
  t.add_row({"best static (" + cmp.best_static_soft.to_string() + ")",
             metrics::Table::fmt(cmp.best_static_goodput, 1),
             metrics::Table::fmt(
                 cmp.best_static.sla(cmp.sla_threshold_s).badput, 1),
             "0"});
  t.add_row({"static start (" + candidates.front().to_string() + ")",
             metrics::Table::fmt(cmp.start_goodput, 1), "-", "0"});
  t.add_row({"governed from " + candidates.front().to_string(),
             metrics::Table::fmt(cmp.governed_goodput, 1),
             metrics::Table::fmt(
                 cmp.governed.sla(cmp.sla_threshold_s).badput, 1),
             std::to_string(cmp.governed.governor_actions.size())});
  t.print(std::cout);
  std::cout << "advantage: " << metrics::Table::fmt(cmp.advantage(), 1)
            << " req/s ("
            << bench::pct_diff(cmp.governed_goodput, cmp.best_static_goodput)
            << ")\n";
  print_resizes(cmp.governed.governor_actions);

  if (cmp.governed_goodput >= 0.95 * cmp.best_static_goodput &&
      cmp.governed_goodput >= 1.5 * cmp.start_goodput) {
    std::cout << "[governor OK]   flash crowd: governed within 5% of best "
                 "static and >= 1.5x its static start\n";
  } else {
    std::cout << "[governor FAIL] flash crowd: governed "
              << metrics::Table::fmt(cmp.governed_goodput, 1)
              << " vs best static "
              << metrics::Table::fmt(cmp.best_static_goodput, 1)
              << " (need >= 95%) and static start "
              << metrics::Table::fmt(cmp.start_goodput, 1)
              << " (need >= 1.5x)\n";
    ++failures;
  }

  bench::header("Governor on a diurnal wave (informational)",
                "1/2/1/2, 1500 <-> 5000 users over a 60 s period; hysteresis "
                "keeps the resize count small");

  exp::TestbedConfig dcfg = exp::TestbedConfig::defaults();
  dcfg.hw = exp::HardwareConfig{1, 2, 1, 2};
  exp::ExperimentOptions dopts = scenario_options(120.0);
  dopts.client.load_schedule =
      workload::diurnal_schedule(1500, 5000, 60.0, 120.0);

  exp::ExperimentOptions governed_opts = dopts;
  governed_opts.governor.enabled = true;
  const exp::SoftConfig liberal{400, 200, 200};
  const exp::RunResult fixed =
      exp::Experiment(dcfg, dopts).run(liberal, 5000);
  const exp::RunResult governed =
      exp::Experiment(dcfg, governed_opts).run(liberal, 5000);

  metrics::Table d({"policy", "goodput@1s", "mean RT ms", "resizes"});
  d.add_row({"static liberal", metrics::Table::fmt(fixed.goodput(1.0), 1),
             metrics::Table::fmt(fixed.response_times.mean() * 1000.0, 1),
             "0"});
  d.add_row({"governed", metrics::Table::fmt(governed.goodput(1.0), 1),
             metrics::Table::fmt(governed.response_times.mean() * 1000.0, 1),
             std::to_string(governed.governor_actions.size())});
  d.print(std::cout);
  print_resizes(governed.governor_actions);

  return failures;
}

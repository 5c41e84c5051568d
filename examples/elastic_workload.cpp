// Elastic workload: replay a bursty load profile (steady -> peak -> trough)
// against a statically allocated testbed and against the same testbed with
// the closed-loop governor resizing its pools online. Internet-scale
// workloads have peak loads several times the steady state (paper, Section
// I); static allocations tuned for one point are sub-optimal elsewhere.
//
// Usage: elastic_workload [static soft e.g. 400-200-200]

#include <iostream>

#include "exp/config.h"
#include "exp/experiment.h"
#include "metrics/sla.h"
#include "metrics/table.h"

using namespace softres;

namespace {

std::vector<workload::LoadPhase> bursty_profile() {
  return {
      {0.0, 2500},    // steady state
      {80.0, 7000},   // flash-crowd peak
      {160.0, 4000},  // settle
  };
}

void add_row(metrics::Table& t, const std::string& mode,
             const exp::RunResult& r) {
  const metrics::SlaSplit split = r.sla(1.0);
  t.add_row({mode, metrics::Table::fmt(split.goodput, 1),
             metrics::Table::fmt(split.badput, 1),
             metrics::Table::fmt(r.response_times.mean() * 1000.0, 1),
             std::to_string(r.governor_actions.size())});
}

}  // namespace

int main(int argc, char** argv) {
  const exp::SoftConfig soft = argc > 1 ? exp::SoftConfig::parse(argv[1])
                                        : exp::SoftConfig{400, 200, 200};

  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 4, 1, 4};
  exp::ExperimentOptions opts = exp::ExperimentOptions::from_env();
  opts.client.ramp_up_s = 20.0;
  opts.client.runtime_s = 220.0;
  opts.client.ramp_down_s = 3.0;
  opts.client.load_schedule = bursty_profile();
  const std::size_t users = 7000;  // slot pool sized for the peak

  std::cout << "Bursty profile on 1/4/1/4: 2500 -> 7000 -> 4000 users\n\n";
  metrics::Table t({"mode", "goodput@1s", "badput@1s", "mean RT ms",
                    "pool resizes"});
  add_row(t, "static " + soft.to_string(),
          exp::Experiment(cfg, opts).run(soft, users));
  opts.governor.enabled = true;
  add_row(t, "governed (same start)",
          exp::Experiment(cfg, opts).run(soft, users));
  t.print(std::cout);

  std::cout << "\nThe governor shrinks over-allocated pools (cutting the "
               "JVM/GC tax near the peak) and grows starved ones, tracking "
               "the profile without operator input.\n";
  return 0;
}

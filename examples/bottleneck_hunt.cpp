// Bottleneck hunt: demonstrate the paper's Section III-A point that a
// saturated *soft* resource hides below idle hardware. Runs the same
// workload twice — once with a starved Tomcat thread pool, once healthy —
// and shows what a hardware-only monitor would miss, including the
// utilization-density view (Fig 4 b/c/e/f) and the online diagnoser's
// streaming verdict with its evidence windows.
//
// Set SOFTRES_REPORT_HTML=<path> to also write one flight-recorder HTML
// report per trial (timelines, shaded evidence, latency breakdown).
//
// Usage: bottleneck_hunt [users]

#include <cstdlib>
#include <iostream>

#include "core/bottleneck.h"
#include "exp/experiment.h"
#include "exp/runner_adapter.h"
#include "metrics/table.h"
#include "soft/pool_monitor.h"

using namespace softres;

namespace {

void diagnose(const exp::Experiment& experiment, const exp::SoftConfig& soft,
              std::size_t users, double slo) {
  const exp::RunResult r = experiment.run(soft, users);
  const core::Observation obs =
      exp::RunnerAdapter::to_observation(r, slo);
  // The diagnoser's timeline-backed verdict outranks the end-of-window
  // snapshot classifier when present.
  const core::BottleneckReport report =
      core::detect_bottleneck(obs, r.diagnosis.to_hint());

  std::cout << "\n=== " << soft.to_string() << " at " << users
            << " users ===\n";
  std::cout << "throughput " << metrics::Table::fmt(r.throughput, 1)
            << " req/s, goodput@" << slo << "s "
            << metrics::Table::fmt(r.goodput(slo), 1) << " req/s\n";

  metrics::Table cpus({"hardware", "util %"});
  for (const auto& c : r.cpus) {
    cpus.add_row({c.name, metrics::Table::fmt(c.util_pct, 1)});
  }
  cpus.print(std::cout);

  std::cout << "diagnosis: " << r.diagnosis.summary() << "\n";
  switch (report.kind) {
    case core::BottleneckKind::kNone:
      std::cout << "verdict: no bottleneck — offered load below capacity\n";
      break;
    case core::BottleneckKind::kHardware:
      std::cout << "verdict: hardware bottleneck at " << report.critical
                << "\n";
      break;
    case core::BottleneckKind::kMulti:
      std::cout << "verdict: multi-tier hardware bottleneck (oscillating "
                   "saturation)\n";
      break;
    case core::BottleneckKind::kSoft:
      std::cout << "verdict: HIDDEN soft-resource bottleneck:";
      for (const auto& name : report.soft) std::cout << " " << name;
      std::cout << "\n         all hardware is under-utilized; adding nodes "
                   "would not help (Section III-A)\n";
      break;
  }

  // Utilization density of the suspect pool (the Fig 4 analysis).
  const obs::Series* series =
      r.find_series("pool_util_pct", {{"pool", "tomcat0.threads"}});
  if (series != nullptr && !series->values.empty()) {
    const sim::Histogram density =
        soft::utilization_density(series->values, 10);
    std::cout << "tomcat0 thread-pool occupancy density: ";
    for (std::size_t b = 0; b < density.bins(); ++b) {
      std::cout << "[" << static_cast<int>(density.bin_lo(b)) << "-"
                << static_cast<int>(density.bin_hi(b)) << "%)="
                << metrics::Table::fmt(100.0 * density.density(b), 0) << "% ";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t users =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 6200;
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = exp::HardwareConfig{1, 2, 1, 2};
  exp::Experiment experiment(cfg, exp::ExperimentOptions::from_env());

  diagnose(experiment, exp::SoftConfig{400, 6, 60}, users, 1.0);
  diagnose(experiment, exp::SoftConfig{400, 15, 60}, users, 1.0);
  return 0;
}

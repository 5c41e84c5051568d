// One workload pass of the repository benchmark, as one process:
//
//   perfbench <figure_sweep|calibration|governed_tenants> --seed N
//             [--setup-only] [--spans FILE]
//
// --setup-only exits where the first trial would start (run.py samples
// set-up time this way). --spans makes this a traced pass: after the timed
// workload it runs the serial replica pass and the ladder rungs, writes the
// spans as Chrome trace_event JSON to FILE and prints the per-layer metrics.
// The last line of standard output is one JSON object; run.py reads it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench <figure_sweep|calibration|governed_tenants> "
               "--seed N [--setup-only] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool setup_only = false;
  std::string spans_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0' && argv[i][0] != '\0' &&
                  argv[i][0] != '-';
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();
  void (*run)(Session&) = nullptr;
  if (workload == "figure_sweep") run = figure_sweep;
  if (workload == "calibration") run = calibration;
  if (workload == "governed_tenants") run = governed_tenants;
  if (run == nullptr) return usage();

  // At most four executor workers: enough to show the sweeps' parallelism,
  // few enough that memory stays small and hosts with more cores measure
  // the same work.
  const std::size_t jobs =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  Tracer tracer;
  Session s(seed, jobs, spans_path.empty() ? nullptr : &tracer, setup_only);
  run(s);

  char buf[512];
  if (setup_only) {
    std::snprintf(buf, sizeof(buf), "{\"t_first_trial\": %.9f}",
                  s.first_trial_monotonic_s());
    std::cout << buf << std::endl;
    return 0;
  }

  std::string layers_json;
  if (!spans_path.empty()) {
    replica_pass(s);
    measure_rungs(s);
    std::ofstream out(spans_path);
    tracer.write_chrome_trace(out);
    out.close();
    if (!out) {
      std::cerr << "cannot write " << spans_path << "\n";
      return 1;
    }
    tracer.print_self_times(std::cout);
    std::cout << "per-layer metrics (" << workload << ", seed " << seed
              << ", " << jobs << " workers):\n";
    for (const LayerMetric& m : per_layer_metrics(s.layers())) {
      std::snprintf(buf, sizeof(buf), "  %-34s %16.6f %-11s %-5s %s\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.kind.c_str(),
                    m.base.c_str());
      std::cout << buf;
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    layers_json.empty() ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      layers_json += buf;
    }
  }

  std::snprintf(buf, sizeof(buf),
                "forced flow law: worst deviation %.3f %% (tolerance %.1f %%)",
                100.0 * s.layers().flow_deviation_max,
                100.0 * kForcedFlowTolerance);
  std::cout << buf << "\n";
  std::cout << "digest " << workload << " " << s.digest().hex() << "\n";
  std::cout << "ops " << s.ops() << " failed " << s.ops_failed() << "\n";
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"jobs\": %zu, "
                "\"t_first_trial\": %.9f, \"wall_s\": %.9f, \"cpu_s\": %.9f, "
                "\"ops\": %zu, \"ops_failed\": %zu, \"digest\": \"%s\", "
                "\"flow_deviation\": %.6f",
                workload.c_str(), static_cast<unsigned long long>(seed), jobs,
                s.first_trial_monotonic_s(), s.wall_s(), s.cpu_s(), s.ops(),
                s.ops_failed(), s.digest().hex().c_str(),
                s.layers().flow_deviation_max);
  std::cout << buf << ", \"layers\": {" << layers_json << "}}" << std::endl;
  return 0;
}

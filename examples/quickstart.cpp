// Quickstart: simulate one RUBBoS trial on the 1/2/1/2 testbed, print the
// SLA-split performance and where the bottleneck sits.
//
// Usage: quickstart [users > 0] [hw e.g. 1/2/1/2] [soft e.g. 400-150-60]
//
// Observability switches (see DESIGN.md "Observability"):
//   SOFTRES_TRACE_RATE=0.01   trace ~1% of dynamic requests tier-by-tier and
//                             print the per-tier latency breakdown
//   SOFTRES_TRACE_JSON=f.json additionally write the traced requests as
//                             Chrome trace_event JSON (Perfetto-loadable)
//   SOFTRES_PROFILE=1         count the trial's hot-path operations
//                             (DESIGN.md §11) and print the top subsystems

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "exp/config.h"
#include "exp/experiment.h"
#include "metrics/table.h"
#include "obs/profiler.h"
#include "obs/trace.h"

using namespace softres;

int main(int argc, char** argv) {
  std::size_t users = 6000;
  if (argc > 1) {
    // The whole argument must be a positive decimal count: "abc", "-5",
    // "12x", "" and "0" are usage errors, not a 0-user or wrapped-around
    // trial.
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, users);
    if (ec != std::errc() || ptr != end || users == 0) {
      std::cerr << "usage: quickstart [users > 0] [hw e.g. 1/2/1/2] "
                   "[soft e.g. 400-150-60]\n";
      return 2;
    }
  }
  exp::TestbedConfig cfg = exp::TestbedConfig::defaults();
  cfg.hw = argc > 2 ? exp::HardwareConfig::parse(argv[2])
                    : exp::HardwareConfig{1, 2, 1, 2};
  const exp::SoftConfig soft = argc > 3 ? exp::SoftConfig::parse(argv[3])
                                        : exp::SoftConfig{400, 150, 60};

  exp::Experiment experiment(cfg, exp::ExperimentOptions::from_env());
  std::cout << "Running " << cfg.hw.to_string() << " with soft allocation "
            << soft.to_string() << " at workload " << users << " users...\n";
  const exp::RunResult r = experiment.run(soft, users);

  std::cout << "\nThroughput: " << metrics::Table::fmt(r.throughput, 1)
            << " req/s\n";
  for (double thr : {0.5, 1.0, 2.0}) {
    const auto s = r.sla(thr);
    std::cout << "  goodput @" << thr << "s SLA: "
              << metrics::Table::fmt(s.goodput, 1) << " req/s  (badput "
              << metrics::Table::fmt(s.badput, 1) << ")\n";
  }
  std::cout << "  mean RT: " << metrics::Table::fmt(
                   r.response_times.mean() * 1000.0, 1)
            << " ms   p95: "
            << metrics::Table::fmt(r.response_times.quantile(0.95) * 1000.0, 1)
            << " ms\n\n";

  metrics::Table cpu_table({"node", "cpu%", "gc%"});
  for (const auto& c : r.cpus) {
    cpu_table.add_row({c.name, metrics::Table::fmt(c.util_pct, 1),
                       metrics::Table::fmt(c.gc_util_pct, 1)});
  }
  cpu_table.print(std::cout);

  std::cout << '\n';
  metrics::Table pool_table({"pool", "cap", "util%", "wait_ms", "saturated"});
  for (const auto& p : r.pools) {
    pool_table.add_row({p.name, std::to_string(p.capacity),
                        metrics::Table::fmt(p.util_pct, 1),
                        metrics::Table::fmt(p.mean_wait_ms, 2),
                        p.saturated ? "yes" : "no"});
  }
  pool_table.print(std::cout);

  std::cout << '\n';
  metrics::Table srv_table({"server", "tp", "rt_ms", "avg_jobs"});
  for (const auto& s : r.servers) {
    srv_table.add_row({s.name, metrics::Table::fmt(s.throughput, 1),
                       metrics::Table::fmt(s.mean_rt_s * 1000.0, 2),
                       metrics::Table::fmt(s.avg_jobs, 1)});
  }
  srv_table.print(std::cout);

  std::cout << "\nGC seconds in window: tomcat="
            << metrics::Table::fmt(r.tomcat_gc_seconds, 1)
            << "  cjdbc=" << metrics::Table::fmt(r.cjdbc_gc_seconds, 1)
            << "\n";

  if (r.profile.enabled) {
    std::cout << "\n" << obs::one_line_profile_summary(r.profile) << "\n";
  }

  if (r.traces.size() > 0) {
    std::cout << "\nTraced " << r.traces.size()
              << " requests (SOFTRES_TRACE_RATE="
              << experiment.options().trace_sample_rate() << "):\n";
    r.traces.breakdown().print(std::cout);
    if (const char* path = std::getenv("SOFTRES_TRACE_JSON")) {
      std::ofstream os(path);
      if (os) {
        r.traces.write_chrome_trace(os);
        std::cout << "[trace] wrote " << path
                  << " (load in Perfetto / chrome://tracing)\n";
      } else {
        std::cerr << "[trace] cannot open " << path << "\n";
        return 1;
      }
    }
  }
  return 0;
}

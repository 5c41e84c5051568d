// Figures 7 and 8: Apache server internals over one minute of runtime.
// Fig 7: pool 30 at workloads 6000 (healthy) and 7400 (FIN-wait collapse):
// processed requests/s, worker busy-time split, and parallelism (active
// threads vs threads interacting with Tomcat).
// Fig 8: pool 400 at workload 7400: stable parallelism above 24 and high
// throughput.

#include <algorithm>
#include <functional>

#include "bench_util.h"
#include "exp/parallel.h"
#include "obs/registry.h"

using namespace softres;

namespace {

// The end-of-run registry snapshot exports every metric as Prometheus text /
// flat CSV when SOFTRES_CSV_DIR is set.
void maybe_export_snapshot(const exp::RunResult& r, const std::string& stem) {
  const std::string dir = metrics::csv_dir_from_env();
  if (dir.empty()) return;
  if (metrics::export_csv(dir, stem + ".prom", [&](std::ostream& os) {
        obs::write_prometheus(os, r.metrics);
      })) {
    std::cout << "[prom] wrote " << dir << "/" << stem << ".prom\n";
  }
  if (metrics::export_csv(dir, stem + ".metrics.csv", [&](std::ostream& os) {
        obs::write_csv(os, r.metrics);
      })) {
    std::cout << "[csv] wrote " << dir << "/" << stem << ".metrics.csv\n";
  }
}

void print_timeline(const exp::RunResult& r, double from, double to) {
  const obs::Timeline& tl = r.series;
  const obs::Labels apache0 = {{"server", "apache0"}};
  const obs::Series* processed =
      r.find_series("apache_processed_requests", apache0);
  const obs::Series* pt_total = r.find_series("apache_worker_busy_ms", apache0);
  const obs::Series* pt_tomcat =
      r.find_series("apache_tomcat_interaction_ms", apache0);
  const obs::Series* active = r.find_series("apache_threads_active", apache0);
  const obs::Series* connecting =
      r.find_series("apache_threads_connecting", apache0);

  metrics::Table t({"t", "req/s", "PT_total_ms", "PT_tomcat_ms",
                    "threads_active", "threads_tomcat"});
  for (std::size_t i = 0; i < tl.ticks(); ++i) {
    const double time = tl.times()[i];
    if (time < from || time >= to) continue;
    if (static_cast<long>(time - from) % 5 != 0) continue;  // every 5 s
    t.add_row({metrics::Table::fmt(time - from, 0),
               metrics::Table::fmt(processed->values[i], 0),
               metrics::Table::fmt(pt_total->values[i], 1),
               metrics::Table::fmt(pt_tomcat->values[i], 1),
               metrics::Table::fmt(active->values[i], 0),
               metrics::Table::fmt(connecting->values[i], 0)});
  }
  t.print(std::cout);

  // Window aggregates (the quantities the paper's prose cites).
  auto mean = [&](const obs::Series* s, int precision) {
    return metrics::Table::fmt(tl.mean_between(*s, from, to), precision);
  };
  std::cout << "window means: req/s=" << mean(processed, 1)
            << "  PT_total=" << mean(pt_total, 1)
            << " ms  PT_tomcat=" << mean(pt_tomcat, 1)
            << " ms  active=" << mean(active, 1)
            << "  interacting=" << mean(connecting, 1) << "\n";
}

}  // namespace

int main() {
  bench::header("Figures 7/8: Apache worker timeline, 1/4/1/4",
                "pool 30 at WL 6000 and 7400 (Fig 7); pool 400 at 7400 "
                "(Fig 8)");

  // Traced so the tail-attribution acceptance below has blame vectors to
  // read; tracing is zero-perturbation, the timelines are unchanged.
  exp::Experiment e = bench::make_traced_experiment("1/4/1/4");
  const exp::ExperimentOptions opts = bench::bench_options();
  const double from = opts.client.ramp_up_s;
  const double to = std::min(from + 60.0,
                             from + opts.client.runtime_s);

  // The three panels are independent trials: run them concurrently, print
  // in figure order.
  exp::ParallelExecutor pool;
  std::vector<std::function<exp::RunResult()>> trials = {
      [&e] { return e.run(exp::SoftConfig{30, 6, 20}, 6000); },
      [&e] { return e.run(exp::SoftConfig{30, 6, 20}, 7400); },
      [&e] { return e.run(exp::SoftConfig{400, 6, 20}, 7400); },
  };
  const std::vector<exp::RunResult> runs = pool.run_all(std::move(trials));

  std::cout << "\n-- Fig 7(a-c): Apache 30-6-20, workload 6000 --\n";
  print_timeline(runs[0], from, to);
  maybe_export_snapshot(runs[0], "fig7_wl6000_pool30");

  std::cout << "\n-- Fig 7(d-f): Apache 30-6-20, workload 7400 --\n";
  print_timeline(runs[1], from, to);
  maybe_export_snapshot(runs[1], "fig7_wl7400_pool30");

  std::cout << "\n-- Fig 8: Apache 400-6-20, workload 7400 --\n";
  print_timeline(runs[2], from, to);
  maybe_export_snapshot(runs[2], "fig8_wl7400_pool400");

  // Acceptance: the diagnoser must call the FIN-wait buffer effect at WL
  // 7400 with the 30-worker pool and stay quiet at the healthy WL 6000.
  std::cout << "\n-- online diagnoser --\n";
  int failures = 0;
  bench::expect_diagnosis(runs[1], obs::Pathology::kFinWaitBuffer,
                          "30-6-20 @ 7400 users", failures);
  bench::expect_diagnosis(runs[0], obs::Pathology::kNone,
                          "30-6-20 @ 6000 users", failures);

  // The tail attribution must tell the same story: with the worker pool
  // eaten by FIN-wait lingering, p99+ requests spend their time queued for
  // an Apache worker, corroborating the kFinWaitBuffer verdict's
  // apache0.workers.
  bench::expect_tail_blame(runs[1], "apache.queue", "30-6-20 @ 7400 users",
                           failures);

  std::cout << "\npaper's reading: at WL 7400 with 30 threads, PT_total "
               "spikes (FIN waits) while threads interacting with Tomcat "
               "falls far below the pool size; with 400 threads the "
               "interacting count stays well above the 24 Tomcat slots and "
               "throughput holds\n";
  return failures;
}

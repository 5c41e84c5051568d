// Figure 4: under-allocation of the Tomcat thread pool on 1/2/1/2 (Apache
// fixed at 400 threads, DB connections fixed at 200). Pool sizes 6/10/20/200.
// Reports (a) goodput, (d) Tomcat CPU, and (b/c/e/f) the thread-pool
// utilization density that reveals the hidden soft bottleneck.

#include "bench_util.h"

using namespace softres;

int main() {
  bench::header("Figure 4: Tomcat thread-pool under-allocation, 1/2/1/2",
                "thread pool 6/10/20/200, Apache 400, DB conns 200");

  // Traced so the tail-attribution acceptance below has blame vectors to
  // read; tracing is zero-perturbation, the figures are unchanged.
  exp::Experiment e = bench::make_traced_experiment("1/2/1/2");
  const std::vector<std::size_t> pools = {6, 10, 20, 200};
  const auto workloads = exp::workload_range(4600, 6600, 400);

  std::vector<exp::SoftConfig> softs;
  for (std::size_t p : pools) softs.push_back(exp::SoftConfig{400, p, 200});
  // 4 pools x 6 workloads = one 24-trial parallel batch.
  const auto runs = exp::sweep_grid(e, softs, workloads);

  std::cout << "\n-- Fig 4a: goodput (2 s threshold) --\n";
  {
    metrics::Table t({"workload", "pool 6", "pool 10", "pool 20", "pool 200"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      t.add_row({std::to_string(workloads[i]),
                 metrics::Table::fmt(runs[0][i].goodput(2.0), 1),
                 metrics::Table::fmt(runs[1][i].goodput(2.0), 1),
                 metrics::Table::fmt(runs[2][i].goodput(2.0), 1),
                 metrics::Table::fmt(runs[3][i].goodput(2.0), 1)});
    }
    t.print(std::cout);
  }

  std::cout << "\n-- Fig 4d: CPU utilization of the first Tomcat (%) --\n";
  {
    metrics::Table t({"workload", "pool 6", "pool 10", "pool 20", "pool 200"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      std::vector<std::string> row = {std::to_string(workloads[i])};
      for (std::size_t p = 0; p < pools.size(); ++p) {
        row.push_back(metrics::Table::fmt(
            runs[p][i].find_cpu("tomcat0.cpu")->util_pct, 1));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  std::cout << "\n-- Fig 4b/c/e/f: thread-pool utilization (mean %, and "
               "saturation flag by workload) --\n";
  for (std::size_t p = 0; p < pools.size(); ++p) {
    std::cout << "pool size " << pools[p] << ": ";
    std::size_t saturation_wl = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const exp::PoolStat* stat = runs[p][i].find_pool("tomcat0.threads");
      std::cout << workloads[i] << ":"
                << metrics::Table::fmt(stat->util_pct, 0) << "%"
                << (stat->saturated ? "*" : "") << "  ";
      if (stat->saturated && saturation_wl == 0) saturation_wl = workloads[i];
    }
    if (saturation_wl != 0) {
      std::cout << "-> saturates at ~" << saturation_wl;
    } else {
      std::cout << "-> never saturates";
    }
    std::cout << "\n";
  }

  std::cout << "\n-- online diagnoser: onset workload per pathology --\n";
  for (std::size_t p = 0; p < pools.size(); ++p) {
    bench::print_onsets("pool " + std::to_string(pools[p]), runs[p]);
  }

  // Acceptance: the streaming diagnoser must call the Fig 4 pathology at the
  // paper-matching operating point and stay quiet on the healthy baseline.
  int failures = 0;
  bench::expect_diagnosis(runs[0].back(), obs::Pathology::kSoftUnderAlloc,
                          "pool 6 @ 6600 users", failures);
  bench::expect_diagnosis(runs[3].front(), obs::Pathology::kNone,
                          "pool 200 @ 4600 users", failures);

  // And the tail attribution must blame the same resource: at the knee
  // (pool 6 @ 5000, where the paper's goodput collapses) the p99+ cohort's
  // dominant component is the Tomcat thread-pool queue, corroborating the
  // kSoftUnderAlloc verdict. Beyond the knee the backlog cascades upstream
  // and apache.queue takes over — also real, but no longer the same resource
  // the verdict names, so the check pins the knee itself.
  bench::expect_tail_blame(runs[0][1], "tomcat.queue", "pool 6 @ 5000 users",
                           failures);

  std::cout << "\npaper's reference: pool 6 saturates before 5000, pool 10 "
               "~5600, pool 20 ~6000; pool 200's peak goodput is below pool "
               "20's (over-allocation overhead)\n";
  return failures;
}

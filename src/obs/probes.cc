#include "obs/probes.h"

#include <algorithm>
#include <memory>

#include "hw/cpu.h"
#include "hw/node.h"
#include "soft/pool.h"
#include "tier/apache.h"
#include "tier/server.h"

namespace softres::obs {
namespace {

struct DeltaState {
  double prev_value = 0.0;
  double prev_time = 0.0;
};

/// Differentiate a cumulative core-seconds counter into percent utilization
/// over the sampling interval (the SysStat convention).
template <typename Getter>
Registry::Source make_rate_source(const hw::Cpu& cpu, Getter get) {
  auto state = std::make_shared<DeltaState>();
  const hw::Cpu* c = &cpu;
  return [state, c, get](sim::SimTime now) {
    const double value = get(*c);
    const double dt = now - state->prev_time;
    const double dv = value - state->prev_value;
    state->prev_value = value;
    state->prev_time = now;
    if (dt <= 0.0) return 0.0;
    const double util = 100.0 * dv / (static_cast<double>(c->cores()) * dt);
    return std::clamp(util, 0.0, 100.0);
  };
}

}  // namespace

void register_cpu_util(Registry& registry, const hw::Node& node) {
  registry.gauge_fn(
      "cpu_util_pct",
      make_rate_source(node.cpu(),
                       [](const hw::Cpu& c) { return c.busy_core_seconds(); }),
      {{"node", node.name()}},
      "Percent CPU utilization over the sampling interval");
}

void register_gc_util(Registry& registry, const std::string& server,
                      const hw::Cpu& cpu) {
  registry.gauge_fn(
      "gc_util_pct",
      make_rate_source(cpu,
                       [](const hw::Cpu& c) { return c.freeze_core_seconds(); }),
      {{"node", server}},
      "Percent of the interval spent in stop-the-world GC freezes");
}

void register_pool(Registry& registry, const soft::Pool& pool) {
  const soft::Pool* p = &pool;
  registry.gauge_fn(
      "pool_util_pct",
      [p](sim::SimTime) { return 100.0 * p->utilization(); },
      {{"pool", pool.name()}}, "Pool occupancy in percent of capacity");
  registry.gauge_fn(
      "pool_waiting",
      [p](sim::SimTime) { return static_cast<double>(p->waiting()); },
      {{"pool", pool.name()}}, "Acquirers queued for a pool unit");
  registry.gauge_fn(
      "pool_capacity",
      [p](sim::SimTime) { return static_cast<double>(p->capacity()); },
      {{"pool", pool.name()}},
      "Current pool capacity (soft allocation; the governor resizes it)");
}

void register_server_ops(Registry& registry, const tier::Server& server) {
  const tier::Server* s = &server;
  registry.gauge_fn(
      "server_throughput",
      [s](sim::SimTime) { return s->window_throughput(); },
      {{"server", server.name()}}, "Completions per second (window)");
  registry.gauge_fn(
      "server_mean_rt_seconds",
      [s](sim::SimTime) { return s->window_mean_rt(); },
      {{"server", server.name()}},
      "Mean per-request residence time (window)");
}

void register_apache_timeline(Registry& registry, tier::ApacheServer& apache) {
  tier::ApacheServer* a = &apache;
  const Labels labels = {{"server", apache.name()}};
  registry.gauge_fn(
      "apache_processed_requests",
      [a](sim::SimTime t) { return a->sample_window(t).processed_requests; },
      labels, "Requests completed in the sampling interval");
  registry.gauge_fn(
      "apache_worker_busy_ms",
      [a](sim::SimTime t) { return a->sample_window(t).pt_total_ms; }, labels,
      "Mean worker busy time per request (incl. FIN wait)");
  registry.gauge_fn(
      "apache_tomcat_interaction_ms",
      [a](sim::SimTime t) { return a->sample_window(t).pt_tomcat_ms; }, labels,
      "Mean time a worker occupies or waits for a Tomcat connection");
  registry.gauge_fn(
      "apache_threads_active",
      [a](sim::SimTime t) { return a->sample_window(t).threads_active; },
      labels, "Busy workers at the sampling instant");
  registry.gauge_fn(
      "apache_threads_connecting",
      [a](sim::SimTime t) { return a->sample_window(t).threads_connecting; },
      labels, "Workers in the Tomcat interaction at the sampling instant");
}

}  // namespace softres::obs

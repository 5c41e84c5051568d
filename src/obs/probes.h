#pragma once

#include <string>

#include "obs/registry.h"

namespace softres::hw {
class Cpu;
class Node;
}  // namespace softres::hw
namespace softres::soft {
class Pool;
}
namespace softres::tier {
class ApacheServer;
class Server;
}  // namespace softres::tier

namespace softres::obs {

/// Adapters that register every probe family into one Registry — the single
/// place the testbed (and future deployments) wire monitoring. Consumers look
/// series up by family and labels (obs::Timeline::find_series).

/// "cpu_util_pct{node=...}": SysStat-style percent utilization differenced
/// over the sampling interval.
void register_cpu_util(Registry& registry, const hw::Node& node);

/// "gc_util_pct{node=...}": percent of the interval the CPU spent frozen in
/// stop-the-world collections (the Fig 5 "GC CPU").
void register_gc_util(Registry& registry, const std::string& server,
                      const hw::Cpu& cpu);

/// "pool_util_pct{pool=...}", "pool_waiting{pool=...}" and
/// "pool_capacity{pool=...}": occupancy percent, queued acquirers and the
/// current (live-resizable) capacity.
void register_pool(Registry& registry, const soft::Pool& pool);

/// "server_throughput{server=...}" / "server_mean_rt_seconds{server=...}":
/// per-window operational quantities of any tier server.
void register_server_ops(Registry& registry, const tier::Server& server);

/// The five Fig 7/8 Apache timeline series, labelled {server=...}:
/// apache_processed_requests, apache_worker_busy_ms,
/// apache_tomcat_interaction_ms, apache_threads_active and
/// apache_threads_connecting.
void register_apache_timeline(Registry& registry, tier::ApacheServer& apache);

}  // namespace softres::obs

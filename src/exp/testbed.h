#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/governor.h"
#include "exp/config.h"
#include "exp/run_context.h"
#include "hw/link.h"
#include "hw/node.h"
#include "obs/diagnoser.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "soft/partition.h"
#include "soft/pool_set.h"
#include "tier/apache.h"
#include "tier/cjdbc.h"
#include "tier/mysql.h"
#include "tier/tomcat.h"
#include "workload/client_farm.h"
#include "workload/rubbos.h"

namespace softres::exp {

/// One fully wired instance of the simulated Emulab deployment: dedicated
/// node per server, tier links, SysStat-style 1 s sampling tick, RUBBoS
/// client farm.
/// Construct, `run()`, then read the metrics. A Testbed is single-use — a new
/// experiment trial builds a fresh one, exactly like redeploying the rig.
class Testbed {
 public:
  /// Wire the rig onto an externally owned trial context: the testbed draws
  /// all randomness from ctx.rng(), schedules on ctx.simulator() and
  /// registers every probe on ctx.registry(). `ctx` must outlive the
  /// testbed. This is the constructor Experiment::run uses — one RunContext
  /// per trial is what makes trials safe to run on concurrent threads.
  Testbed(RunContext& ctx, const TestbedConfig& cfg,
          const workload::ClientConfig& client_cfg);

  /// Convenience for standalone use (examples, microbenchmarks): builds and
  /// owns a RunContext whose trial seed is derived from
  /// (client_cfg.seed, cfg.hw, cfg.soft, client_cfg.users), and seeds the
  /// client farm from that trial seed — the same trial Experiment::run
  /// builds for that identity.
  Testbed(const TestbedConfig& cfg, const workload::ClientConfig& client_cfg);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Execute the whole trial (ramp-up, runtime, ramp-down).
  void run();

  /// The trial context this testbed is wired onto.
  RunContext& context() { return *ctx_; }
  const RunContext& context() const { return *ctx_; }

  sim::Simulator& simulator() { return ctx_->simulator(); }
  /// Unified metrics registry: every probe of every tier and the client farm
  /// registers here.
  obs::Registry& registry() { return ctx_->registry(); }
  const obs::Registry& registry() const { return ctx_->registry(); }
  /// The trial's time-series store: every series registered by the end of
  /// construction, recorded once per tick for the whole trial.
  obs::Timeline& timeline() { return timeline_; }
  const obs::Timeline& timeline() const { return timeline_; }
  /// Online pathology diagnoser; diagnosis() is the trial's verdict.
  obs::Diagnoser& diagnoser() { return *diagnoser_; }
  const obs::Diagnoser& diagnoser() const { return *diagnoser_; }
  workload::ClientFarm& farm() { return *farm_; }
  const workload::ClientFarm& farm() const { return *farm_; }
  /// Every live-resizable pool in the rig, registered by the tiers through
  /// the uniform Server::register_soft_resources hook at build time, with
  /// the cross-tier consistency hooks (JVM thread sync, C-JDBC upstream
  /// connection counts) attached. The governor operates on this.
  soft::ResizablePoolSet& pool_set() { return pool_set_; }
  const soft::ResizablePoolSet& pool_set() const { return pool_set_; }
  /// The closed-loop governor, when the trial context enables one.
  const core::Governor* governor() const { return governor_.get(); }
  /// Tenant arbiters attached to the pools of a multi-tenant trial, in
  /// pool_set() entry order (empty otherwise). Each pool owns its own
  /// arbiter because credit/quota state is per-resource, not global.
  const std::vector<std::unique_ptr<soft::TenantArbiter>>& arbiters() const {
    return arbiters_;
  }
  const workload::RubbosWorkload& workload() const { return workload_; }
  const TestbedConfig& config() const { return cfg_; }

  const std::vector<std::unique_ptr<tier::ApacheServer>>& apaches() const {
    return apaches_;
  }
  const std::vector<std::unique_ptr<tier::TomcatServer>>& tomcats() const {
    return tomcats_;
  }
  const std::vector<std::unique_ptr<tier::CJdbcServer>>& cjdbcs() const {
    return cjdbcs_;
  }
  const std::vector<std::unique_ptr<tier::MySqlServer>>& mysqls() const {
    return mysqls_;
  }
  std::vector<std::unique_ptr<tier::ApacheServer>>& apaches() {
    return apaches_;
  }
  std::vector<std::unique_ptr<tier::TomcatServer>>& tomcats() {
    return tomcats_;
  }
  std::vector<std::unique_ptr<tier::CJdbcServer>>& cjdbcs() {
    return cjdbcs_;
  }
  std::vector<std::unique_ptr<tier::MySqlServer>>& mysqls() {
    return mysqls_;
  }

  const std::vector<std::unique_ptr<hw::Node>>& nodes() const {
    return nodes_;
  }

  /// GC seconds spent by a JVM inside the measurement window (valid after
  /// run()).
  double window_gc_seconds(const jvm::Jvm& j) const;

  sim::SimTime measure_start() const { return farm_->measure_start(); }
  sim::SimTime measure_end() const { return farm_->measure_end(); }

 private:
  void build(const workload::ClientConfig& client_cfg);
  hw::Node& add_node(const std::string& name);
  void on_measure_start();
  void on_measure_end();
  void sync_cjdbc_upstreams();
  /// One sampling instant: record every series, then step the tenant
  /// arbiters, the diagnoser and the governor, in that order.
  void tick();
  void governor_tick(sim::SimTime now);

  /// The paper's SysStat granularity.
  static constexpr sim::SimTime kSampleInterval = 1.0;

  std::unique_ptr<RunContext> owned_ctx_;  // only for the standalone ctor
  RunContext* ctx_ = nullptr;
  TestbedConfig cfg_;
  workload::RubbosWorkload workload_;

  std::vector<std::unique_ptr<hw::Node>> nodes_;
  std::vector<std::unique_ptr<hw::Link>> links_;
  std::vector<std::unique_ptr<tier::MySqlServer>> mysqls_;
  std::vector<std::unique_ptr<tier::CJdbcServer>> cjdbcs_;
  std::vector<std::unique_ptr<tier::TomcatServer>> tomcats_;
  std::vector<std::unique_ptr<tier::ApacheServer>> apaches_;
  std::unique_ptr<workload::ClientFarm> farm_;
  obs::Timeline timeline_;
  std::unique_ptr<obs::Diagnoser> diagnoser_;

  soft::ResizablePoolSet pool_set_;
  // One arbiter per pool_set_ entry when the trial is multi-tenant; the
  // raw pool pointers inside the entries stay the owners of the pools.
  std::vector<std::unique_ptr<soft::TenantArbiter>> arbiters_;
  std::unique_ptr<core::Governor> governor_;
  // The store's backend (non-web) cpu_util_pct columns, the governor's
  // growth-guard input. timeline_ reserves its columns once in build(), so
  // these stay valid for the whole run.
  std::vector<const obs::Series*> backend_cpu_;

  std::map<const jvm::Jvm*, double> gc_baseline_;
  std::map<const jvm::Jvm*, double> gc_at_end_;
};

}  // namespace softres::exp

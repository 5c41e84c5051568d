#include "exp/testbed.h"

#include <algorithm>
#include <cassert>

#include "obs/probes.h"
#include "support/prof.h"

namespace softres::exp {

Testbed::Testbed(RunContext& ctx, const TestbedConfig& cfg,
                 const workload::ClientConfig& client_cfg)
    : ctx_(&ctx), cfg_(cfg), workload_(cfg.mix, cfg.demands) {
  build(client_cfg);
}

Testbed::Testbed(const TestbedConfig& cfg,
                 const workload::ClientConfig& client_cfg)
    : owned_ctx_(std::make_unique<RunContext>(client_cfg.seed, cfg,
                                              client_cfg.users)),
      ctx_(owned_ctx_.get()), cfg_(cfg), workload_(cfg.mix, cfg.demands) {
  build(client_cfg);
}

void Testbed::build(const workload::ClientConfig& client_cfg) {
  // A fresh context makes this a no-op; re-wiring a second testbed onto a
  // reused context must start from zeroed metric values (histogram sums and
  // counts would otherwise leak across trials).
  ctx_->reset_metrics();
  sim::Simulator& sim = ctx_->simulator();
  sim::Rng& rng = ctx_->rng();
  obs::Registry& registry = ctx_->registry();
  auto add_link = [&](const std::string& name) -> hw::Link& {
    links_.push_back(std::make_unique<hw::Link>(
        sim, name, cfg_.link_latency_s, cfg_.link_bandwidth_Bps));
    return *links_.back();
  };
  hw::Link& client_up = add_link("client->web");
  hw::Link& client_down = add_link("web->client");
  hw::Link& web_app_up = add_link("web->app");
  hw::Link& web_app_down = add_link("app->web");
  hw::Link& app_cm_up = add_link("app->cm");
  hw::Link& app_cm_down = add_link("cm->app");
  hw::Link& cm_db_up = add_link("cm->db");
  hw::Link& cm_db_down = add_link("db->cm");

  // Database tier.
  for (int i = 0; i < cfg_.hw.db; ++i) {
    hw::Node& node = add_node("mysql" + std::to_string(i));
    mysqls_.push_back(std::make_unique<tier::MySqlServer>(
        sim, node.name(), node, rng.split()));
  }

  // Clustering middleware tier; MySQL servers are partitioned round-robin
  // when more than one middleware node is provisioned.
  for (int i = 0; i < cfg_.hw.middleware; ++i) {
    hw::Node& node = add_node("cjdbc" + std::to_string(i));
    cjdbcs_.push_back(std::make_unique<tier::CJdbcServer>(
        sim, node.name(), node, cfg_.cjdbc_jvm, cm_db_up, cm_db_down,
        cfg_.cjdbc_alloc_per_query_mb));
  }
  for (std::size_t i = 0; i < mysqls_.size(); ++i) {
    cjdbcs_[i % cjdbcs_.size()]->add_backend(*mysqls_[i]);
  }

  // Application tier. Each Tomcat talks to one middleware server.
  for (int i = 0; i < cfg_.hw.app; ++i) {
    hw::Node& node = add_node("tomcat" + std::to_string(i));
    tier::CJdbcServer& cm = *cjdbcs_[static_cast<std::size_t>(i) %
                                     cjdbcs_.size()];
    tomcats_.push_back(std::make_unique<tier::TomcatServer>(
        sim, node.name(), node, cfg_.tomcat_jvm, cfg_.soft.tomcat_threads,
        cfg_.soft.db_connections, cm, app_cm_up, app_cm_down,
        cfg_.tomcat_alloc_per_request_mb));
  }
  // One Tomcat DB connection = one C-JDBC thread (and one MySQL thread).
  sync_cjdbc_upstreams();

  // Client farm precedes the web tier so Apache can observe client load.
  farm_ = std::make_unique<workload::ClientFarm>(sim, workload_, client_cfg,
                                                 client_up,
                                                 &ctx_->requests());

  // Web tier.
  for (int i = 0; i < cfg_.hw.web; ++i) {
    hw::Node& node = add_node("apache" + std::to_string(i));
    net::TcpModel tcp(cfg_.tcp, rng.split());
    workload::ClientFarm* farm = farm_.get();
    apaches_.push_back(std::make_unique<tier::ApacheServer>(
        sim, node.name(), node, cfg_.soft.apache_threads, web_app_up,
        web_app_down, client_down, std::move(tcp),
        [farm] { return farm->client_load(); }));
    for (auto& t : tomcats_) apaches_.back()->add_tomcat(*t);
    farm_->add_target(*apaches_.back());
  }

  // Uniform soft-resource surface: every tier registers its live-resizable
  // pools (and tier-local consistency hooks) through the one virtual hook;
  // the governor only ever sees this set.
  // Registration order — web, app, middleware, db — is deterministic.
  for (auto& a : apaches_) a->register_soft_resources(pool_set_);
  for (auto& t : tomcats_) t->register_soft_resources(pool_set_);
  for (auto& c : cjdbcs_) c->register_soft_resources(pool_set_);
  for (auto& m : mysqls_) m->register_soft_resources(pool_set_);
  // Cross-tier consistency only the testbed can express: each C-JDBC JVM's
  // thread count tracks the summed connection-pool capacities of the Tomcats
  // mapped to it (one Tomcat DB connection = one C-JDBC thread).
  pool_set_.add_post_resize_hook([this] { sync_cjdbc_upstreams(); });

  // Multi-tenant pool sharing (opt-in): arbiters are built only when the
  // trial context carries an enabled SharePolicy AND the client config names
  // tenants. One arbiter per pool, in pool_set_ entry order, each seeded
  // from the same declared shares — credit/quota state is per-resource.
  const soft::SharePolicy& share_policy = ctx_->partition_policy();
  if (share_policy.enabled() && !client_cfg.tenants.empty()) {
    std::vector<soft::TenantShare> shares;
    shares.reserve(client_cfg.tenants.size());
    for (const auto& t : client_cfg.tenants) {
      shares.push_back(
          soft::TenantShare{t.name, t.entitlement, t.reported_demand});
    }
    for (const auto& entry : pool_set_.entries()) {
      arbiters_.push_back(
          std::make_unique<soft::TenantArbiter>(share_policy, shares));
      entry.pool->set_arbiter(arbiters_.back().get());
    }
  }

  // Unified observability: every probe family registers on the one Registry.
  for (auto& node : nodes_) {
    obs::register_cpu_util(registry, *node);
  }
  for (auto& t : tomcats_) {
    obs::register_gc_util(registry, t->name(), t->node().cpu());
    obs::register_pool(registry, t->thread_pool());
    obs::register_pool(registry, t->connection_pool());
    obs::register_server_ops(registry, *t);
  }
  for (auto& c : cjdbcs_) {
    obs::register_gc_util(registry, c->name(), c->node().cpu());
    obs::register_server_ops(registry, *c);
  }
  for (auto& m : mysqls_) {
    obs::register_server_ops(registry, *m);
  }
  for (auto& a : apaches_) {
    obs::register_pool(registry, a->worker_pool());
    obs::register_apache_timeline(registry, *a);
    obs::register_server_ops(registry, *a);
  }
  farm_->bind_registry(registry);
  // Per-(pool, tenant) occupancy share of a partitioned trial: the series
  // the noisy-neighbour detector implicates tenants from.
  for (std::size_t pi = 0; pi < arbiters_.size(); ++pi) {
    const soft::Pool* pool = pool_set_.entries()[pi].pool;
    const soft::TenantArbiter* arb = arbiters_[pi].get();
    for (std::size_t t = 0; t < arb->tenants(); ++t) {
      registry.gauge_fn(
          "pool_tenant_share_pct",
          [pool, t](sim::SimTime) {
            const std::size_t cap = pool->capacity();
            if (cap == 0) return 0.0;
            return 100.0 * static_cast<double>(pool->tenant_in_use(t)) /
                   static_cast<double>(cap);
          },
          {{"pool", pool->name()}, {"tenant", arb->tenant(t).name}},
          "Share of a pool's capacity held by one tenant, in percent");
    }
  }

  // The trial's one time-series store: a column per series registered
  // above, reserved for every tick up to the horizon. The diagnoser finds
  // its pools, CPUs and web tiers in it by family and labels; its analysis
  // window is the measurement window, so ramp transients cannot fire a
  // pathology.
  timeline_ = obs::Timeline(
      registry,
      static_cast<std::size_t>(farm_->total_duration() / kSampleInterval));
  diagnoser_ = std::make_unique<obs::Diagnoser>(timeline_);
  diagnoser_->set_analysis_window(farm_->measure_start(),
                                  farm_->measure_end());

  // Closed-loop governor (opt-in via the trial context); tick() runs it
  // after the store records and the diagnoser observes, so each step
  // consumes the CPU utilization and the diagnosis of the same instant.
  const core::GovernorConfig& gov_cfg = ctx_->governor_config();
  if (gov_cfg.enabled) {
    governor_ = std::make_unique<core::Governor>(gov_cfg, pool_set_);
    for (const auto& node : nodes_) {
      if (node->name().rfind("apache", 0) == 0) continue;  // web stalls != CPU
      backend_cpu_.push_back(
          timeline_.find_series("cpu_util_pct", {{"node", node->name()}}));
      assert(backend_cpu_.back() != nullptr);
    }
  }
}

void Testbed::tick() {
  const sim::SimTime now = simulator().now();
  timeline_.record(now);
  // Arbiter credit accounting (Karma epochs) rides the tick so it is part
  // of the deterministic event order.
  for (std::size_t pi = 0; pi < arbiters_.size(); ++pi) {
    arbiters_[pi]->tick(now, *pool_set_.entries()[pi].pool);
  }
  diagnoser_->observe(now);
  if (governor_ != nullptr) governor_tick(now);
  // The next tick is scheduled only after this one's work, and never past
  // the horizon: the columns reserved in build() are never outgrown.
  if (now + kSampleInterval <= farm_->total_duration()) {
    simulator().schedule(kSampleInterval, [this] { tick(); });
  }
}

void Testbed::sync_cjdbc_upstreams() {
  for (std::size_t c = 0; c < cjdbcs_.size(); ++c) {
    std::size_t conns = 0;
    for (std::size_t i = c; i < tomcats_.size(); i += cjdbcs_.size()) {
      conns += tomcats_[i]->connection_pool().capacity();
    }
    cjdbcs_[c]->set_upstream_connections(conns);
  }
}

void Testbed::governor_tick(sim::SimTime now) {
  // Hottest backend CPU over the last tick, as the store recorded it at this
  // tick: the growth-guard input.
  double max_cpu_pct = 0.0;
  for (const obs::Series* cpu : backend_cpu_) {
    max_cpu_pct = std::max(max_cpu_pct, cpu->values.back());
  }

  // Translate the diagnoser's live suggestion into core vocabulary (core
  // cannot depend on obs; cf. DiagnosisHint).
  core::GovernorAdvice advice;
  const obs::SuggestedAction hint = diagnoser_->diagnosis().suggested_action;
  if (hint.kind == obs::SuggestedAction::Kind::kGrowPool) {
    advice.kind = core::GovernorAdvice::Kind::kGrow;
    advice.resource = hint.resource;
  } else if (hint.kind == obs::SuggestedAction::Kind::kShrinkPool) {
    advice.kind = core::GovernorAdvice::Kind::kShrink;
    advice.resource = hint.resource;
  }
  governor_->tick(now, max_cpu_pct, advice);
}

hw::Node& Testbed::add_node(const std::string& name) {
  nodes_.push_back(std::make_unique<hw::Node>(ctx_->simulator(), name,
                                              cfg_.node, ctx_->rng().split()));
  return *nodes_.back();
}

void Testbed::on_measure_start() {
  SOFTRES_PROF_PHASE(kMeasure);
  for (auto& a : apaches_) {
    a->reset_window_stats();
    a->worker_pool().reset_stats(simulator().now());
  }
  for (auto& t : tomcats_) {
    t->reset_window_stats();
    t->thread_pool().reset_stats(simulator().now());
    t->connection_pool().reset_stats(simulator().now());
    gc_baseline_[&t->jvm()] = t->jvm().total_gc_seconds();
  }
  for (auto& c : cjdbcs_) {
    c->reset_window_stats();
    gc_baseline_[&c->jvm()] = c->jvm().total_gc_seconds();
  }
  for (auto& m : mysqls_) m->reset_window_stats();
}

void Testbed::on_measure_end() {
  SOFTRES_PROF_PHASE(kRampDown);
  for (auto& t : tomcats_) {
    gc_at_end_[&t->jvm()] = t->jvm().total_gc_seconds();
  }
  for (auto& c : cjdbcs_) {
    gc_at_end_[&c->jvm()] = c->jvm().total_gc_seconds();
  }
}

double Testbed::window_gc_seconds(const jvm::Jvm& j) const {
  const auto it = gc_baseline_.find(&j);
  const double base = it != gc_baseline_.end() ? it->second : 0.0;
  const auto end_it = gc_at_end_.find(&j);
  const double end = end_it != gc_at_end_.end() ? end_it->second
                                                : j.total_gc_seconds();
  return end - base;
}

void Testbed::run() {
  // Phase transitions ride the trial's own schedule: everything before this
  // call is kSetup, the measurement-window events below advance further.
  SOFTRES_PROF_PHASE(kRampUp);
  simulator().schedule(kSampleInterval, [this] { tick(); });
  farm_->start();
  simulator().schedule_at(farm_->measure_start(), [this] { on_measure_start(); });
  simulator().schedule_at(farm_->measure_end(), [this] { on_measure_end(); });
  simulator().run_until(farm_->total_duration());
}

}  // namespace softres::exp

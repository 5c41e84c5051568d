#pragma once

#include <cstdint>
#include <vector>

#include "hw/link.h"
#include "obs/registry.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "tier/apache.h"
#include "workload/rubbos.h"

namespace softres::workload {

/// One step of an elastic load profile: from `start` (absolute simulation
/// time) onward, `active_users` sessions are active. Internet-scale workloads
/// have peak load several times the steady state (paper, Section I); the
/// schedule lets experiments replay such profiles.
struct LoadPhase {
  sim::SimTime start = 0.0;
  std::size_t active_users = 0;
};

/// One step of a service-demand profile: from `start` onward, backend
/// (Tomcat/C-JDBC/MySQL) per-request CPU demands are multiplied by `scale`.
/// scale > 1 models a tier slowdown (cache loss, degraded replica); a later
/// phase with scale = 1 models recovery. Demands are scaled at issue time, so
/// the profile perturbs no RNG stream and trials stay bit-identical.
struct DemandPhase {
  sim::SimTime start = 0.0;
  double scale = 1.0;
};

/// One tenant of a multi-tenant trial: its own closed-loop session block,
/// SLA bound, and sharing contract. `entitlement` is the provisioned share
/// weight (what static quotas and Karma fair shares divide by);
/// `reported_demand` is the tenant's *claimed* demand weight — only the
/// work-conserving strategy trusts it, which is what makes misreporting
/// profitable there (see soft/partition.h). Per-user RNG streams are derived
/// from (trial seed, tenant index, user index within the tenant), so tenants
/// are mutually stream-independent: adding or resizing one tenant never
/// perturbs another's request sequence.
struct TenantSpec {
  std::string name;
  std::size_t users = 0;
  double entitlement = 1.0;
  double reported_demand = 1.0;
  /// Per-tenant SLA bound feeding the tenant_goodput/tenant_badput series.
  double sla_threshold_s = 2.0;
  /// Optional per-tenant elastic profile (an empty schedule staggers the
  /// tenant's users across the ramp-up like the fixed-population default).
  std::vector<LoadPhase> load_schedule;
};

/// Closed-loop load generation parameters. The paper's trials are an 8 min
/// ramp-up, 12 min runtime, 30 s ramp-down; the defaults here are compressed
/// for iteration speed and widened by the experiment harness when
/// SOFTRES_FULL is set.
struct ClientConfig {
  std::size_t users = 1000;
  double think_time_mean_s = 7.0;
  double ramp_up_s = 30.0;
  double runtime_s = 120.0;
  double ramp_down_s = 5.0;
  /// Aggregate user capacity of the client machines; beyond ~88 % of this the
  /// FIN-reply latency model kicks in (see net::TcpConfig).
  double users_capacity = 8000.0;
  std::uint64_t seed = 42;
  /// Fraction of dynamic requests traced tier-by-tier (Request::trace),
  /// default off. Sampling is a deterministic hash of (seed, request id), so
  /// the traced subset is reproducible and tracing perturbs neither the RNG
  /// streams nor the event sequence. The farm retains at most
  /// kMaxTracedRequests traced requests. Benches and examples share this one
  /// switch via exp::ExperimentOptions::trace_sample_rate.
  double trace_sample_rate = 0.0;
  /// Optional time-varying load shape (flash crowd, diurnal wave — see
  /// workload/load_shapes.h). When non-empty, start() follows this profile
  /// instead of the fixed population. Phase populations must not exceed
  /// `users` (the slot pool). Carried in the config so experiment harnesses
  /// can plumb scenarios through ExperimentOptions without touching the farm
  /// directly.
  std::vector<LoadPhase> load_schedule;
  /// Optional backend service-demand profile (tier slowdown/recovery).
  std::vector<DemandPhase> demand_schedule;
  /// Multi-tenant mode: when non-empty the farm runs one session block per
  /// tenant (`users` above is overridden with the tenant sum) and tags every
  /// request with its tenant index. Empty = the legacy single-tenant farm,
  /// bit-identical to before this knob existed.
  std::vector<TenantSpec> tenants;
};

/// Emulated RUBBoS client farm: `users` independent closed-loop sessions,
/// each cycling think -> dynamic page request -> 2 static requests. Response
/// times of dynamic requests completed inside the measurement window are
/// recorded for the SLA goodput analysis.
class ClientFarm {
 public:
  /// `arena` is the per-trial Request pool every issued request is drawn
  /// from. The farm is each request's one owner: it releases a request once
  /// the response has arrived, keeping only the traced ones. The arena must
  /// outlive the farm and the simulator's pending events — exp::RunContext
  /// guarantees both.
  ClientFarm(sim::Simulator& sim, const RubbosWorkload& workload,
             ClientConfig config, hw::Link& to_server,
             tier::RequestArena& arena);

  /// Register the web server(s) requests go to; at least one must be added
  /// before start(). Multiple servers are used round-robin (DNS balancing).
  void add_target(tier::ApacheServer& apache) { apaches_.push_back(&apache); }

  /// Activate the users, staggered across the ramp-up period (fixed
  /// population) or according to `ClientConfig::load_schedule` (elastic).
  void start();

  /// Sessions currently active (the elastic population).
  std::size_t active_users() const { return started_users_; }

  /// Backend demand multiplier in effect at time `t` (1.0 without a
  /// demand schedule). Exposed for tests and probes.
  double demand_scale(sim::SimTime t) const;

  /// Started-user fraction of client capacity; drives the FIN-delay model.
  double client_load() const;

  sim::SimTime measure_start() const { return config_.ramp_up_s; }
  sim::SimTime measure_end() const {
    return config_.ramp_up_s + config_.runtime_s;
  }
  sim::SimTime total_duration() const {
    return config_.ramp_up_s + config_.runtime_s + config_.ramp_down_s;
  }

  /// Dynamic-request response times completed inside the window.
  const sim::SampleSet& response_times() const { return rts_; }
  const std::vector<sim::SimTime>& completion_times() const {
    return completion_times_;
  }

  /// Interactions per second over the measurement window.
  double window_throughput() const;
  /// Interactions per second that met `threshold_s` (the paper's goodput).
  double goodput(double threshold_s) const;

  std::uint64_t pages_started() const { return pages_started_; }
  const ClientConfig& config() const { return config_; }

  // Multi-tenant views (num_tenants() == 0 on a legacy farm).
  std::size_t num_tenants() const { return config_.tenants.size(); }
  const TenantSpec& tenant(std::size_t t) const { return config_.tenants[t]; }
  /// Dynamic-request response times of tenant `t` inside the window.
  const sim::SampleSet& tenant_response_times(std::size_t t) const {
    return tenant_rts_[t];
  }
  /// Window interactions per second of tenant `t`.
  double tenant_throughput(std::size_t t) const;
  /// Window interactions per second of tenant `t` that met `threshold_s`.
  double tenant_goodput(std::size_t t, double threshold_s) const;

  /// Requests that carried tier-by-tier tracing (Fig 9 style analysis).
  /// The farm never releases these, so they stay readable in the arena
  /// until it is destroyed.
  const std::vector<const tier::Request*>& traced_requests() const {
    return traced_;
  }
  static constexpr std::size_t kMaxTracedRequests = 200;

  /// Register the farm's client-side metrics (request counters, the Fig 3c
  /// response-time histogram, active users / client load gauges) on the
  /// unified registry. Call before start().
  void bind_registry(obs::Registry& registry);

 private:
  void start_user(std::size_t u);
  void apply_target(std::size_t target);
  void apply_tenant_target(std::size_t t, std::size_t target);
  void think_then_browse(std::size_t u);
  void issue_page(std::size_t u);
  void issue_static(std::size_t u, int remaining);
  // Completion stages (in-flight state in req->client_hold, so the
  // send/response callbacks capture only {farm, Request*} and stay inline).
  void on_page_done(tier::Request* r);
  void on_static_done(tier::Request* r);
  bool stopped() const;
  bool should_trace(std::uint64_t request_id) const;
  tier::ApacheServer* next_apache();
  /// Idempotent per-sampler-tick close of tenant `t`'s goodput/badput
  /// window (both gauge_fns of a tick see the same rates).
  void sample_tenant_window(std::size_t t, sim::SimTime now);

  sim::Simulator& sim_;
  const RubbosWorkload& workload_;
  ClientConfig config_;
  hw::Link& to_server_;
  tier::RequestArena& arena_;
  std::vector<tier::ApacheServer*> apaches_;
  std::size_t next_apache_ = 0;

  std::vector<sim::Rng> user_rngs_;
  std::vector<bool> user_active_;
  std::size_t active_target_ = 0;
  std::size_t started_users_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t pages_started_ = 0;

  sim::SampleSet rts_;
  std::vector<sim::SimTime> completion_times_;
  std::vector<const tier::Request*> traced_;

  // Multi-tenant state (all empty on a legacy farm).
  std::vector<std::uint32_t> tenant_of_user_;
  std::vector<std::size_t> tenant_user_base_;  // first slot of each tenant
  std::vector<std::size_t> tenant_target_;     // elastic per-tenant target
  std::vector<std::size_t> tenant_started_;
  std::vector<sim::SampleSet> tenant_rts_;
  /// Per-tenant goodput/badput interval accumulator, closed once per sampler
  /// tick (cached_at makes the close idempotent across the two gauge_fns).
  struct TenantWindow {
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    sim::SimTime window_start = 0.0;
    sim::SimTime cached_at = -1.0;
    double good_rate = 0.0;
    double bad_rate = 0.0;
  };
  std::vector<TenantWindow> tenant_windows_;
  std::vector<obs::Counter> tenant_requests_;

  // Observability handles; default-constructed handles are no-op sinks, so
  // an unbound farm pays one null check per event.
  obs::Counter dynamic_requests_;
  obs::Counter static_requests_;
  obs::Histogram rt_hist_;
};

}  // namespace softres::workload

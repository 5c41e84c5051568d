#include "workload/client_farm.h"

#include <cassert>

#include "sim/distributions.h"

namespace softres::workload {

// Salt separating the per-tenant stream roots from every other consumer of
// the trial seed (trace sampling, node/TCP streams).
constexpr std::uint64_t kTenantStreamSalt = 0x7e6a9c15b4d3f201ull;

ClientFarm::ClientFarm(sim::Simulator& sim, const RubbosWorkload& workload,
                       ClientConfig config, hw::Link& to_server,
                       tier::RequestArena& arena)
    : sim_(sim), workload_(workload), config_(std::move(config)),
      to_server_(to_server), arena_(arena) {
  if (!config_.tenants.empty()) {
    // Multi-tenant farm: one session block per tenant; `users` becomes the
    // tenant sum. Each user's stream is a pure function of (trial seed,
    // tenant index, index within the tenant) — NOT of the global slot index
    // or of any other tenant's size — so adding an idle tenant, or resizing
    // tenant k, leaves every other tenant's request sequence untouched.
    config_.users = 0;
    for (const TenantSpec& t : config_.tenants) config_.users += t.users;
    assert(config_.users > 0);
    user_rngs_.reserve(config_.users);
    tenant_of_user_.reserve(config_.users);
    tenant_user_base_.reserve(config_.tenants.size());
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      tenant_user_base_.push_back(user_rngs_.size());
      const std::uint64_t tenant_root =
          sim::Rng::hash_mix(config_.seed, kTenantStreamSalt + t);
      for (std::size_t j = 0; j < config_.tenants[t].users; ++j) {
        // SOFTRES_LINT_ALLOW(SR004: seeded from the derived trial seed)
        user_rngs_.push_back(sim::Rng(sim::Rng::hash_mix(tenant_root, j)));
        tenant_of_user_.push_back(static_cast<std::uint32_t>(t));
      }
    }
    tenant_target_.assign(config_.tenants.size(), 0);
    tenant_started_.assign(config_.tenants.size(), 0);
    tenant_rts_.resize(config_.tenants.size());
    tenant_windows_.resize(config_.tenants.size());
    tenant_requests_.resize(config_.tenants.size());
    return;
  }
  // config_.seed is the trial seed the harness already derived via
  // RunContext::derive_seed; this is the sanctioned root of the per-user
  // streams. SOFTRES_LINT_ALLOW(SR004: seed is the derived trial seed)
  sim::Rng master(config_.seed);
  user_rngs_.reserve(config_.users);
  for (std::size_t u = 0; u < config_.users; ++u) {
    user_rngs_.push_back(master.split());
  }
}

void ClientFarm::bind_registry(obs::Registry& registry) {
  dynamic_requests_ =
      registry.counter("client_requests_total", {{"kind", "dynamic"}},
                       "Requests issued by the client farm");
  static_requests_ =
      registry.counter("client_requests_total", {{"kind", "static"}},
                       "Requests issued by the client farm");
  // The paper's Fig 3c response-time buckets.
  rt_hist_ = registry.histogram(
      "client_response_time_seconds", {0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0}, {},
      "End-to-end response time of dynamic requests in the window");
  registry.gauge_fn(
      "client_active_users",
      [this](sim::SimTime) { return static_cast<double>(started_users_); },
      {}, "Closed-loop sessions currently active");
  registry.gauge_fn(
      "client_load", [this](sim::SimTime) { return client_load(); }, {},
      "Started-user fraction of client capacity (drives the FIN-delay model)");
  // Per-tenant SLA lanes. goodput/badput are interval rates over the sampler
  // window (see sample_tenant_window); active_users is instantaneous. The
  // noisy-neighbor detector reads tenant_badput to find victims.
  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    const obs::Labels labels{{"tenant", config_.tenants[t].name}};
    tenant_requests_[t] = registry.counter(
        "tenant_requests_total", labels, "Dynamic requests issued per tenant");
    registry.gauge_fn(
        "tenant_active_users",
        [this, t](sim::SimTime) {
          return static_cast<double>(tenant_started_[t]);
        },
        labels, "Closed-loop sessions of this tenant currently active");
    registry.gauge_fn(
        "tenant_goodput",
        [this, t](sim::SimTime now) {
          sample_tenant_window(t, now);
          return tenant_windows_[t].good_rate;
        },
        labels, "Interactions/s meeting the tenant SLA over the last window");
    registry.gauge_fn(
        "tenant_badput",
        [this, t](sim::SimTime now) {
          sample_tenant_window(t, now);
          return tenant_windows_[t].bad_rate;
        },
        labels, "Interactions/s violating the tenant SLA over the last window");
  }
}

void ClientFarm::sample_tenant_window(std::size_t t, sim::SimTime now) {
  TenantWindow& w = tenant_windows_[t];
  if (now == w.cached_at) return;
  const double dt = now - w.window_start;
  w.good_rate = dt > 0.0 ? static_cast<double>(w.good) / dt : 0.0;
  w.bad_rate = dt > 0.0 ? static_cast<double>(w.bad) / dt : 0.0;
  w.good = 0;
  w.bad = 0;
  w.window_start = now;
  w.cached_at = now;
}

double ClientFarm::demand_scale(sim::SimTime t) const {
  double scale = 1.0;
  // Tiny sorted schedule; the last phase that has started wins.
  for (const auto& phase : config_.demand_schedule) {
    if (phase.start <= t) scale = phase.scale;
  }
  return scale;
}

void ClientFarm::start() {
  assert(!apaches_.empty());
  if (!config_.tenants.empty()) {
    // Multi-tenant: each tenant block ramps independently — fixed
    // population staggered across the ramp-up, or its own load schedule.
    user_active_.assign(config_.users, false);
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      const TenantSpec& spec = config_.tenants[t];
      if (spec.load_schedule.empty()) {
        tenant_target_[t] = spec.users;
        for (std::size_t j = 0; j < spec.users; ++j) {
          const std::size_t u = tenant_user_base_[t] + j;
          const double offset = config_.ramp_up_s *
                                (static_cast<double>(j) + 0.5) /
                                static_cast<double>(spec.users);
          sim_.schedule(offset, [this, u] { start_user(u); });
        }
        continue;
      }
      for (const LoadPhase& phase : spec.load_schedule) {
        assert(phase.active_users <= spec.users);
        sim_.schedule_at(phase.start, [this, t, n = phase.active_users] {
          apply_tenant_target(t, n);
        });
      }
    }
    return;
  }
  user_active_.assign(config_.users, false);
  if (config_.load_schedule.empty()) {
    // Fixed population: stagger activation uniformly across the ramp-up.
    active_target_ = config_.users;
    for (std::size_t u = 0; u < config_.users; ++u) {
      const double offset = config_.ramp_up_s *
                            (static_cast<double>(u) + 0.5) /
                            static_cast<double>(config_.users);
      sim_.schedule(offset, [this, u] { start_user(u); });
    }
    return;
  }
  for (const auto& phase : config_.load_schedule) {
    assert(phase.active_users <= config_.users);
    sim_.schedule_at(phase.start,
                     [this, n = phase.active_users] { apply_target(n); });
  }
}

void ClientFarm::apply_target(std::size_t target) {
  active_target_ = target;
  // Growth: wake dormant sessions, staggered over a couple of seconds so a
  // phase change does not arrive as one synchronized burst. Shrink takes
  // effect lazily: surplus sessions park at their next cycle boundary.
  for (std::size_t u = 0; u < target; ++u) {
    if (user_active_[u]) continue;
    user_active_[u] = true;
    ++started_users_;
    const double jitter =
        2.0 * static_cast<double>(u % 97) / 97.0;
    sim_.schedule(jitter, [this, u] {
      if (user_active_[u]) issue_page(u);
    });
  }
}

void ClientFarm::apply_tenant_target(std::size_t t, std::size_t target) {
  // Per-tenant variant of apply_target over the tenant's slot block. The
  // jitter is keyed on the index *within* the tenant so a tenant's wake
  // pattern is independent of where its block happens to sit.
  tenant_target_[t] = target;
  for (std::size_t j = 0; j < target; ++j) {
    const std::size_t u = tenant_user_base_[t] + j;
    if (user_active_[u]) continue;
    user_active_[u] = true;
    ++started_users_;
    ++tenant_started_[t];
    const double jitter = 2.0 * static_cast<double>(j % 97) / 97.0;
    sim_.schedule(jitter, [this, u] {
      if (user_active_[u]) issue_page(u);
    });
  }
}

bool ClientFarm::stopped() const {
  return sim_.now() >= measure_end() + config_.ramp_down_s;
}

double ClientFarm::client_load() const {
  return static_cast<double>(started_users_) / config_.users_capacity;
}

void ClientFarm::start_user(std::size_t u) {
  ++started_users_;
  if (!tenant_of_user_.empty()) ++tenant_started_[tenant_of_user_[u]];
  user_active_[u] = true;
  // New sessions browse immediately, then settle into the think cycle.
  issue_page(u);
}

void ClientFarm::think_then_browse(std::size_t u) {
  if (stopped()) return;
  if (!tenant_of_user_.empty()) {
    const std::uint32_t t = tenant_of_user_[u];
    if (u - tenant_user_base_[t] >= tenant_target_[t] && user_active_[u]) {
      // Elastic shrink of this tenant: leave at the cycle boundary.
      user_active_[u] = false;
      --started_users_;
      --tenant_started_[t];
      return;
    }
  } else if (u >= active_target_ && user_active_[u]) {
    // Elastic shrink: this session leaves at the cycle boundary.
    user_active_[u] = false;
    --started_users_;
    return;
  }
  const double think =
      sim::fast_exponential(user_rngs_[u], config_.think_time_mean_s);
  sim_.schedule(think, [this, u] { issue_page(u); });
}

void ClientFarm::issue_page(std::size_t u) {
  if (stopped()) return;
  tier::Request* r = arena_.acquire();
  r->id = next_request_id_++;
  if (!tenant_of_user_.empty()) r->tenant = tenant_of_user_[u];
  workload_.sample_dynamic(*r, user_rngs_[u]);
  if (!config_.demand_schedule.empty()) {
    // Tier slowdown/recovery: scale backend demands at issue time. The RNG
    // stream is untouched, so a scaled trial replays the same request mix.
    const double scale = demand_scale(sim_.now());
    r->tomcat_demand_s *= scale;
    r->cjdbc_demand_s *= scale;
    r->mysql_demand_s *= scale;
  }
  r->sent_at = sim_.now();
  ++pages_started_;
  dynamic_requests_.inc();
  if (config_.trace_sample_rate > 0.0 &&
      traced_.size() < kMaxTracedRequests &&
      should_trace(r->id)) {
    r->enable_trace();
    traced_.push_back(r);
  }
  // In-flight state parks in the request so the send/response callbacks
  // below capture {this, Request*} and stay inside InlineFunction's buffer.
  auto& hold = r->client_hold;
  hold.user = static_cast<std::uint32_t>(u);
  hold.target = next_apache();
  to_server_.send(r->request_bytes, [this, r] {
    r->client_hold.target->handle(r, [this, r] { on_page_done(r); });
  });
}

void ClientFarm::on_page_done(tier::Request* r) {
  r->completed_at = sim_.now();
  if (r->completed_at >= measure_start() && r->completed_at < measure_end()) {
    const double rt = r->completed_at - r->sent_at;
    rts_.add(rt);
    completion_times_.push_back(r->completed_at);
    rt_hist_.observe(rt);
    if (!tenant_of_user_.empty()) {
      const std::uint32_t t = r->tenant;
      tenant_rts_[t].add(rt);
      tenant_requests_[t].inc();
      TenantWindow& w = tenant_windows_[t];
      if (rt <= config_.tenants[t].sla_threshold_s) {
        ++w.good;
      } else {
        ++w.bad;
      }
    }
  }
  // Release after issuing the next request, not before: the order sets the
  // slab's high-water mark, which perfbench reports as
  // mem.request_slab_peak.
  issue_static(r->client_hold.user, RubbosWorkload::kStaticsPerPage);
  if (!r->traced()) arena_.release(r);  // traced requests stay collectable
}

void ClientFarm::issue_static(std::size_t u, int remaining) {
  if (remaining <= 0 || stopped()) {
    think_then_browse(u);
    return;
  }
  tier::Request* r = arena_.acquire();
  r->id = next_request_id_++;
  if (!tenant_of_user_.empty()) r->tenant = tenant_of_user_[u];
  workload_.sample_static(*r, user_rngs_[u]);
  r->sent_at = sim_.now();
  static_requests_.inc();
  auto& hold = r->client_hold;
  hold.user = static_cast<std::uint32_t>(u);
  hold.statics_remaining = remaining;
  hold.target = next_apache();
  to_server_.send(r->request_bytes, [this, r] {
    r->client_hold.target->handle(r, [this, r] { on_static_done(r); });
  });
}

void ClientFarm::on_static_done(tier::Request* r) {
  issue_static(r->client_hold.user, r->client_hold.statics_remaining - 1);
  arena_.release(r);  // statics are never traced
}

bool ClientFarm::should_trace(std::uint64_t request_id) const {
  // Hash-based 1-in-N sampling: deterministic per (seed, request id), and —
  // unlike drawing from a user's RNG stream — consumes no random numbers, so
  // a traced trial replays the exact event sequence of an untraced one.
  const std::uint64_t h = sim::Rng::hash_mix(config_.seed, request_id);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < config_.trace_sample_rate;
}

tier::ApacheServer* ClientFarm::next_apache() {
  tier::ApacheServer* a = apaches_[next_apache_];
  next_apache_ = (next_apache_ + 1) % apaches_.size();
  return a;
}

double ClientFarm::window_throughput() const {
  return static_cast<double>(rts_.count()) / config_.runtime_s;
}

double ClientFarm::goodput(double threshold_s) const {
  return static_cast<double>(rts_.count_at_or_below(threshold_s)) /
         config_.runtime_s;
}

double ClientFarm::tenant_throughput(std::size_t t) const {
  return static_cast<double>(tenant_rts_[t].count()) / config_.runtime_s;
}

double ClientFarm::tenant_goodput(std::size_t t, double threshold_s) const {
  return static_cast<double>(tenant_rts_[t].count_at_or_below(threshold_s)) /
         config_.runtime_s;
}

}  // namespace softres::workload

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_time.h"
#include "soft/pool_set.h"

namespace softres::core {

/// Advice distilled from the Diagnoser's SuggestedAction for one tick.
/// core cannot depend on obs (same layering rule as DiagnosisHint in
/// bottleneck.h), so the exp layer converts the live diagnosis into this
/// vocabulary before calling Governor::tick.
struct GovernorAdvice {
  enum class Kind { kNone, kGrow, kShrink };
  Kind kind = Kind::kNone;
  /// Pool label the advice names (e.g. "tomcat0.threads"); empty = generic.
  std::string resource;
};

/// Control-law parameters. Defaults are tuned for the paper's RUBBoS-style
/// testbed at sampler cadence; see DESIGN.md §12 for the derivation of each
/// hysteresis knob.
struct GovernorConfig {
  bool enabled = false;

  // -- target computation -------------------------------------------------
  /// Demand smoothing time constant for the per-pool EWMA of demand. Demand
  /// per tick is the exact time-weighted occupancy of the window (from the
  /// pool's occupancy integral — immune to sampling-instant aliasing when
  /// holds are much shorter than the tick) plus the queue behind the pool.
  /// Larger = steadier, slower to chase a flash crowd.
  double ewma_tau_s = 3.0;
  /// Target capacity = headroom * smoothed demand.
  double headroom = 1.3;
  /// Web-worker pools buffer whole-page bursts; mirror the allocation
  /// algorithm's web_buffer_factor by giving them more slack.
  double web_headroom = 1.6;
  /// Headroom used when the diagnoser advises shrinking a pool (§III-B GC
  /// over-allocation): drain close to observed demand.
  double shrink_headroom = 1.1;

  // -- hysteresis ----------------------------------------------------------
  /// Relative deadband: skip resizes that move capacity by less than this
  /// fraction (and by less than one whole unit).
  double deadband = 0.15;
  /// Per-pool minimum time between applied resizes.
  double cooldown_s = 8.0;
  /// Bounded step, growth only: one grow lands at a capacity `to` satisfying
  /// to <= from + max(min_step, ceil(max_step_fraction * to)) — geometric
  /// escalation (doubling at the default 0.5) that the next tick can still
  /// veto, yet closes large gaps in logarithmically many ticks. Shrinks move
  /// to the target in one action: lazy drain makes them safe, and lingering
  /// over-allocation is exactly the §III-B cost the governor exists to shed.
  double max_step_fraction = 0.5;
  /// ...but a grow never moves by less than this (so small pools can move).
  std::size_t min_step = 2;

  // -- global rate limit (token bucket over applied resizes) ---------------
  /// Applied resizes spend one token each, most-starved pool first (ranked
  /// by relative gap between target and capacity), so a fleet of churning
  /// pools cannot starve the one that is genuinely under-allocated.
  double tokens_per_s = 1.0;
  double token_burst = 6.0;

  // -- safety --------------------------------------------------------------
  /// Do not grow any pool while the hottest backend CPU is at or above this
  /// utilization: more software concurrency cannot create hardware capacity
  /// (paper §III-B), it only adds GC/dispatch overhead. Explicit kGrow
  /// advice for a specific pool bypasses the guard (and the cooldown, step
  /// bound and token bucket): the diagnoser has already watched a full
  /// evidence window and concluded the bottleneck is the pool, not the CPU
  /// — far stronger evidence than one smoothed tick. The default
  /// matches the diagnoser's under-allocation criterion (hardware counts as
  /// "idle below a saturated pool" up to 95%), so the two controllers never
  /// fight over the 92–95% band.
  double cpu_guard_pct = 95.0;
  /// Global clamp applied after pool-local floor/ceiling.
  std::size_t min_pool = 2;
  std::size_t max_pool = 4096;
};

/// One applied resize, for reports, tests and the flight recorder.
struct GovernorAction {
  sim::SimTime at = 0.0;
  std::string pool;
  std::size_t from = 0;
  std::size_t to = 0;
};

/// Closed-loop soft-resource controller (the ROADMAP's "online reactive
/// governor"). Runs at sampler cadence inside a trial, smooths per-pool
/// demand, and resizes pool capacities live through a ResizablePoolSet —
/// with a deadband, per-pool cooldowns, bounded steps and a global token
/// bucket so it reacts to load shifts without thrashing the very pools it
/// is trying to stabilize. Pure function of simulated time and pool state:
/// governed trials stay bit-identical across sweep workers.
class Governor {
 public:
  Governor(const GovernorConfig& cfg, soft::ResizablePoolSet& pools);

  /// One control tick. `max_backend_cpu_pct` is the utilization of the
  /// hottest non-web CPU over the last tick (the growth guard input);
  /// `advice` is the diagnoser's current suggestion, already translated.
  /// Returns the number of resizes applied this tick.
  std::size_t tick(sim::SimTime now, double max_backend_cpu_pct,
                   const GovernorAdvice& advice);

  const GovernorConfig& config() const { return cfg_; }
  const std::vector<GovernorAction>& actions() const { return actions_; }
  std::uint64_t resizes_applied() const { return resizes_applied_; }
  std::uint64_t resizes_rate_limited() const { return rate_limited_; }

  /// Largest single step the governor may take when the larger end of the
  /// move is `cap` — the "one resize step" used by the convergence
  /// acceptance test.
  std::size_t max_step_from(std::size_t cap) const;

 private:
  struct PoolState {
    double ewma = 0.0;
    bool seeded = false;
    sim::SimTime last_resize = -1e18;
    /// Occupancy-integral snapshot at the previous tick; differencing gives
    /// the window's exact time-weighted occupancy. Re-seeds on the first
    /// tick and after Pool::reset_stats (the integral drops backwards).
    double prev_integral = 0.0;
    bool integral_seeded = false;
  };

  std::size_t desired_capacity(const soft::ResizablePoolSet::Entry& e,
                               const PoolState& st, bool advised_shrink) const;

  GovernorConfig cfg_;
  soft::ResizablePoolSet& pools_;
  std::vector<PoolState> state_;
  std::vector<GovernorAction> actions_;
  sim::SimTime last_tick_ = -1.0;
  double tokens_ = 0.0;
  std::uint64_t resizes_applied_ = 0;
  std::uint64_t rate_limited_ = 0;
};

}  // namespace softres::core

#include "core/governor.h"

#include <algorithm>
#include <cmath>

namespace softres::core {

namespace {

std::size_t clamp_size(std::size_t v, std::size_t lo, std::size_t hi) {
  return std::max(lo, std::min(v, hi));
}

}  // namespace

Governor::Governor(const GovernorConfig& cfg, soft::ResizablePoolSet& pools)
    : cfg_(cfg), pools_(pools) {
  state_.resize(pools_.size());
  tokens_ = cfg_.token_burst;
}

std::size_t Governor::max_step_from(std::size_t cap) const {
  const auto frac = static_cast<std::size_t>(
      std::ceil(cfg_.max_step_fraction * static_cast<double>(cap)));
  return std::max(cfg_.min_step, frac);
}

std::size_t Governor::desired_capacity(const soft::ResizablePoolSet::Entry& e,
                                       const PoolState& st,
                                       bool advised_shrink) const {
  double headroom = e.role == soft::PoolRole::kWebWorkers ? cfg_.web_headroom
                                                          : cfg_.headroom;
  if (advised_shrink) headroom = cfg_.shrink_headroom;
  const double target = std::ceil(headroom * st.ewma);
  std::size_t lo = std::max(cfg_.min_pool, e.floor);
  std::size_t hi = e.ceiling ? std::min(cfg_.max_pool, e.ceiling)
                             : cfg_.max_pool;
  if (hi < lo) hi = lo;
  const auto want =
      target <= 0.0 ? std::size_t{0} : static_cast<std::size_t>(target);
  return clamp_size(want, lo, hi);
}

std::size_t Governor::tick(sim::SimTime now, double max_backend_cpu_pct,
                           const GovernorAdvice& advice) {
  const std::vector<soft::ResizablePoolSet::Entry>& entries = pools_.entries();
  if (state_.size() != entries.size()) state_.resize(entries.size());

  const double dt = last_tick_ >= 0.0 ? now - last_tick_ : 0.0;
  last_tick_ = now;
  if (dt > 0.0) {
    tokens_ = std::min(cfg_.token_burst, tokens_ + cfg_.tokens_per_s * dt);
  }
  const double alpha = dt > 0.0 ? 1.0 - std::exp(-dt / cfg_.ewma_tau_s) : 1.0;

  // Pass 1 — update every pool's demand estimate and collect the moves that
  // survive the hysteresis gates. Applying comes second, in urgency order,
  // so the token bucket throttles the least-starved pools first.
  struct Move {
    std::size_t idx;
    std::size_t desired;
    double rel_gap;  // |desired - cap| / cap: how starved/bloated the pool is
    bool advised;
  };
  std::vector<Move> moves;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const soft::ResizablePoolSet::Entry& e = entries[i];
    PoolState& st = state_[i];

    // Demand = exact time-weighted occupancy of the last window (snapshot
    // difference of the pool's occupancy integral — an instantaneous in_use
    // read at tick cadence aliases to near-zero when holds last milliseconds)
    // plus the queue behind the pool. A draining pool's over-commit counts
    // as demand too: it is real work in flight.
    const double integral = e.pool->occupancy_integral(now);
    const bool window_ok =
        st.integral_seeded && dt > 0.0 && integral >= st.prev_integral;
    double occupancy = static_cast<double>(e.pool->in_use());
    if (window_ok) {
      occupancy = (integral - st.prev_integral) / dt;
    }  // first sight, zero dt, or stats reset: fall back to the instant read
    st.prev_integral = integral;
    st.integral_seeded = true;
    const double demand = occupancy + static_cast<double>(e.pool->waiting());
    if (!st.seeded) {
      st.ewma = demand;
      st.seeded = true;
    } else {
      st.ewma += alpha * (demand - st.ewma);
    }

    const bool named = !advice.resource.empty() &&
                       advice.resource == e.pool->name();
    const bool advised_grow =
        named && advice.kind == GovernorAdvice::Kind::kGrow;
    const bool advised_shrink =
        named && advice.kind == GovernorAdvice::Kind::kShrink;

    const std::size_t cap = e.pool->capacity();
    std::size_t desired = desired_capacity(e, st, advised_shrink);
    if (desired == cap) continue;
    const bool advised = (advised_grow && desired > cap) ||
                         (advised_shrink && desired < cap);

    // Deadband: ignore moves smaller than the noise floor.
    const double delta = static_cast<double>(desired) -
                         static_cast<double>(cap);
    if (std::abs(delta) < std::max(1.0, cfg_.deadband *
                                            static_cast<double>(cap))) {
      continue;
    }
    // The remaining gates bow to explicit diagnoser advice: a confirmed
    // pathology (a full evidence window) outranks one smoothed tick.
    if (!advised) {
      // Per-pool cooldown.
      if (now - st.last_resize < cfg_.cooldown_s) continue;
      // CPU guard: growth cannot help a saturated backend CPU (§III-B).
      if (desired > cap && max_backend_cpu_pct >= cfg_.cpu_guard_pct) {
        continue;
      }
      // Bounded step on growth only: adding capacity is what risks a GC
      // regression (§III-B), so it escalates geometrically — each landing
      // capacity `to` obeys to <= cap + max_step_from(to), so the next tick
      // can still veto the trajectory. Shrinking is safe under lazy drain
      // (in-flight holders finish; the pool retires units on release), so
      // it moves to the target in one action and sheds §III-B cost now.
      if (desired > cap) {
        const double f = std::min(cfg_.max_step_fraction, 0.9);
        const auto geometric = static_cast<std::size_t>(
            std::floor(static_cast<double>(cap) / (1.0 - f)));
        desired = std::min(desired, std::max(cap + cfg_.min_step, geometric));
      }
      if (desired == cap) continue;
    }

    const double rel_gap =
        std::abs(delta) / std::max(1.0, static_cast<double>(cap));
    moves.push_back(Move{i, desired, rel_gap, advised});
  }

  // Pass 2 — most-urgent first. Advised moves outrank everything and are
  // exempt from the token bucket; ties break on registration order, keeping
  // governed trials bit-identical across sweep workers.
  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& a, const Move& b) {
                     if (a.advised != b.advised) return a.advised;
                     return a.rel_gap > b.rel_gap;
                   });

  std::size_t applied = 0;
  for (const Move& m : moves) {
    if (!m.advised) {
      if (tokens_ < 1.0) {
        ++rate_limited_;
        continue;
      }
      tokens_ -= 1.0;
    }
    const soft::ResizablePoolSet::Entry& e = entries[m.idx];
    actions_.push_back(
        GovernorAction{now, e.pool->name(), e.pool->capacity(), m.desired});
    e.pool->set_capacity(m.desired);
    state_[m.idx].last_resize = now;
    ++resizes_applied_;
    ++applied;
  }

  if (applied > 0) pools_.run_hooks();
  return applied;
}

}  // namespace softres::core

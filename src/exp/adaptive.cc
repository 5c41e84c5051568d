#include "exp/adaptive.h"

#include <algorithm>
#include <cmath>

namespace softres::exp {

AdaptiveTuner::AdaptiveTuner(Testbed& bed, AdaptiveConfig config)
    : bed_(bed), config_(config) {
  // The testbed's uniform pool registry replaces the old per-tier accessor
  // walk; role decides headroom (web workers stall on FIN waits, not CPU).
  for (const auto& e : bed_.pool_set().entries()) {
    const double headroom = e.role == soft::PoolRole::kWebWorkers
                                ? config_.web_margin
                                : config_.margin;
    tracked_.push_back(Tracked{e.pool, headroom, {}});
  }
  for (const auto& node : bed_.nodes()) {
    if (node->name().rfind("apache", 0) == 0) continue;  // web stalls != CPU
    node_busy_.push_back(NodeBusy{node.get(), 0.0});
  }
}

void AdaptiveTuner::start() {
  obs::Registry& registry = bed_.registry();
  resizes_ = registry.counter("tuner_resizes_total", {},
                              "Pool capacity changes applied by the tuner");
  for (auto& t : tracked_) {
    Tracked* tp = &t;
    registry.gauge_fn(
        "tuner_target",
        [tp](sim::SimTime) { return tp->last_target; },
        {{"pool", t.pool->name()}},
        "Most recent capacity target computed for this pool");
  }
  bed_.simulator().schedule(config_.sample_interval_s, [this] { sample(); });
  bed_.simulator().schedule(config_.control_interval_s, [this] { control(); });
}

bool AdaptiveTuner::backend_saturated_since_last_sample() {
  const sim::SimTime now = bed_.simulator().now();
  const double dt = now - prev_sample_time_;
  prev_sample_time_ = now;
  bool saturated = false;
  for (auto& nb : node_busy_) {
    const double busy = nb.node->cpu().busy_core_seconds();
    if (dt > 0.0) {
      const double util = (busy - nb.prev_busy) /
                          (static_cast<double>(nb.node->cpu().cores()) * dt);
      if (util >= 0.95) saturated = true;
    }
    nb.prev_busy = busy;
  }
  return saturated;
}

void AdaptiveTuner::sample() {
  for (auto& t : tracked_) {
    t.demand.add(static_cast<double>(t.pool->in_use() + t.pool->waiting()));
  }
  ++samples_in_interval_;
  if (backend_saturated_since_last_sample()) ++saturated_samples_;
  bed_.simulator().schedule(config_.sample_interval_s, [this] { sample(); });
}

void AdaptiveTuner::control() {
  const bool allow_growth =
      samples_in_interval_ == 0 ||
      static_cast<double>(saturated_samples_) <
          config_.saturation_guard_fraction *
              static_cast<double>(samples_in_interval_);
  // Consult the diagnoser's hint once per interval: its verdict rests on the
  // whole timeline, not just this interval's samples.
  obs::SuggestedAction hint;
  std::vector<std::string> implicated;
  if (hint_source_ != nullptr) {
    const obs::Diagnosis diag = hint_source_->diagnosis();
    hint = diag.suggested_action;
    implicated = diag.implicated_resources;
  }
  for (auto& t : tracked_) {
    bool grow = allow_growth;
    double headroom = t.headroom;
    const bool named =
        std::find(implicated.begin(), implicated.end(), t.pool->name()) !=
            implicated.end() ||
        hint.resource == t.pool->name();
    if (named && hint.kind == obs::SuggestedAction::Kind::kGrowPool) {
      // The diagnoser established the hardware idles below this pool
      // (Section III-A), so the saturation guard does not apply to it.
      if (!grow) ++hints_applied_;
      grow = true;
    } else if (named && hint.kind == obs::SuggestedAction::Kind::kShrinkPool) {
      // Over-allocation verdict: stop paying the idle-unit JVM tax.
      ++hints_applied_;
      headroom = 1.0;
    }
    resize(t, grow, headroom);
    t.demand.reset();
  }
  samples_in_interval_ = 0;
  saturated_samples_ = 0;
  sync_jvm_threads();
  bed_.simulator().schedule(config_.control_interval_s, [this] { control(); });
}

void AdaptiveTuner::resize(Tracked& tracked, bool allow_growth,
                           double headroom_override) {
  if (tracked.demand.count() == 0) return;
  const double target_raw = headroom_override * tracked.demand.mean();
  auto target = std::clamp(
      static_cast<std::size_t>(std::ceil(target_raw)), config_.min_pool,
      config_.max_pool);
  tracked.last_target = static_cast<double>(target);
  const auto current = tracked.pool->capacity();
  if (!allow_growth && target > current) return;
  const double change =
      std::abs(static_cast<double>(target) - static_cast<double>(current)) /
      static_cast<double>(std::max<std::size_t>(current, 1));
  if (change < config_.deadband) return;
  actions_.push_back(Action{bed_.simulator().now(), tracked.pool->name(),
                            current, target});
  resizes_.inc();
  tracked.pool->set_capacity(target);
}

void AdaptiveTuner::sync_jvm_threads() {
  // Idle soft resources cost heap and GC work whether used or not; the GC
  // model must see the adapted allocation, not the initial one. The tiers
  // registered the actual sync logic (JVM live threads, C-JDBC upstream
  // connection counts) as post-resize hooks alongside their pools.
  bed_.pool_set().run_hooks();
}

}  // namespace softres::exp

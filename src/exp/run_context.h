#pragma once

#include <cstddef>
#include <cstdint>

#include "core/governor.h"
#include "exp/config.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "soft/partition.h"
#include "tier/request.h"

namespace softres::exp {

/// Everything one trial owns: the discrete-event engine, the root RNG stream,
/// the metrics registry and the trace collector. One RunContext per trial is
/// what makes trials embarrassingly parallel — no ambient or shared mutable
/// state survives between, or is visible across, trials.
///
/// The trial seed is derived by hashing (base_seed, topology, soft config,
/// users) with sim::Rng::hash_mix, *never* from run order, so a trial draws
/// the same random stream whether it runs first, last, alone, or on any of N
/// worker threads. Serial and parallel sweeps are therefore bit-identical.
class RunContext {
 public:
  /// Derives the trial seed from the trial's identity. `cfg.hw` and
  /// `cfg.soft` must already hold the trial's values. `governor` configures
  /// the optional closed-loop controller the testbed builds for this trial;
  /// it is deliberately NOT part of the seed — a governed trial replays the
  /// ungoverned trial's random streams, so goodput differences are pure
  /// control-policy effects. `partition` (the pool-sharing policy of a
  /// multi-tenant trial) stays out of the seed for the same reason: the
  /// tenant_sweep strategy comparison must replay identical arrivals.
  RunContext(std::uint64_t base_seed, const TestbedConfig& cfg,
             std::size_t users, core::GovernorConfig governor = {},
             soft::SharePolicy partition = {});

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Order-independent seed: a hash_mix chain over the base seed, the
  /// #W/#A/#C/#D topology, the #Wt-#At-#Ac soft allocation and the user
  /// count. Changing any one component yields an unrelated stream.
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   const HardwareConfig& hw,
                                   const SoftConfig& soft, std::size_t users);

  std::uint64_t base_seed() const { return base_seed_; }
  std::uint64_t trial_seed() const { return trial_seed_; }
  std::size_t users() const { return users_; }

  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

  /// Root RNG of the trial; subsystems derive independent streams via
  /// split(). Seeded from trial_seed().
  sim::Rng& rng() { return rng_; }

  /// Governor settings for this trial ({.enabled = false} by default).
  const core::GovernorConfig& governor_config() const { return governor_; }

  /// Pool-sharing policy for this trial (strategy kNone by default; the
  /// testbed only builds arbiters when it is enabled AND the client config
  /// names tenants).
  const soft::SharePolicy& partition_policy() const { return partition_; }

  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

  /// Zero every metric value, histogram sum/count and bucket in the registry
  /// while keeping registrations and pull sources. Testbed
  /// wiring calls this at build time: on a fresh context it is a no-op, but
  /// re-wiring a second testbed onto a reused context must not inherit the
  /// previous trial's histogram accumulations.
  void reset_metrics() { registry_.reset_values(); }

  obs::TraceCollector& traces() { return traces_; }
  const obs::TraceCollector& traces() const { return traces_; }

  /// Per-trial Request pool; the client farm allocates every request from
  /// here. Owned by the trial context for the same reason as the simulator:
  /// no allocator state shared across trials.
  tier::RequestArena& requests() { return arena_; }

 private:
  std::uint64_t base_seed_ = 0;
  std::uint64_t trial_seed_ = 0;
  std::size_t users_ = 0;
  core::GovernorConfig governor_;
  soft::SharePolicy partition_;
  // Declared before sim_ (so destroyed after it): pending events hold
  // RequestPtr captures whose destructors hand requests back to the arena.
  tier::RequestArena arena_;
  sim::Simulator sim_;
  sim::Rng rng_;
  obs::Registry registry_;
  obs::TraceCollector traces_;
};

}  // namespace softres::exp

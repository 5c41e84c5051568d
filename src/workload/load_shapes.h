#pragma once

#include <cstddef>
#include <vector>

#include "sim/sim_time.h"
#include "workload/client_farm.h"

namespace softres::workload {

/// Canonical time-varying load shapes for governor scenarios. Each
/// returns a LoadPhase schedule for ClientConfig::load_schedule. All are
/// pure functions of their arguments — no randomness, so scenario identity
/// stays deterministic.

/// Flash crowd: `baseline` users, spiking to `peak` at `crowd_start` for
/// `crowd_duration_s`, then back to baseline (paper §I: internet-facing
/// peak load is several times the steady state).
std::vector<LoadPhase> flash_crowd_schedule(std::size_t baseline,
                                            std::size_t peak,
                                            sim::SimTime crowd_start,
                                            double crowd_duration_s);

/// Diurnal wave: a raised-cosine staircase between `low` and `high` users
/// with the given period, sampled `steps_per_period` times per period for
/// `total_s` seconds. Starts at the trough (t = 0 is "night").
std::vector<LoadPhase> diurnal_schedule(std::size_t low, std::size_t high,
                                        double period_s, double total_s,
                                        std::size_t steps_per_period = 12);

/// Tier slowdown/recovery: backend demands inflate by `slow_scale` at
/// `slow_start` and return to 1.0 at `recover_at` (ClientConfig::
/// demand_schedule). Models a degraded replica or cold cache downstream.
std::vector<DemandPhase> tier_slowdown_schedule(sim::SimTime slow_start,
                                                double slow_scale,
                                                sim::SimTime recover_at);

}  // namespace softres::workload

#pragma once

#include <cstddef>
#include <span>

#include "sim/stats.h"

namespace softres::soft {

/// Build the probability-density view the paper plots (Fig 4 b/c/e/f): a
/// histogram over utilization [0,100]% of per-second pool occupancy samples
/// (one recorded pool_util_pct window). The density reveals soft-resource
/// saturation that hardware monitors cannot see.
sim::Histogram utilization_density(std::span<const double> samples,
                                   std::size_t bins = 20);

/// A soft resource counts as saturated over a window when its occupancy sat
/// at >= `threshold` percent for at least `fraction` of the samples. This is
/// the detection rule the allocation algorithm's RunExperiment applies to
/// soft resources, mirroring the hardware CPU rule.
bool is_saturated(std::span<const double> samples, double threshold_pct = 98.0,
                  double fraction = 0.6);

}  // namespace softres::soft

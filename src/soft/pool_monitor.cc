#include "soft/pool_monitor.h"

#include <algorithm>
#include <cmath>

namespace softres::soft {

sim::Histogram utilization_density(std::span<const double> samples,
                                   std::size_t bins) {
  sim::Histogram h(0.0, 100.0, bins);
  // Exactly-100% samples belong in the top bin, not the overflow counter.
  const double top = std::nextafter(100.0, 0.0);
  for (double v : samples) h.add(std::min(v, top));
  return h;
}

bool is_saturated(std::span<const double> samples, double threshold_pct,
                  double fraction) {
  if (samples.empty()) return false;
  const auto above = std::count_if(samples.begin(), samples.end(),
                                   [&](double v) { return v >= threshold_pct; });
  return static_cast<double>(above) >=
         fraction * static_cast<double>(samples.size());
}

}  // namespace softres::soft

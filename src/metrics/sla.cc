#include "metrics/sla.h"

namespace softres::metrics {

SlaSplit SlaModel::split(const sim::SampleSet& response_times,
                         double window_s) const {
  SlaSplit s;
  if (window_s <= 0.0) return s;
  const auto good = response_times.count_at_or_below(threshold_s_);
  const auto total = response_times.count();
  s.goodput = static_cast<double>(good) / window_s;
  s.badput = static_cast<double>(total - good) / window_s;
  return s;
}

std::vector<CohortMiss> slo_miss_by_cohort(
    const std::vector<std::pair<std::string, sim::SampleSet>>& cohorts,
    double threshold_s) {
  std::vector<CohortMiss> out;
  out.reserve(cohorts.size());
  std::size_t total_misses = 0;
  for (const auto& [label, samples] : cohorts) {
    CohortMiss m;
    m.label = label;
    m.requests = samples.count();
    m.misses = samples.count() - samples.count_at_or_below(threshold_s);
    total_misses += m.misses;
    out.push_back(std::move(m));
  }
  if (total_misses > 0) {
    for (CohortMiss& m : out) {
      m.miss_share = static_cast<double>(m.misses) /
                     static_cast<double>(total_misses);
    }
  }
  return out;
}

sim::BucketedHistogram make_rt_buckets() {
  return sim::BucketedHistogram({0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0});
}

double jain_fairness(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace softres::metrics

#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.h"

namespace softres::metrics {

/// The paper's simplified SLA model: one response-time threshold splits
/// throughput into goodput (within the bound) and badput (violations).
/// Goodput + badput equals the classic throughput.
struct SlaSplit {
  double goodput = 0.0;  // requests/s within the threshold
  double badput = 0.0;   // requests/s beyond the threshold
  double throughput() const { return goodput + badput; }
  /// SLO satisfaction ratio in [0,1]; 1.0 when there was no traffic.
  double satisfaction() const {
    const double t = throughput();
    return t > 0.0 ? goodput / t : 1.0;
  }
};

class SlaModel {
 public:
  explicit SlaModel(double threshold_s) : threshold_s_(threshold_s) {}

  double threshold() const { return threshold_s_; }

  /// Split a window's response-time samples into goodput/badput rates.
  SlaSplit split(const sim::SampleSet& response_times,
                 double window_s) const;

 private:
  double threshold_s_;
};

/// Revenue model attached to an SLA: earnings for compliant requests minus
/// penalties for violations (the provider-revenue analysis of Section II-B).
struct RevenueModel {
  double earn_per_good = 1.0;
  double penalty_per_bad = 2.0;

  double revenue(const SlaSplit& split, double window_s) const {
    return (split.goodput * earn_per_good - split.badput * penalty_per_bad) *
           window_s;
  }
};

/// One labelled cohort's share of the SLO damage: how many of its samples
/// exceeded the threshold and what fraction of *all* misses it contributes.
struct CohortMiss {
  std::string label;
  std::size_t requests = 0;
  std::size_t misses = 0;    // samples beyond the threshold
  double miss_share = 0.0;   // misses / total misses across cohorts (0 if none)
};

/// Per-cohort SLO-miss attribution over labelled response-time sample sets,
/// in input order. Label-generic on purpose: metrics sits below obs in the
/// layer DAG, so the obs tail attributor feeds its percentile cohorts in and
/// the answer stays reusable for any other partition (tenants, interactions).
std::vector<CohortMiss> slo_miss_by_cohort(
    const std::vector<std::pair<std::string, sim::SampleSet>>& cohorts,
    double threshold_s);

/// The paper's Fig 3(c) response-time buckets:
/// [0,.2], (.2,.4], ..., (1,1.5], (1.5,2], >2 seconds.
sim::BucketedHistogram make_rt_buckets();

/// Jain's fairness index over per-tenant allocations:
/// J = (sum x)^2 / (N * sum x^2), in (0, 1]; 1.0 = perfectly even, 1/N =
/// one tenant holds everything. Returns 1.0 for empty or all-zero input
/// (nothing allocated is trivially fair).
double jain_fairness(const std::vector<double>& xs);

}  // namespace softres::metrics

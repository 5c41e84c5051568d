#pragma once

#include <string>
#include <vector>

#include "sim/distributions.h"
#include "sim/rng.h"
#include "tier/request.h"

namespace softres::workload {

/// One of RUBBoS's 24 interaction types. Weights select the interaction in
/// each mix; the multipliers scale the testbed's base demands, and
/// `num_queries` is the interaction's SQL count (the Forced-Flow-Law
/// Req_ratio is the mix-weighted mean of this column).
struct Interaction {
  std::string name;
  double browse_weight;   // weight in the browsing-only mix
  double rw_weight;       // weight in the read/write mix
  int num_queries;        // SQL queries issued by the servlet
  double tomcat_mult;     // servlet CPU multiplier
  double mysql_mult;      // per-query DB CPU multiplier
  double disk_prob;       // probability a query misses the buffer cache
  double response_kb;     // dynamic response size
};

enum class Mix { kBrowseOnly, kReadWrite };

/// Base per-tier demands; multiplied by the interaction factors. Defaults are
/// calibrated so the simulated testbed reproduces the paper's knees (see
/// DESIGN.md §5).
struct DemandProfile {
  double apache_dynamic_s = 0.00025;
  double apache_static_s = 0.00006;
  double tomcat_base_s = 0.0026;
  double cjdbc_per_query_s = 0.00037;
  double mysql_per_query_s = 0.00055;
  /// Demands get an exponential tail of this relative weight (0 = constant).
  double variability = 0.5;
  double static_response_kb = 4.0;
};

/// The RUBBoS bulletin-board workload: a fixed interaction table plus demand
/// sampling. Each page view is one dynamic request followed by
/// `statics_per_page` static requests (logo images etc.), matching the
/// benchmark's behaviour with keepalive off.
class RubbosWorkload {
 public:
  explicit RubbosWorkload(Mix mix = Mix::kBrowseOnly,
                          DemandProfile profile = DemandProfile{});

  /// Populate a fresh dynamic request with sampled demands.
  void sample_dynamic(tier::Request& req, sim::Rng& rng) const;

  /// Populate a static follow-up request.
  void sample_static(tier::Request& req, sim::Rng& rng) const;

  /// Mix-weighted mean SQL queries per dynamic request (the paper's
  /// Req_ratio between the Tomcat and C-JDBC tiers).
  double req_ratio() const;

  /// Mix-weighted mean Tomcat CPU seconds per dynamic request (for capacity
  /// back-of-envelope checks and tests).
  double mean_tomcat_demand() const;

  static constexpr int kStaticsPerPage = 2;

  const std::vector<Interaction>& interactions() const {
    return interactions_;
  }
  Mix mix() const { return mix_; }
  const DemandProfile& profile() const { return profile_; }

  /// The canonical 24-interaction RUBBoS table.
  static std::vector<Interaction> default_interactions();

 private:
  double sample_demand(double mean, sim::Rng& rng) const;

  Mix mix_;
  DemandProfile profile_;
  std::vector<Interaction> interactions_;
  sim::DiscreteChoice choice_;
};

}  // namespace softres::workload

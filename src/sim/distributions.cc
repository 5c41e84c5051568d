#include "sim/distributions.h"

#include <cassert>
#include <cmath>
#include <numeric>

#include "support/prof.h"

namespace softres::sim {
namespace {

/// Precomputed ziggurat for the unit exponential (Marsaglia & Tsang 2000),
/// 256 layers, widened from the classic 32-bit tables to the 53 uniform bits
/// a double can hold. Layer areas are all kZigguratV; kZigguratR is the
/// start of the analytic tail.
constexpr int kZigguratLayers = 256;
constexpr double kZigguratR = 7.69711747013104972;
constexpr double kZigguratV = 3.9496598225815571993e-3;
constexpr double kZigguratM = 9007199254740992.0;  // 2^53

struct ZigguratExpTable {
  std::uint64_t ke[kZigguratLayers];  // accept threshold per layer (53-bit)
  double we[kZigguratLayers];         // layer x-scale / 2^53
  double fe[kZigguratLayers];         // f(x_i) = exp(-x_i)

  ZigguratExpTable() {
    double de = kZigguratR;
    double te = kZigguratR;
    const double q = kZigguratV / std::exp(-de);
    ke[0] = static_cast<std::uint64_t>((de / q) * kZigguratM);
    ke[1] = 0;
    we[0] = q / kZigguratM;
    we[kZigguratLayers - 1] = de / kZigguratM;
    fe[0] = 1.0;
    fe[kZigguratLayers - 1] = std::exp(-de);
    for (int i = kZigguratLayers - 2; i >= 1; --i) {
      de = -std::log(kZigguratV / de + std::exp(-de));
      ke[i + 1] = static_cast<std::uint64_t>((de / te) * kZigguratM);
      te = de;
      fe[i] = std::exp(-de);
      we[i] = de / kZigguratM;
    }
  }
};

const ZigguratExpTable kExpTable;

/// Unit exponential draw: the common case (~98.9 % of draws) is a single
/// next_u64. The low 8 bits pick the layer, the high 53 bits are the uniform
/// position inside it — disjoint bit ranges, so index and position are
/// independent.
double ziggurat_exp(Rng& rng) {
  for (;;) {
    const std::uint64_t u = rng.next_u64();
    const std::uint64_t jz = u >> 11;          // 53-bit uniform
    const std::size_t iz = u & 0xFF;           // layer index
    if (jz < kExpTable.ke[iz]) {
      return static_cast<double>(jz) * kExpTable.we[iz];
    }
    if (iz == 0) {
      // Tail beyond R: memoryless, so R plus a fresh unit exponential.
      double v;
      do {
        v = rng.next_double();
      } while (v <= 0.0);
      return kZigguratR - std::log(v);
    }
    const double x = static_cast<double>(jz) * kExpTable.we[iz];
    if (kExpTable.fe[iz] +
            rng.next_double() * (kExpTable.fe[iz - 1] - kExpTable.fe[iz]) <
        std::exp(-x)) {
      return x;
    }
  }
}

}  // namespace

double fast_exponential(Rng& rng, double mean) {
  SOFTRES_PROF_COUNT(kDistSample);
  if (mean <= 0.0) return 0.0;
  return mean * ziggurat_exp(rng);
}

DiscreteChoice::DiscreteChoice(std::vector<double> weights) {
  assert(!weights.empty());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0.0);
  probability_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    assert(weights[i] >= 0.0);
    probability_[i] = weights[i] / total;
  }
  build_alias();
}

void DiscreteChoice::build_alias() {
  // Walker/Vose alias construction: split the masses into "small" (< 1/n)
  // and "large" columns, then pair each small column with a large donor.
  const std::size_t n = probability_.size();
  prob_.assign(n, 1.0);
  alias_.resize(n);
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    alias_[i] = static_cast<std::uint32_t>(i);
    scaled[i] = probability_[i] * static_cast<double>(n);
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<std::uint32_t>(i));
    } else {
      large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Whatever remains (round-off stragglers) keeps probability 1.0: it always
  // accepts its own column, which is exactly right at the boundary.
}

std::size_t DiscreteChoice::sample(Rng& rng) const {
  const double u = rng.next_double() * static_cast<double>(prob_.size());
  std::size_t i = static_cast<std::size_t>(u);
  if (i >= prob_.size()) i = prob_.size() - 1;  // u == n after round-up
  const double frac = u - static_cast<double>(i);
  return frac < prob_[i] ? i : alias_[i];
}

double DiscreteChoice::probability(std::size_t i) const {
  assert(i < probability_.size());
  return probability_[i];
}

}  // namespace softres::sim

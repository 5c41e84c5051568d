#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace softres::sim {

/// O(1) exponential variate with the given mean via a precomputed 256-layer
/// ziggurat table (Marsaglia & Tsang). Exact — the accept/reject wedge and
/// tail paths reproduce the true density — but the common case is one
/// next_u64(), a table compare and a multiply, where Rng::exponential pays a
/// next_double() plus std::log on every draw. This is the hot-path sampler:
/// think times in the client farm and the per-tier demand tails both sit on
/// it, at several draws per page. Deterministic given the Rng state (the
/// draw *count* per call varies on the rare reject path, which is fine: the
/// determinism contract fixes the stream per seed, not the draws per call).
/// mean <= 0 returns 0, matching Rng::exponential.
double fast_exponential(Rng& rng, double mean);

/// Weighted discrete choice over indices 0..n-1. Sampling uses a
/// Walker/Vose alias table built at construction: one uniform draw, one
/// table row, no search — the interaction choice runs once per page, so this
/// keeps the workload generator off the binary-search path entirely.
class DiscreteChoice {
 public:
  explicit DiscreteChoice(std::vector<double> weights);
  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return prob_.size(); }
  double probability(std::size_t i) const;

 private:
  void build_alias();

  std::vector<double> probability_;     // normalised weights (exact masses)
  std::vector<double> prob_;            // alias acceptance thresholds
  std::vector<std::uint32_t> alias_;    // alias targets
};

}  // namespace softres::sim

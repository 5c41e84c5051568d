#include "sim/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

namespace softres::sim {
namespace {

struct DistributionCase {
  const char* name;
  double (*draw)(Rng&);
  double mean;  // analytical
  double tolerance;
};

// gtest writes the printed parameter into every discovered ctest name. The
// default printer would write the string and function addresses, which move
// with each build and run, so print the case name only.
void PrintTo(const DistributionCase& c, std::ostream* os) { *os << c.name; }

// Property: each sampler the simulator draws from converges to its
// analytical mean and stays non-negative. The two fast_exponential cases
// cover the ziggurat behind think times and demand tails; the lognormal ones
// are hw::Disk's service draw, where sigma 0 must give exactly the median.
class DistributionMeanTest
    : public ::testing::TestWithParam<DistributionCase> {};

TEST_P(DistributionMeanTest, SampleMeanMatchesAnalyticalMean) {
  const auto& [name, draw, mean, tolerance] = GetParam();
  Rng rng(4242);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = draw(rng);
    ASSERT_GE(v, 0.0) << name;
    sum += v;
  }
  const double sample_mean = sum / n;
  EXPECT_NEAR(sample_mean, mean, tolerance * mean + 1e-9) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMeanTest,
    ::testing::Values(
        DistributionCase{"constant",
                         [](Rng& r) { return r.lognormal_median(0.42, 0.0); },
                         0.42, 1e-12},
        DistributionCase{"exponential",
                         [](Rng& r) { return fast_exponential(r, 3.0); }, 3.0,
                         0.02},
        DistributionCase{"uniform", [](Rng& r) { return r.uniform(1.0, 5.0); },
                         3.0, 0.02},
        // mean = median * exp(sigma^2 / 2)
        DistributionCase{"lognormal",
                         [](Rng& r) { return r.lognormal_median(0.1, 0.5); },
                         0.1 * std::exp(0.125), 0.03},
        DistributionCase{"shifted_exp",
                         [](Rng& r) { return 1.0 + fast_exponential(r, 2.0); },
                         3.0, 0.02}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(DiscreteChoiceTest, ProbabilitiesNormalised) {
  DiscreteChoice c({2.0, 6.0, 2.0});
  EXPECT_NEAR(c.probability(0), 0.2, 1e-12);
  EXPECT_NEAR(c.probability(1), 0.6, 1e-12);
  EXPECT_NEAR(c.probability(2), 0.2, 1e-12);
}

TEST(DiscreteChoiceTest, EmpiricalFrequenciesMatchWeights) {
  DiscreteChoice c({1.0, 3.0});
  Rng rng(77);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (c.sample(rng) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(DiscreteChoiceTest, ZeroWeightNeverChosen) {
  DiscreteChoice c({1.0, 0.0, 1.0});
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_NE(c.sample(rng), 1u);
  }
}

TEST(DiscreteChoiceTest, SingleEntry) {
  DiscreteChoice c({5.0});
  Rng rng(3);
  EXPECT_EQ(c.sample(rng), 0u);
  EXPECT_NEAR(c.probability(0), 1.0, 1e-12);
}

}  // namespace
}  // namespace softres::sim

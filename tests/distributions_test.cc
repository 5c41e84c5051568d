#include "sim/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>

namespace softres::sim {
namespace {

struct DistributionCase {
  const char* name;
  DistributionPtr dist;
  double tolerance;
};

// gtest writes the printed parameter into every discovered ctest name. The
// default printer would write the string and heap addresses, which move with
// each build and run, so print the case name only.
void PrintTo(const DistributionCase& c, std::ostream* os) { *os << c.name; }

// Property: every distribution's sample mean converges to its analytical
// mean() and samples stay non-negative.
class DistributionMeanTest
    : public ::testing::TestWithParam<DistributionCase> {};

TEST_P(DistributionMeanTest, SampleMeanMatchesAnalyticalMean) {
  const auto& [name, dist, tolerance] = GetParam();
  Rng rng(4242);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = dist->sample(rng);
    ASSERT_GE(v, 0.0) << name;
    sum += v;
  }
  const double sample_mean = sum / n;
  EXPECT_NEAR(sample_mean, dist->mean(),
              tolerance * dist->mean() + 1e-9) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMeanTest,
    ::testing::Values(
        DistributionCase{"constant", constant(0.42), 1e-12},
        DistributionCase{"exponential", exponential(3.0), 0.02},
        DistributionCase{"uniform", uniform(1.0, 5.0), 0.02},
        DistributionCase{"lognormal", lognormal(0.1, 0.5), 0.03},
        DistributionCase{"shifted_exp", shifted_exp(1.0, 2.0), 0.02},
        DistributionCase{"bounded_pareto", bounded_pareto(0.01, 10.0, 1.5),
                         0.05}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(DeterministicTest, AlwaysReturnsValue) {
  Deterministic d(1.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 1.5);
}

TEST(BoundedParetoTest, SamplesWithinBounds) {
  BoundedPareto p(0.5, 4.0, 1.2);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const double v = p.sample(rng);
    ASSERT_GE(v, 0.5);
    ASSERT_LE(v, 4.0 + 1e-9);
  }
}

TEST(LogNormalTest, MeanFormula) {
  // mean = median * exp(sigma^2/2)
  LogNormal d(2.0, 0.8);
  EXPECT_NEAR(d.mean(), 2.0 * std::exp(0.32), 1e-12);
}

TEST(EmpiricalTest, SamplesComeFromGivenValues) {
  Empirical e({1.0, 2.0, 4.0});
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = e.sample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 4.0);
  }
  EXPECT_NEAR(e.mean(), 7.0 / 3.0, 1e-12);
}

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

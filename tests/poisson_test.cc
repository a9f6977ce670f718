#include "stats/poisson.h"

#include <cmath>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "util/rng.h"

namespace crowdprice::stats {
namespace {

TEST(PoissonPmfTest, ZeroLambdaIsPointMassAtZero) {
  EXPECT_DOUBLE_EQ(PoissonPmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PoissonPmf(1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(PoissonPmf(5, 0.0), 0.0);
}

TEST(PoissonPmfTest, NegativeKIsZero) {
  EXPECT_DOUBLE_EQ(PoissonPmf(-1, 3.0), 0.0);
  EXPECT_TRUE(std::isinf(PoissonLogPmf(-1, 3.0)));
}

TEST(PoissonPmfTest, MatchesClosedForm) {
  // pmf(k) = e^-lambda lambda^k / k!
  EXPECT_NEAR(PoissonPmf(0, 2.0), std::exp(-2.0), 1e-15);
  EXPECT_NEAR(PoissonPmf(1, 2.0), 2.0 * std::exp(-2.0), 1e-15);
  EXPECT_NEAR(PoissonPmf(2, 2.0), 2.0 * std::exp(-2.0), 1e-15);
  EXPECT_NEAR(PoissonPmf(3, 2.0), 4.0 / 3.0 * std::exp(-2.0), 1e-15);
}

TEST(PoissonPmfTest, LargeArgumentsStayFinite) {
  const double p = PoissonPmf(100000, 100000.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  // Stirling: mode pmf ~ 1/sqrt(2 pi lambda).
  EXPECT_NEAR(p, 1.0 / std::sqrt(2.0 * M_PI * 100000.0), 1e-6);
}

class PoissonSumToOneTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSumToOneTest, PmfSumsToOne) {
  const double lambda = GetParam();
  double sum = 0.0;
  for (int k = 0; k < 400; ++k) sum += PoissonPmf(k, lambda);
  EXPECT_NEAR(sum, 1.0, 1e-10) << "lambda = " << lambda;
}

TEST_P(PoissonSumToOneTest, CdfSfComplementarity) {
  const double lambda = GetParam();
  for (int k : {0, 1, 2, 5, 10, 50, 200}) {
    auto cdf = PoissonCdf(k, lambda);
    auto sf = PoissonSf(k + 1, lambda);
    ASSERT_TRUE(cdf.ok());
    ASSERT_TRUE(sf.ok());
    EXPECT_NEAR(cdf.value() + sf.value(), 1.0, 1e-10)
        << "lambda = " << lambda << ", k = " << k;
  }
}

TEST_P(PoissonSumToOneTest, CdfMatchesPartialSums) {
  const double lambda = GetParam();
  double partial = 0.0;
  for (int k = 0; k <= 60; ++k) {
    partial += PoissonPmf(k, lambda);
    auto cdf = PoissonCdf(k, lambda);
    ASSERT_TRUE(cdf.ok());
    ASSERT_NEAR(cdf.value(), partial, 1e-9)
        << "lambda = " << lambda << ", k = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(LambdaGrid, PoissonSumToOneTest,
                         ::testing::Values(0.01, 0.5, 1.0, 3.0, 10.0, 25.0, 80.0,
                                           150.0));

TEST(PoissonCdfTest, InvalidArguments) {
  EXPECT_TRUE(PoissonCdf(3, -1.0).status().IsInvalidArgument());
  EXPECT_TRUE(PoissonCdf(3, std::nan("")).status().IsInvalidArgument());
  EXPECT_TRUE(PoissonSf(3, -1.0).status().IsInvalidArgument());
}

TEST(PoissonCdfTest, Boundaries) {
  EXPECT_DOUBLE_EQ(PoissonCdf(-1, 4.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(PoissonSf(0, 4.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(PoissonSf(-3, 4.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(PoissonCdf(10, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(PoissonSf(1, 0.0).value(), 0.0);
}

// Paper Table 1: s0 values for epsilon = 1e-9.
TEST(TruncationPointTest, ReproducesPaperTable1) {
  EXPECT_EQ(PoissonTruncationPoint(10.0, 1e-9).value(), 35);
  EXPECT_EQ(PoissonTruncationPoint(20.0, 1e-9).value(), 53);
  EXPECT_EQ(PoissonTruncationPoint(50.0, 1e-9).value(), 99);
}

TEST(TruncationPointTest, InvalidEpsilon) {
  EXPECT_TRUE(PoissonTruncationPoint(5.0, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(PoissonTruncationPoint(5.0, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(PoissonTruncationPoint(5.0, -0.1).status().IsInvalidArgument());
}

TEST(TruncationPointTest, ZeroLambda) {
  EXPECT_EQ(PoissonTruncationPoint(0.0, 1e-9).value(), 1);
}

class TruncationPointPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TruncationPointPropertyTest, IsMinimalSatisfyingPoint) {
  const auto [lambda, epsilon] = GetParam();
  auto s0 = PoissonTruncationPoint(lambda, epsilon);
  ASSERT_TRUE(s0.ok());
  // Pr[X >= s0] <= epsilon and Pr[X >= s0 - 1] > epsilon (minimality).
  EXPECT_LE(PoissonSf(s0.value(), lambda).value(), epsilon);
  if (s0.value() > 1) {
    EXPECT_GT(PoissonSf(s0.value() - 1, lambda).value(), epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TruncationPointPropertyTest,
    ::testing::Combine(::testing::Values(0.1, 1.0, 5.0, 17.3, 64.0, 500.0),
                       ::testing::Values(1e-3, 1e-6, 1e-9, 1e-12)));

TEST(TruncatedPoissonTest, MassPlusTailIsOne) {
  for (double lambda : {0.0, 0.3, 2.0, 15.0, 90.0}) {
    auto tp = MakeTruncatedPoisson(lambda, 1e-9);
    ASSERT_TRUE(tp.ok());
    const double mass =
        std::accumulate(tp->pmf.begin(), tp->pmf.end(), 0.0);
    EXPECT_NEAR(mass + tp->tail_mass, 1.0, 1e-12) << "lambda = " << lambda;
    EXPECT_LE(tp->tail_mass, 1e-9 + 1e-12);
  }
}

TEST(TruncatedPoissonTest, EntriesMatchPmf) {
  auto tp = MakeTruncatedPoisson(7.5, 1e-9);
  ASSERT_TRUE(tp.ok());
  for (size_t k = 0; k < tp->pmf.size(); ++k) {
    EXPECT_NEAR(tp->pmf[k], PoissonPmf(static_cast<int>(k), 7.5), 1e-13);
  }
}

TEST(TruncatedPoissonTest, ZeroLambdaSingleEntry) {
  auto tp = MakeTruncatedPoisson(0.0, 1e-9);
  ASSERT_TRUE(tp.ok());
  ASSERT_EQ(tp->pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(tp->pmf[0], 1.0);
  EXPECT_DOUBLE_EQ(tp->tail_mass, 0.0);
}

TEST(QuantizedRateKeyTest, NearEqualRatesShareABucket) {
  // The regression this guards: 6100 * p computed along two code paths can
  // differ in the last ulp, and the cache used to build two full tables.
  const double rate = 6100.0 * 0.31728394612873;
  const double wobbled = rate * (1.0 + 1e-15);
  ASSERT_NE(rate, wobbled);  // genuinely distinct doubles
  EXPECT_EQ(QuantizedRateKey(rate), QuantizedRateKey(wobbled));
  EXPECT_EQ(SnapRate(rate), SnapRate(wobbled));
  // Snapping is idempotent and ulp-scale: relative error far below the
  // truncation epsilons in use.
  EXPECT_EQ(SnapRate(SnapRate(rate)), SnapRate(rate));
  EXPECT_NEAR(SnapRate(rate) / rate, 1.0, 1e-11);
  // Round constants used throughout the tests are already representable
  // with clear low mantissa bits; snapping must not move them.
  for (double exact : {0.0, 1.0, 90.0, 610.0, 6100.0, 0.5, 0.25}) {
    EXPECT_EQ(SnapRate(exact), exact) << exact;
  }
}

class PoissonSamplerTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSamplerTest, MomentsMatch) {
  const double lambda = GetParam();
  Rng rng(1234);
  RunningStats stats;
  const int n = lambda < 1.0 ? 400000 : 120000;
  for (int i = 0; i < n; ++i) {
    stats.Add(static_cast<double>(SamplePoisson(rng, lambda)));
  }
  // Mean and variance of Poisson are both lambda; allow 5-sigma slack.
  const double mean_tol = 5.0 * std::sqrt(lambda / n) + 1e-9;
  EXPECT_NEAR(stats.mean(), lambda, mean_tol) << "lambda = " << lambda;
  EXPECT_NEAR(stats.variance(), lambda, 0.05 * lambda + 0.01)
      << "lambda = " << lambda;
}

INSTANTIATE_TEST_SUITE_P(LambdaGrid, PoissonSamplerTest,
                         ::testing::Values(0.1, 0.9, 3.0, 9.9,  // inversion
                                           10.1, 30.0, 87.0, 400.0,  // PTRS
                                           2000.0));

TEST(PoissonSamplerTest, ZeroAndNegativeLambda) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SamplePoisson(rng, 0.0), 0);
    EXPECT_EQ(SamplePoisson(rng, -2.0), 0);
  }
}

TEST(PoissonSamplerTest, DistributionMatchesPmfChiSquared) {
  // Goodness-of-fit at lambda = 15 (PTRS path): compare bin frequencies to
  // the exact pmf; crude 6-sigma bound per bin.
  const double lambda = 15.0;
  Rng rng(777);
  const int n = 200000;
  std::vector<int> counts(61, 0);
  for (int i = 0; i < n; ++i) {
    const int k = SamplePoisson(rng, lambda);
    if (k <= 60) ++counts[static_cast<size_t>(k)];
  }
  for (int k = 5; k <= 30; ++k) {
    const double expect = n * PoissonPmf(k, lambda);
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(k)]), expect,
                6.0 * std::sqrt(expect))
        << "k = " << k;
  }
}

TEST(PoissonSamplerTest, DeterministicAcrossRuns) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(SamplePoisson(a, 33.3), SamplePoisson(b, 33.3));
  }
}

}  // namespace
}  // namespace crowdprice::stats

#include "stats/gamma.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace crowdprice::stats {
namespace {

TEST(LogFactorialTest, SmallValues) {
  EXPECT_DOUBLE_EQ(LogFactorial(0), 0.0);
  EXPECT_DOUBLE_EQ(LogFactorial(1), 0.0);
  EXPECT_NEAR(LogFactorial(2), std::log(2.0), 1e-14);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(LogFactorial(10), std::log(3628800.0), 1e-10);
}

TEST(LogFactorialTest, TableAndLgammaAgreeAtBoundary) {
  // The implementation switches from table to lgamma at k = 256.
  for (int k : {254, 255, 256, 257, 300}) {
    EXPECT_NEAR(LogFactorial(k), std::lgamma(static_cast<double>(k) + 1.0), 1e-9)
        << "k = " << k;
  }
}

TEST(LogFactorialTest, NegativeIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(LogFactorial(-1)));
  EXPECT_LT(LogFactorial(-1), 0.0);
}

TEST(LogGammaTest, ConcurrentCallersGetTheSerialValues) {
  // std::lgamma writes the global signgam; LogGamma must not, because
  // serving threads price Poisson tails concurrently. The TSan job runs this.
  std::vector<double> xs;
  for (int i = 1; i <= 2000; ++i) xs.push_back(0.37 * i);
  std::vector<uint64_t> serial;
  for (const double x : xs) {
    serial.push_back(std::bit_cast<uint64_t>(LogGamma(x)));
  }

  std::vector<std::vector<uint64_t>> seen(4);
  std::vector<std::thread> threads;
  for (std::vector<uint64_t>& out : seen) {
    threads.emplace_back([&xs, &out] {
      for (int round = 0; round < 25; ++round) {
        out.clear();
        for (const double x : xs) {
          out.push_back(std::bit_cast<uint64_t>(LogGamma(x)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<uint64_t>& out : seen) EXPECT_EQ(out, serial);
}

TEST(RegularizedGammaTest, InvalidArguments) {
  EXPECT_TRUE(RegularizedGammaP(0.0, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(RegularizedGammaP(-1.0, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(RegularizedGammaP(1.0, -1.0).status().IsInvalidArgument());
  EXPECT_TRUE(RegularizedGammaQ(0.0, 1.0).status().IsInvalidArgument());
}

TEST(RegularizedGammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.5, 0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.5, 0.0).value(), 1.0);
}

TEST(RegularizedGammaTest, ComplementaryEverywhere) {
  for (double a : {0.5, 1.0, 3.0, 10.0, 100.0}) {
    for (double x : {0.1, 0.9, 1.0, 2.5, 9.0, 50.0, 200.0}) {
      auto p = RegularizedGammaP(a, x);
      auto q = RegularizedGammaQ(a, x);
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(q.ok());
      EXPECT_NEAR(p.value() + q.value(), 1.0, 1e-12)
          << "a = " << a << ", x = " << x;
    }
  }
}

TEST(RegularizedGammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^-x.
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x).value(), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(RegularizedGammaTest, ErfSpecialCase) {
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(RegularizedGammaP(0.5, x).value(), std::erf(std::sqrt(x)), 1e-10);
  }
}

TEST(RegularizedGammaTest, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 30.0; x += 0.5) {
    const double p = RegularizedGammaP(5.0, x).value();
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(RegularizedGammaTest, MedianNearAMinusOneThird) {
  // For large a, the median of Gamma(a) is ~ a - 1/3, so P(a, a - 1/3) ~ 0.5.
  EXPECT_NEAR(RegularizedGammaP(100.0, 100.0 - 1.0 / 3.0).value(), 0.5, 0.01);
}

TEST(RegularizedGammaTest, ConvergesForLargeANearX) {
  // Regression: near x ~ a the series/fraction term ratios approach 1 and
  // need O(sqrt(a)) iterations; a fixed cap of 500 failed for a ~ 5000
  // (hit by Poisson tail computations on busy marketplace intervals).
  for (double a : {5230.0, 19567.0, 120000.0}) {
    auto p = RegularizedGammaP(a, a + 0.83);
    ASSERT_TRUE(p.ok()) << "a = " << a << ": " << p.status();
    // Near the mean, P is close to 1/2 for large a.
    EXPECT_NEAR(p.value(), 0.5, 0.02) << "a = " << a;
    auto q = RegularizedGammaQ(a, a - 0.83);
    ASSERT_TRUE(q.ok()) << "a = " << a << ": " << q.status();
    EXPECT_NEAR(q.value(), 0.5, 0.02) << "a = " << a;
  }
}

TEST(RegularizedGammaTest, LargeAFarTails) {
  // Deep tails at large a remain accurate (Poisson sf/cdf rely on them).
  auto q = RegularizedGammaQ(10000.0, 10000.0 + 6.0 * 100.0);  // +6 sigma
  ASSERT_TRUE(q.ok());
  EXPECT_LT(q.value(), 1e-7);
  EXPECT_GT(q.value(), 1e-12);
  auto p = RegularizedGammaP(10000.0, 10000.0 - 6.0 * 100.0);
  ASSERT_TRUE(p.ok());
  EXPECT_LT(p.value(), 1e-7);
}

}  // namespace
}  // namespace crowdprice::stats

#include "stats/gamma.h"

#include <math.h>  // lgamma_r

#include <array>
#include <cmath>
#include <limits>

#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::stats {

namespace {

constexpr double kEpsilon = 1e-15;
// Smallest representable ratio used to bootstrap the Lentz continued
// fraction evaluation.
constexpr double kTiny = 1e-300;

// Iteration budget: near x ~ a the series/fraction need O(sqrt(a)) terms
// (term ratios approach 1), so scale the cap with sqrt(a).
int MaxIterations(double a) {
  return 500 + static_cast<int>(16.0 * std::sqrt(std::max(a, 0.0)));
}

// Series expansion of P(a, x); converges for x < a + 1.
Result<double> GammaPSeries(double a, double x) {
  const int kMaxIterations = MaxIterations(a);
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) {
      const double log_prefix = a * std::log(x) - x - LogGamma(a);
      return sum * std::exp(log_prefix);
    }
  }
  return Status::NumericError(
      StringF("GammaPSeries(a=%g, x=%g) did not converge", a, x));
}

// Modified Lentz continued fraction for Q(a, x); converges for x >= a + 1.
Result<double> GammaQContinuedFraction(double a, double x) {
  const int kMaxIterations = MaxIterations(a);
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) {
      const double log_prefix = a * std::log(x) - x - LogGamma(a);
      return h * std::exp(log_prefix);
    }
  }
  return Status::NumericError(
      StringF("GammaQContinuedFraction(a=%g, x=%g) did not converge", a, x));
}

}  // namespace

double LogGamma(double x) {
  // lgamma_r, not std::lgamma: lgamma stores the sign of Gamma(x) in the
  // global signgam, a data race when serving threads price concurrently.
  int sign = 0;
  return lgamma_r(x, &sign);
}

double LogFactorial(int k) {
  static constexpr int kTableSize = 256;
  static const auto table = [] {
    std::array<double, kTableSize> t{};
    t[0] = 0.0;
    for (int i = 1; i < kTableSize; ++i) {
      t[i] = t[i - 1] + std::log(static_cast<double>(i));
    }
    return t;
  }();
  if (k < 0) return -std::numeric_limits<double>::infinity();
  if (k < kTableSize) return table[static_cast<size_t>(k)];
  return LogGamma(static_cast<double>(k) + 1.0);
}

Result<double> RegularizedGammaP(double a, double x) {
  if (!(a > 0.0) || !(x >= 0.0) || !std::isfinite(a) || !std::isfinite(x)) {
    return Status::InvalidArgument(
        StringF("RegularizedGammaP requires a > 0, x >= 0; got a=%g, x=%g",
                a, x));
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  CP_ASSIGN_OR_RETURN(double q, GammaQContinuedFraction(a, x));
  return 1.0 - q;
}

Result<double> RegularizedGammaQ(double a, double x) {
  if (!(a > 0.0) || !(x >= 0.0) || !std::isfinite(a) || !std::isfinite(x)) {
    return Status::InvalidArgument(
        StringF("RegularizedGammaQ requires a > 0, x >= 0; got a=%g, x=%g",
                a, x));
  }
  if (x == 0.0) return 1.0;
  if (x >= a + 1.0) return GammaQContinuedFraction(a, x);
  CP_ASSIGN_OR_RETURN(double p, GammaPSeries(a, x));
  return 1.0 - p;
}

}  // namespace crowdprice::stats

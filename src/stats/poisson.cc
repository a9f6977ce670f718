#include "stats/poisson.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "stats/gamma.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::stats {

namespace {

Status ValidateLambda(double lambda, const char* fn) {
  if (!(lambda >= 0.0) || !std::isfinite(lambda)) {
    return Status::InvalidArgument(
        StringF("%s requires finite lambda >= 0; got %g", fn, lambda));
  }
  return Status::OK();
}

// Sequential-search inversion; efficient for small lambda.
int SamplePoissonInversion(Rng& rng, double lambda) {
  const double u = rng.NextDouble();
  double p = std::exp(-lambda);
  double cdf = p;
  int k = 0;
  // The loop terminates with probability 1; cap defends against rounding.
  while (u > cdf && k < 1000) {
    ++k;
    p *= lambda / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

// Hormann (1993) PTRS transformed-rejection sampler; valid for lambda >= 10.
int SamplePoissonPtrs(Rng& rng, double lambda) {
  const double slam = std::sqrt(lambda);
  const double loglam = std::log(lambda);
  const double b = 0.931 + 2.53 * slam;
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  while (true) {
    const double u = rng.NextDouble() - 0.5;
    const double v = rng.NextDouble();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + lambda + 0.43);
    if (us >= 0.07 && v <= v_r) {
      return static_cast<int>(k);
    }
    if (k < 0.0 || (us < 0.013 && v > us)) {
      continue;
    }
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        -lambda + k * loglam - LogGamma(k + 1.0)) {
      return static_cast<int>(k);
    }
  }
}

}  // namespace

double PoissonPmf(int k, double lambda) {
  if (k < 0) return 0.0;
  if (lambda == 0.0) return k == 0 ? 1.0 : 0.0;
  return std::exp(PoissonLogPmf(k, lambda));
}

double PoissonLogPmf(int k, double lambda) {
  if (k < 0) return -std::numeric_limits<double>::infinity();
  if (lambda == 0.0) {
    return k == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  return -lambda + static_cast<double>(k) * std::log(lambda) - LogFactorial(k);
}

Result<double> PoissonCdf(int k, double lambda) {
  CP_RETURN_IF_ERROR(ValidateLambda(lambda, "PoissonCdf"));
  if (k < 0) return 0.0;
  if (lambda == 0.0) return 1.0;
  // Pr[X <= k] = Q(k+1, lambda).
  return RegularizedGammaQ(static_cast<double>(k) + 1.0, lambda);
}

Result<double> PoissonSf(int k, double lambda) {
  CP_RETURN_IF_ERROR(ValidateLambda(lambda, "PoissonSf"));
  if (k <= 0) return 1.0;
  if (lambda == 0.0) return 0.0;
  // Pr[X >= k] = P(k, lambda).
  return RegularizedGammaP(static_cast<double>(k), lambda);
}

Result<int> PoissonTruncationPoint(double lambda, double epsilon) {
  CP_RETURN_IF_ERROR(ValidateLambda(lambda, "PoissonTruncationPoint"));
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument(
        StringF("epsilon must lie in (0,1); got %g", epsilon));
  }
  if (lambda == 0.0) return 1;  // Pr[X >= 1] = 0 <= epsilon.
  // Exponential then binary search on the survival function, which is
  // monotone non-increasing in s.
  int hi = std::max(static_cast<int>(lambda), 1);
  while (true) {
    CP_ASSIGN_OR_RETURN(double sf, PoissonSf(hi, lambda));
    if (sf <= epsilon) break;
    hi *= 2;
    if (hi > (1 << 28)) {
      return Status::NumericError("PoissonTruncationPoint search overflow");
    }
  }
  int lo = 1;  // s = 0 never qualifies: Pr[X >= 0] = 1 > epsilon.
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    CP_ASSIGN_OR_RETURN(double sf, PoissonSf(mid, lambda));
    if (sf <= epsilon) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

Result<TruncatedPoisson> MakeTruncatedPoisson(double lambda, double epsilon) {
  CP_ASSIGN_OR_RETURN(int s0, PoissonTruncationPoint(lambda, epsilon));
  TruncatedPoisson out;
  out.pmf.resize(static_cast<size_t>(std::max(s0, 1)));
  double mass = 0.0;
  double p = std::exp(-lambda);
  if (p == 0.0) {
    // Extremely large lambda: fall back to log-space evaluation per term.
    for (int k = 0; k < s0; ++k) {
      out.pmf[static_cast<size_t>(k)] = PoissonPmf(k, lambda);
      mass += out.pmf[static_cast<size_t>(k)];
    }
  } else {
    for (int k = 0; k < s0; ++k) {
      out.pmf[static_cast<size_t>(k)] = p;
      mass += p;
      p *= lambda / static_cast<double>(k + 1);
    }
  }
  out.tail_mass = std::max(0.0, 1.0 - mass);
  return out;
}

uint64_t QuantizedRateKey(double lambda) {
  // +0 and -0 share a bucket, and rounding the low 12 mantissa bits to the
  // nearest multiple of 2^12 merges rates within ~2^-41 relative distance.
  // The carry out of the mantissa (low bits >= 0x800 with the rest set)
  // correctly bumps the exponent, staying finite for any DP-scale rate.
  uint64_t bits = std::bit_cast<uint64_t>(lambda == 0.0 ? 0.0 : lambda);
  return (bits + 0x800ULL) & ~0xFFFULL;
}

double SnapRate(double lambda) {
  return std::bit_cast<double>(QuantizedRateKey(lambda));
}

int SamplePoisson(Rng& rng, double lambda) {
  if (!(lambda > 0.0)) return 0;
  if (lambda < 10.0) return SamplePoissonInversion(rng, lambda);
  return SamplePoissonPtrs(rng, lambda);
}

}  // namespace crowdprice::stats

// Poisson distribution: pmf/cdf/survival, tail truncation (paper §3.2,
// Table 1 / Theorem 1), truncated pmf tables for the MDP inner loops, and
// exact-stream samplers.

#ifndef CROWDPRICE_STATS_POISSON_H_
#define CROWDPRICE_STATS_POISSON_H_

#include <cstdint>
#include <vector>

#include "util/result.h"
#include "util/rng.h"

namespace crowdprice::stats {

/// Pr[Pois(lambda) = k]; 0 for k < 0. lambda must be >= 0 and finite.
double PoissonPmf(int k, double lambda);

/// ln Pr[Pois(lambda) = k]; -inf for k < 0.
double PoissonLogPmf(int k, double lambda);

/// Pr[Pois(lambda) <= k]. Exact via regularized incomplete gamma.
Result<double> PoissonCdf(int k, double lambda);

/// Pr[Pois(lambda) >= k] (survival including k). Pr[.>=0] == 1.
Result<double> PoissonSf(int k, double lambda);

/// The paper's truncation point s0 (§3.2, Table 1): the smallest s such that
/// Pr[Pois(lambda) >= s] <= epsilon. All DP transition terms with s >= s0
/// may be dropped with total probability error <= epsilon (Theorem 1 then
/// bounds the induced cost error). Requires epsilon in (0, 1).
Result<int> PoissonTruncationPoint(double lambda, double epsilon);

/// A pmf table pmf[0..s0-1] plus the lumped tail mass Pr[X >= s0].
/// Invariant: sum(pmf) + tail_mass == 1 (to within rounding).
struct TruncatedPoisson {
  std::vector<double> pmf;
  double tail_mass = 0.0;
  /// Index of the first truncated term (== pmf.size()).
  int truncation_point() const { return static_cast<int>(pmf.size()); }
};

/// Builds the truncated pmf table for the given rate, dropping terms beyond
/// PoissonTruncationPoint(lambda, epsilon). The table always contains at
/// least one entry (k=0). Computed by forward recurrence
/// pmf(k+1) = pmf(k) * lambda / (k+1), which is numerically stable for the
/// rate magnitudes used here (lambda <~ 1e6).
Result<TruncatedPoisson> MakeTruncatedPoisson(double lambda, double epsilon);

/// Table-cache keys are quantized so that near-equal rates produced by
/// arrival-trace arithmetic (lambda * acceptance computed along different
/// code paths can differ in the last few ulps) do not silently duplicate
/// tables. QuantizedRateKey rounds the low 12 mantissa bits away -- a
/// relative perturbation below 1e-12, orders of magnitude under the
/// truncation epsilon -- and SnapRate is the bucket's canonical
/// representative (diagnostics/tests; the caches key on the bucket but
/// build at the exact first-seen rate, preserving bit-stable tables for
/// exact repeats). lambda must be finite and >= 0.
uint64_t QuantizedRateKey(double lambda);
double SnapRate(double lambda);

/// Samples from Pois(lambda) using sequential inversion for lambda < 10 and
/// Hormann's PTRS transformed-rejection method otherwise. Deterministic
/// given the Rng stream. lambda must be >= 0 and finite; lambda == 0 always
/// yields 0.
int SamplePoisson(Rng& rng, double lambda);

}  // namespace crowdprice::stats

#endif  // CROWDPRICE_STATS_POISSON_H_

// LayerScanKernel: the batched, runtime-dispatched inner loops of the DP
// solvers.
//
// The deadline MDP's hot path evaluates
//
//   cost(n, a) = sum_{k : k*b < n} pmf_a[k] * (c_a*k*b + Opt(n - k*b, t+1))
//              + max(0, 1 - sum pmf_a[k]) * c_a * n
//
// for every state n and action a of a layer. Instead of one virtual call
// per (n, a), a kernel evaluates a whole layer (ScanLayer), one state's
// action bracket (ScanState -- Algorithm 2's inner search), or the joint
// DP's collapsed transition rows (CollapseCorrelate / Axpy / MinCombine)
// per call, over the pmf tables of a PmfArena.
//
// Backends and dispatch. Three backends ship: "scalar" (portable; its
// per-term arithmetic is bit-identical to the historical hand-rolled
// loops, so scalar plans never drift across refactors), "avx2" (x86 FMA,
// states evaluated four per vector) and "neon" (aarch64, two per vector).
// KernelRegistry::Global() holds whatever the host supports -- probed via
// cpu feature detection once, on first use -- and resolves the empty name
// to the $CROWDPRICE_KERNEL override or the fastest backend, so tests and
// benches can force any backend per solve.
//
// Contract every backend must honor:
//  * Within one backend, ScanLayer and ScanState evaluate a given (n, a)
//    with bit-identical arithmetic. Algorithm 1 (dense scans) and
//    Algorithm 2 (bracketed scans) then produce bit-identical plans under
//    any backend, which dp_equivalence_test asserts per backend.
//  * Ties in cost go to the lowest action index, and the first action of a
//    scan always beats "no action", matching the historical solver.
//  * SIMD backends agree with "scalar" to ~1e-12 relative and pick the
//    same argmin away from exact ties (the kernel parity suite).

#ifndef CROWDPRICE_KERNEL_LAYER_SCAN_H_
#define CROWDPRICE_KERNEL_LAYER_SCAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/pmf_arena.h"
#include "util/result.h"

namespace crowdprice::kernel {

/// One DP layer's action tables: parallel arrays indexed by action.
struct LayerTables {
  const PmfArena* arena = nullptr;
  const int* tables = nullptr;    ///< [num_actions] arena table ids.
  const double* costs = nullptr;  ///< [num_actions] per-task reward, cents.
  const int* bundles = nullptr;   ///< [num_actions] tasks per completion.
  int num_actions = 0;
};

struct BestAction {
  int index = -1;
  double cost = 0.0;
};

class LayerScanKernel {
 public:
  virtual ~LayerScanKernel() = default;

  /// Stable backend name ("scalar", "avx2", "neon"); the registry key and
  /// the value recorded in plan/artifact metadata.
  virtual const char* name() const = 0;

  /// Dense layer scan (Algorithm 1): for every n in [n_lo, n_hi], scan all
  /// actions and write the best cost and action index to opt_row[n] /
  /// action_row[n]. opt_next is the t+1 value row (indexable up to n_hi).
  /// Requires 1 <= n_lo <= n_hi.
  virtual void ScanLayer(const LayerTables& layer, int n_lo, int n_hi,
                         const double* opt_next, double* opt_row,
                         int32_t* action_row) const = 0;

  /// Bracketed scan at one state (Algorithm 2's FindOptimalPriceForTime
  /// leaf): the cheapest action in [a_lo, a_hi] at remaining count n.
  /// Requires 0 <= a_lo <= a_hi < num_actions, n >= 1.
  virtual BestAction ScanState(const LayerTables& layer, int n, int a_lo,
                               int a_hi, const double* opt_next) const = 0;

  /// Collapsed-transition correlation (the joint DP's per-type step): for
  /// every n in [0, m],
  ///   y[n] = sum_{d < kn} pmf[d] * x[n - d] + max(0, 1 - S0[kn]) * x[0],
  /// kn = min(n, len) -- the expected next-layer value when n tasks remain
  /// and completions follow the view's truncated Poisson, counts >= n
  /// lumped into "all n finish". x and y must not alias.
  virtual void CollapseCorrelate(const PmfView& view, const double* x, int m,
                                 double* y) const = 0;

  /// Batched evaluation forward step (the policy evaluators' per-interval
  /// body, and the future GPU backend's insertion point): push one
  /// interval's state distribution through the plan's transition.
  /// `dist`/`next` have n_hi + 1 entries and must not alias; next[0..n_hi]
  /// must be zero on entry. The kernel adds dist[0] into next[0] and, for
  /// every state n in [1, n_hi] with dist[n] > 0, applies the action
  /// action_row[n] (an index into the layer; states with dist[n] <= 0 are
  /// skipped and may carry -1): in-range completions k*b < n move mass to
  /// next[n - k*b] and accrue cost c*k*b, the lumped remainder finishes all
  /// n tasks into next[0] at cost c*n. Returns `cost` advanced by the
  /// layer's accrued expected cost -- threading one running accumulator
  /// through the calls preserves the historical summation order, which the
  /// scalar backend keeps bit-exact (SIMD within ~1e-12).
  virtual double EvaluateLayer(const LayerTables& layer,
                               const int32_t* action_row, const double* dist,
                               int n_hi, double* next, double cost) const = 0;

  /// y[i] += a * x[i] for i in [0, m).
  virtual void Axpy(double a, const double* x, double* y, int m) const = 0;

  /// Elementwise argmin update: for i in [0, m), with
  /// v = base[i] + addend[i] + offset, if v < best[i] (strict -- earlier
  /// args win ties) then best[i] = v and best_arg[i] = arg.
  virtual void MinCombine(const double* base, const double* addend,
                          double offset, int32_t arg, int m, double* best,
                          int32_t* best_arg) const = 0;
};

/// Backend factories. The SIMD ones return nullptr when the host CPU (or
/// build architecture) cannot execute the backend, so the registry probes
/// them unconditionally; MakeScalarKernel never does.
std::unique_ptr<LayerScanKernel> MakeScalarKernel();
std::unique_ptr<LayerScanKernel> MakeAvx2Kernel();
std::unique_ptr<LayerScanKernel> MakeNeonKernel();

/// Process-wide backend table, built once and immutable afterwards, so
/// lookups take no lock.
class KernelRegistry {
 public:
  /// The global registry, built on first use with "scalar" plus every SIMD
  /// backend the host supports, in ascending preference order: scalar,
  /// neon, avx2. A new backend adds its factory there, at the preference
  /// it should have.
  static const KernelRegistry& Global();

  /// Resolves a backend by name. The empty name selects, in order: the
  /// $CROWDPRICE_KERNEL environment override when set (unknown values are
  /// an error, so typos surface instead of silently falling back), else
  /// the highest-preference backend. Unknown non-empty names are NotFound
  /// listing what is available.
  Result<const LayerScanKernel*> Resolve(const std::string& name) const;

  /// Backend names, ascending preference.
  std::vector<std::string> Available() const;

 private:
  KernelRegistry() = default;

  std::vector<std::unique_ptr<LayerScanKernel>> kernels_;
};

}  // namespace crowdprice::kernel

#endif  // CROWDPRICE_KERNEL_LAYER_SCAN_H_

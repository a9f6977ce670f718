// PmfArena: every truncated-Poisson table of one solve, deduplicated and
// held as 64-byte-aligned structure-of-arrays blocks.
//
// The DP inner loops are dot products over truncated pmf tables. Each
// table is one PmfBlock: the raw pmf, then its prefix mass
// S0[k] = sum_{j<k} pmf[j], then the first-moment prefix
// S1[k] = sum_{j<k} j*pmf[j], in one allocation with every array starting
// on a 64-byte boundary:
//
//   | pmf ...... | S0 ........ | S1 ........ |
//   ^64          ^64           ^64
//
// The prefix arrays let a kernel evaluate the paper's Eq. (1) transition at
// any remaining count n without walking the tail: the expected payout is
// c*b*S1[kn] and the lumped "batch finishes this interval" mass is
// 1 - S0[kn], kn the number of in-range terms.
//
// Rates are deduplicated with stats::QuantizedRateKey, so near-equal rates
// from arrival-trace arithmetic -- and exact repeats from constant or
// periodic traces -- share one table. Views stay valid for the arena's
// lifetime; the arena is immutable after Build.
//
// Two extensions serve the evaluators and the solve farm:
//  * Dedup::kExactRate restricts in-build sharing to exact bit repeats,
//    which makes every table bit-identical to a fresh per-rate build --
//    the policy evaluators use it so the kernelized forward pass matches
//    the historical per-interval table construction bit-for-bit.
//  * A PmfShareCache (kernel/pmf_cache.h) lets arenas adopt blocks built
//    by earlier solves instead of building their own. Cache keys are exact
//    rate bits, so adoption never changes a solve's numbers.

#ifndef CROWDPRICE_KERNEL_PMF_ARENA_H_
#define CROWDPRICE_KERNEL_PMF_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/result.h"

namespace crowdprice::kernel {

class PmfShareCache;  // kernel/pmf_cache.h

/// Read-only view of one table. All three pointers are 64-byte aligned;
/// prefix arrays have len + 1 entries.
struct PmfView {
  const double* pmf = nullptr;              ///< pmf[0..len)
  const double* prefix_mass = nullptr;      ///< S0[0..len]
  const double* prefix_weighted = nullptr;  ///< S1[0..len]
  int len = 0;
  double tail_mass = 0.0;  ///< max(0, 1 - S0[len]) as built.
};

/// One truncated-Poisson table: pmf, S0 and S1 prefixes in a single
/// 64-byte-aligned allocation, immutable after Build. Shared by refcount
/// between the arenas and the PmfShareCache that hold it.
class PmfBlock {
 public:
  /// Builds the table for `rate` (finite, >= 0) at truncation `epsilon`
  /// (in (0, 1)). The pmf is stats::MakeTruncatedPoisson's, bit for bit.
  static Result<std::shared_ptr<const PmfBlock>> Build(double rate,
                                                       double epsilon);

  PmfView view() const { return view_; }
  /// Size of the allocation, bytes.
  size_t bytes() const { return doubles_ * sizeof(double); }

  PmfBlock(const PmfBlock&) = delete;
  PmfBlock& operator=(const PmfBlock&) = delete;

 private:
  PmfBlock() = default;

  struct FreeDeleter {
    void operator()(double* p) const { std::free(p); }
  };

  std::unique_ptr<double, FreeDeleter> data_;
  size_t doubles_ = 0;
  PmfView view_;  ///< Points into data_.
};

class PmfArena {
 public:
  /// Cross-solve dedup counters (kept by PmfShareCache; the `kernels` CLI
  /// surfaces the global cache's figures).
  struct Stats {
    int64_t blocks_built = 0;   ///< Distinct blocks built into the cache.
    int64_t blocks_shared = 0;  ///< Requests served by an existing block.
  };

  /// In-build request dedup policy.
  enum class Dedup {
    /// Requests sharing a stats::QuantizedRateKey resolve to one table,
    /// built at the first occurrence's exact rate (the solver default:
    /// near-equal trace rates collapse).
    kQuantizedRate,
    /// Only exact bit repeats share; every table is bit-identical to a
    /// fresh build at its own rate (the evaluator mode).
    kExactRate,
  };

  /// The tables for a sequence of rate requests (e.g. the deadline DP's
  /// [interval][action] grid flattened interval-major). Requests with the
  /// same quantized rate resolve to one shared table, built at the first
  /// occurrence's exact rate (exact repeats -- the common case -- get
  /// bit-identical tables to a per-rate cache); the first occurrence
  /// counts as a build, later ones as reuses (the solvers' cache
  /// diagnostics). Every rate must be finite and >= 0; epsilon in (0, 1).
  ///
  /// With a `share_cache`, each distinct table is adopted from (or built
  /// into) the cache; cache hits count in the cache's Stats. Table contents
  /// are unchanged either way (exact-bit cache keys), so solves are
  /// bit-identical with and without a cache.
  static Result<PmfArena> Build(const std::vector<double>& rates,
                                double epsilon,
                                Dedup dedup = Dedup::kQuantizedRate,
                                PmfShareCache* share_cache = nullptr);

  /// Table id the i-th Build request resolved to.
  int TableOf(size_t request) const { return request_tables_[request]; }
  PmfView View(int table) const {
    return views_[static_cast<size_t>(table)];
  }

  size_t num_tables() const { return blocks_.size(); }
  int64_t tables_built() const { return static_cast<int64_t>(blocks_.size()); }
  int64_t table_reuses() const {
    return static_cast<int64_t>(request_tables_.size() - blocks_.size());
  }

  PmfArena(PmfArena&&) = default;
  PmfArena& operator=(PmfArena&&) = default;
  PmfArena(const PmfArena&) = delete;
  PmfArena& operator=(const PmfArena&) = delete;

 private:
  PmfArena() = default;

  std::vector<std::shared_ptr<const PmfBlock>> blocks_;  ///< One per table.
  /// views_[t] == blocks_[t]->view(). The scans call View once per action
  /// per state group; reading it here, not through the block pointer,
  /// saves ~3% of a serial N=2000 solve (AMD EPYC, Release build).
  std::vector<PmfView> views_;
  std::vector<int> request_tables_;
};

}  // namespace crowdprice::kernel

#endif  // CROWDPRICE_KERNEL_PMF_ARENA_H_

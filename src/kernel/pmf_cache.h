// PmfShareCache: cross-solve sharing of built truncated-Poisson blocks.
//
// A solve farm re-prices thousands of campaigns per wave, and fleets are
// built from a handful of rate profiles: most solves request pmf tables at
// rates some earlier solve already built. The cache maps
// (exact rate bits, truncation-epsilon bits) to a refcounted PmfBlock
// (kernel/pmf_arena.h) -- the one table type every PmfArena holds -- so
// PmfArena::Build can adopt an existing block instead of rebuilding it.
//
// Keys are the EXACT bit pattern of the rate each block was built at, not
// the quantized dedup key. That is what keeps wave solves bit-identical to
// sequential ones: a solve only ever adopts a block whose contents equal
// what it would have built itself (stats::MakeTruncatedPoisson is
// deterministic per rate). Near-equal rates that merely share a quantized
// bucket get their own blocks, exactly as a solo solve would build one
// table at its own first-seen rate. Fleet sharing still collapses, because
// campaigns stamped from the same profile repeat rates exactly.
//
// Thread safety: every method is safe to call concurrently (one internal
// mutex; hits are a map lookup + list splice). Eviction is LRU over a byte
// budget and only drops the cache's reference -- arenas keep blocks alive
// through their own shared_ptr.

#ifndef CROWDPRICE_KERNEL_PMF_CACHE_H_
#define CROWDPRICE_KERNEL_PMF_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "kernel/pmf_arena.h"
#include "util/result.h"

namespace crowdprice::kernel {

class PmfShareCache {
 public:
  /// Default byte budget: generous for fleet workloads (a 10k-campaign
  /// wave over dozens of profiles stays well under 1 MB of tables).
  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;

  explicit PmfShareCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// The process-wide cache engine::SolveWave shares by default; the
  /// `kernels` CLI prints its stats.
  static PmfShareCache& Global();

  /// The block for (rate, epsilon): the cached one when the exact rate bits
  /// match (counted as a share), else freshly built and inserted (counted
  /// as a build). Never returns null on OK.
  Result<std::shared_ptr<const PmfBlock>> GetOrBuild(double rate,
                                                     double epsilon);

  /// Dedup effectiveness counters (monotone; eviction does not reset them).
  PmfArena::Stats stats() const;
  /// Bytes currently held by cached blocks (arenas may pin more).
  size_t resident_bytes() const;
  /// Blocks dropped by the LRU byte budget.
  int64_t evicted() const;

  PmfShareCache(const PmfShareCache&) = delete;
  PmfShareCache& operator=(const PmfShareCache&) = delete;

 private:
  struct Key {
    uint64_t rate_bits = 0;
    uint64_t epsilon_bits = 0;
    bool operator==(const Key& other) const {
      return rate_bits == other.rate_bits && epsilon_bits == other.epsilon_bits;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splitmix-style mix of the two words.
      uint64_t h = k.rate_bits + 0x9e3779b97f4a7c15ULL * k.epsilon_bits;
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const PmfBlock> block;
  };

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Most-recently-used at the front.
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> by_key_;
  size_t resident_bytes_ = 0;
  int64_t blocks_built_ = 0;
  int64_t blocks_shared_ = 0;
  int64_t evicted_ = 0;
};

}  // namespace crowdprice::kernel

#endif  // CROWDPRICE_KERNEL_PMF_CACHE_H_

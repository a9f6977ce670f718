#include "kernel/pmf_cache.h"

#include <bit>

#include "util/macros.h"

namespace crowdprice::kernel {

PmfShareCache& PmfShareCache::Global() {
  static PmfShareCache* cache = new PmfShareCache();
  return *cache;
}

Result<std::shared_ptr<const PmfBlock>> PmfShareCache::GetOrBuild(
    double rate, double epsilon) {
  const Key key{std::bit_cast<uint64_t>(rate),
                std::bit_cast<uint64_t>(epsilon)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++blocks_shared_;
      return it->second->block;
    }
  }
  // Build outside the lock (deterministic per rate, so a concurrent
  // duplicate build yields an identical block; the first insert wins and
  // the loser's block serves its own request only).
  CP_ASSIGN_OR_RETURN(std::shared_ptr<const PmfBlock> block,
                      PmfBlock::Build(rate, epsilon));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++blocks_shared_;
    return it->second->block;
  }
  ++blocks_built_;
  lru_.push_front(Entry{key, block});
  by_key_.emplace(key, lru_.begin());
  resident_bytes_ += block->bytes();
  while (resident_bytes_ > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.block->bytes();
    by_key_.erase(victim.key);
    lru_.pop_back();
    ++evicted_;
  }
  return block;
}

PmfArena::Stats PmfShareCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PmfArena::Stats{blocks_built_, blocks_shared_};
}

size_t PmfShareCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

int64_t PmfShareCache::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

}  // namespace crowdprice::kernel

#include "kernel/pmf_arena.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "kernel/pmf_cache.h"
#include "stats/poisson.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::kernel {

namespace {

// Every array in a block starts on a 64-byte boundary (8 doubles), the
// widest vector width the backends use plus one cache line.
constexpr size_t kAlignDoubles = 8;

size_t AlignUp(size_t doubles) {
  return (doubles + kAlignDoubles - 1) & ~(kAlignDoubles - 1);
}

}  // namespace

Result<std::shared_ptr<const PmfBlock>> PmfBlock::Build(double rate,
                                                        double epsilon) {
  CP_ASSIGN_OR_RETURN(stats::TruncatedPoisson tp,
                      stats::MakeTruncatedPoisson(rate, epsilon));
  const size_t len = tp.pmf.size();  // max(s0, 1)
  const size_t mass_offset = AlignUp(len);
  const size_t weighted_offset = AlignUp(mass_offset + len + 1);
  const size_t doubles = AlignUp(weighted_offset + len + 1);

  // aligned_alloc requires the size to be a multiple of the alignment;
  // AlignUp guarantees that in doubles, hence in bytes.
  double* data =
      static_cast<double*>(std::aligned_alloc(64, doubles * sizeof(double)));
  if (data == nullptr) {
    return Status::Internal(StringF("PmfBlock allocation of %zu bytes failed",
                                    doubles * sizeof(double)));
  }
  auto block = std::shared_ptr<PmfBlock>(new PmfBlock());
  block->data_.reset(data);
  block->doubles_ = doubles;

  double* pmf = data;
  double* mass = data + mass_offset;
  double* weighted = data + weighted_offset;
  mass[0] = 0.0;
  weighted[0] = 0.0;
  for (size_t k = 0; k < len; ++k) {
    pmf[k] = tp.pmf[k];
    mass[k + 1] = mass[k] + pmf[k];
    weighted[k + 1] = weighted[k] + static_cast<double>(k) * pmf[k];
  }
  block->view_.pmf = pmf;
  block->view_.prefix_mass = mass;
  block->view_.prefix_weighted = weighted;
  block->view_.len = static_cast<int>(len);
  block->view_.tail_mass = std::max(0.0, 1.0 - mass[len]);
  return std::shared_ptr<const PmfBlock>(std::move(block));
}

Result<PmfArena> PmfArena::Build(const std::vector<double>& rates,
                                 double epsilon, Dedup dedup,
                                 PmfShareCache* share_cache) {
  PmfArena arena;
  arena.request_tables_.reserve(rates.size());
  std::unordered_map<uint64_t, int> by_key;
  for (size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      return Status::InvalidArgument(
          StringF("PmfArena rate %zu = %g must be finite and >= 0", i, rate));
    }
    const uint64_t key = dedup == Dedup::kQuantizedRate
                             ? stats::QuantizedRateKey(rate)
                             : std::bit_cast<uint64_t>(rate);
    const auto [it, inserted] =
        by_key.emplace(key, static_cast<int>(arena.blocks_.size()));
    if (inserted) {
      // Quantized keys are for DEDUP only; the table itself is built at
      // the first-seen exact rate. Solves whose rates repeat exactly (the
      // common case) therefore see tables bit-identical to a per-rate
      // cache, which is what keeps scalar-backend plans bit-identical
      // across refactors -- and what lets a share cache keyed on exact
      // rate bits hand the arena a block it would have built itself.
      CP_ASSIGN_OR_RETURN(std::shared_ptr<const PmfBlock> block,
                          share_cache != nullptr
                              ? share_cache->GetOrBuild(rate, epsilon)
                              : PmfBlock::Build(rate, epsilon));
      arena.views_.push_back(block->view());
      arena.blocks_.push_back(std::move(block));
    }
    arena.request_tables_.push_back(it->second);
  }
  return arena;
}

}  // namespace crowdprice::kernel

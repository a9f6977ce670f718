// Kernel-layer tests: PmfArena layout/dedup invariants (with and without a
// PmfShareCache), KernelRegistry dispatch, and the backend parity suite --
// every registered backend must agree with "scalar" to ~1e-12 with
// identical argmins on randomized layers, and must agree with ITSELF
// bit-for-bit between the dense (ScanLayer) and bracketed (ScanState)
// entry points, the contract that makes Algorithm 1 and Algorithm 2
// produce identical plans per backend.

#include "kernel/layer_scan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "kernel/pmf_arena.h"
#include "kernel/pmf_cache.h"
#include "stats/poisson.h"
#include "util/rng.h"

namespace crowdprice::kernel {
namespace {

bool Aligned64(const double* p) {
  return reinterpret_cast<uintptr_t>(p) % 64 == 0;
}

// Builds `rates` twice: without a share cache (the arena builds its own
// blocks) and with `cache` (blocks adopted from, or built into, it). Both
// arenas must resolve every request to the same table id and hold
// bit-equal tables.
std::vector<PmfArena> BuildWithAndWithoutCache(const std::vector<double>& rates,
                                               PmfShareCache* cache) {
  std::vector<PmfArena> arenas;
  for (PmfShareCache* share_cache : {static_cast<PmfShareCache*>(nullptr),
                                     cache}) {
    auto arena = PmfArena::Build(rates, 1e-9, PmfArena::Dedup::kQuantizedRate,
                                 share_cache);
    EXPECT_TRUE(arena.ok()) << arena.status();
    if (!arena.ok()) return {};
    arenas.push_back(std::move(arena).value());
  }
  const PmfArena& plain = arenas[0];
  const PmfArena& shared = arenas[1];
  EXPECT_EQ(plain.num_tables(), shared.num_tables());
  for (size_t i = 0; i < rates.size(); ++i) {
    EXPECT_EQ(plain.TableOf(i), shared.TableOf(i)) << "request " << i;
  }
  const size_t tables = std::min(plain.num_tables(), shared.num_tables());
  for (size_t t = 0; t < tables; ++t) {
    const PmfView a = plain.View(static_cast<int>(t));
    const PmfView b = shared.View(static_cast<int>(t));
    EXPECT_EQ(a.len, b.len) << "table " << t;
    if (a.len != b.len) continue;
    const size_t len = static_cast<size_t>(a.len);
    EXPECT_EQ(std::memcmp(a.pmf, b.pmf, len * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(a.prefix_mass, b.prefix_mass,
                          (len + 1) * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(a.prefix_weighted, b.prefix_weighted,
                          (len + 1) * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.tail_mass, &b.tail_mass, sizeof(double)), 0);
  }
  return arenas;
}

TEST(PmfArenaTest, PacksAlignedTablesWithPrefixSums) {
  const std::vector<double> rates = {0.0, 5.0, 50.0, 500.0};
  PmfShareCache cache;
  const std::vector<PmfArena> arenas = BuildWithAndWithoutCache(rates, &cache);
  ASSERT_EQ(arenas.size(), 2u);
  for (const PmfArena& arena : arenas) {
    ASSERT_EQ(arena.num_tables(), rates.size());
    for (size_t i = 0; i < rates.size(); ++i) {
      const PmfView v = arena.View(arena.TableOf(i));
      EXPECT_TRUE(Aligned64(v.pmf));
      EXPECT_TRUE(Aligned64(v.prefix_mass));
      EXPECT_TRUE(Aligned64(v.prefix_weighted));
      auto tp = stats::MakeTruncatedPoisson(rates[i], 1e-9);
      ASSERT_TRUE(tp.ok());
      ASSERT_EQ(v.len, static_cast<int>(tp->pmf.size()));
      double mass = 0.0, weighted = 0.0;
      EXPECT_EQ(v.prefix_mass[0], 0.0);
      EXPECT_EQ(v.prefix_weighted[0], 0.0);
      for (int k = 0; k < v.len; ++k) {
        // The block's pmf is the canonical table, bit for bit.
        EXPECT_EQ(v.pmf[k], tp->pmf[static_cast<size_t>(k)]);
        mass += v.pmf[k];
        weighted += static_cast<double>(k) * v.pmf[k];
        EXPECT_EQ(v.prefix_mass[k + 1], mass);
        EXPECT_EQ(v.prefix_weighted[k + 1], weighted);
      }
      EXPECT_EQ(v.tail_mass, tp->tail_mass);
    }
  }
}

TEST(PmfArenaTest, DeduplicatesQuantizedRates) {
  const double rate = 610.0 * 0.731264987;
  const std::vector<double> rates = {rate, rate * (1.0 + 1e-15), rate, 42.0};
  PmfShareCache cache;
  const std::vector<PmfArena> arenas = BuildWithAndWithoutCache(rates, &cache);
  ASSERT_EQ(arenas.size(), 2u);
  for (const PmfArena& arena : arenas) {
    EXPECT_EQ(arena.num_tables(), 2u);
    EXPECT_EQ(arena.tables_built(), 2);
    EXPECT_EQ(arena.table_reuses(), 2);
    EXPECT_EQ(arena.TableOf(0), arena.TableOf(1));
    EXPECT_EQ(arena.TableOf(0), arena.TableOf(2));
    EXPECT_NE(arena.TableOf(0), arena.TableOf(3));
  }
}

TEST(PmfArenaTest, CountsMatchTheSolversCachePattern) {
  // 21 actions x 12 intervals at a constant trace: one build per action,
  // the other 11 layers reuse -- the figures DeadlinePlan reports.
  std::vector<double> rates;
  for (int t = 0; t < 12; ++t) {
    for (int a = 0; a <= 20; ++a) {
      rates.push_back(90.0 * (static_cast<double>(a) / 40.0));
    }
  }
  auto arena = PmfArena::Build(rates, 1e-9);
  ASSERT_TRUE(arena.ok()) << arena.status();
  EXPECT_EQ(arena->tables_built(), 21);
  EXPECT_EQ(arena->table_reuses(), 21 * 11);
}

TEST(PmfArenaTest, RejectsInvalidRates) {
  EXPECT_TRUE(PmfArena::Build({1.0, -2.0}, 1e-9).status().IsInvalidArgument());
  EXPECT_TRUE(
      PmfArena::Build({std::nan("")}, 1e-9).status().IsInvalidArgument());
  EXPECT_TRUE(PmfArena::Build({1.0}, 1.5).status().IsInvalidArgument());
}

TEST(KernelRegistryTest, ScalarIsAlwaysAvailable) {
  const auto names = KernelRegistry::Global().Available();
  ASSERT_FALSE(names.empty());
  bool has_scalar = false;
  for (const auto& n : names) has_scalar |= n == "scalar";
  EXPECT_TRUE(has_scalar);
  auto scalar = KernelRegistry::Global().Resolve("scalar");
  ASSERT_TRUE(scalar.ok());
  EXPECT_STREQ((*scalar)->name(), "scalar");
  // Empty resolves to something; unknown names surface loudly.
  EXPECT_TRUE(KernelRegistry::Global().Resolve("").ok());
  EXPECT_TRUE(KernelRegistry::Global().Resolve("vliw9000").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Parity suite: randomized layers.
// ---------------------------------------------------------------------------

struct RandomLayer {
  PmfArena arena;
  std::vector<int> table_ids;
  std::vector<double> costs;
  std::vector<int> bundles;
  std::vector<double> opt_next;
  int num_tasks = 0;

  LayerTables Tables() const {
    LayerTables layer;
    layer.arena = &arena;
    layer.tables = table_ids.data();
    layer.costs = costs.data();
    layer.bundles = bundles.data();
    layer.num_actions = static_cast<int>(costs.size());
    return layer;
  }
};

// A layer whose table lengths straddle num_tasks, so the scans cross the
// growing/mixed/saturated regimes the SIMD backends special-case.
RandomLayer MakeRandomLayer(Rng& rng, bool bundled) {
  const int num_actions = 3 + static_cast<int>(rng.NextDouble() * 12.0);
  const int num_tasks = 40 + static_cast<int>(rng.NextDouble() * 140.0);
  std::vector<double> rates;
  std::vector<double> costs;
  std::vector<int> bundles;
  const double lambda = 2.0 + rng.NextDouble() * 2.5 * num_tasks;
  for (int a = 0; a < num_actions; ++a) {
    const double accept =
        (a + 1) / static_cast<double>(num_actions) * rng.NextDouble();
    rates.push_back(lambda * accept);
    costs.push_back(rng.NextDouble() * 40.0);
    bundles.push_back(
        bundled ? 1 + static_cast<int>(rng.NextDouble() * 4.0) : 1);
  }
  auto arena = PmfArena::Build(rates, 1e-9);
  EXPECT_TRUE(arena.ok()) << arena.status();
  RandomLayer out{std::move(arena).value(), {}, std::move(costs),
                  std::move(bundles), {}, num_tasks};
  for (size_t i = 0; i < rates.size(); ++i) {
    out.table_ids.push_back(out.arena.TableOf(i));
  }
  for (int n = 0; n <= num_tasks; ++n) {
    out.opt_next.push_back(rng.NextDouble() * 500.0);
  }
  out.opt_next[0] = 0.0;
  return out;
}

std::vector<const LayerScanKernel*> AllBackends() {
  std::vector<const LayerScanKernel*> out;
  for (const auto& name : KernelRegistry::Global().Available()) {
    out.push_back(KernelRegistry::Global().Resolve(name).value());
  }
  return out;
}

void ExpectClose(double got, double want, const char* what, int i) {
  const double tol = 1e-12 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tol) << what << " at " << i;
}

TEST(KernelParityTest, ScanLayerMatchesScalarOnRandomLayers) {
  const auto scalar = KernelRegistry::Global().Resolve("scalar").value();
  for (const bool bundled : {false, true}) {
    Rng rng(bundled ? 777 : 20260726);
    for (int rep = 0; rep < 12; ++rep) {
      const RandomLayer layer = MakeRandomLayer(rng, bundled);
      const LayerTables lt = layer.Tables();
      const int n = layer.num_tasks;
      std::vector<double> want_opt(n + 1, -1.0);
      std::vector<int32_t> want_act(n + 1, -7);
      scalar->ScanLayer(lt, 1, n, layer.opt_next.data(), want_opt.data(),
                        want_act.data());
      for (const LayerScanKernel* kern : AllBackends()) {
        SCOPED_TRACE(kern->name());
        std::vector<double> opt(n + 1, -1.0);
        std::vector<int32_t> act(n + 1, -7);
        kern->ScanLayer(lt, 1, n, layer.opt_next.data(), opt.data(),
                        act.data());
        for (int i = 1; i <= n; ++i) {
          ExpectClose(opt[i], want_opt[i], "opt", i);
          // Identical argmin: random costs make exact ties vanishingly
          // unlikely, so any drift here is a real indexing bug.
          ASSERT_EQ(act[i], want_act[i]) << "argmin at n=" << i;
        }
      }
    }
  }
}

TEST(KernelParityTest, ScanStateIsBitIdenticalToOwnScanLayer) {
  // The within-backend contract: dense and bracketed scans share their
  // arithmetic exactly, whatever group/remainder split ScanLayer used.
  Rng rng(4242);
  for (int rep = 0; rep < 8; ++rep) {
    const RandomLayer layer = MakeRandomLayer(rng, false);
    const LayerTables lt = layer.Tables();
    const int n = layer.num_tasks;
    for (const LayerScanKernel* kern : AllBackends()) {
      SCOPED_TRACE(kern->name());
      std::vector<double> opt(n + 1, 0.0);
      std::vector<int32_t> act(n + 1, -1);
      kern->ScanLayer(lt, 1, n, layer.opt_next.data(), opt.data(), act.data());
      for (int i = 1; i <= n; ++i) {
        const BestAction best = kern->ScanState(lt, i, 0, lt.num_actions - 1,
                                                layer.opt_next.data());
        ASSERT_EQ(best.index, act[i]) << "n=" << i;
        ASSERT_EQ(best.cost, opt[i]) << "n=" << i;  // bitwise
      }
      // Bracketed sub-ranges agree with a dense rescan of the same range.
      const BestAction hi_half = kern->ScanState(
          lt, n / 2, lt.num_actions / 2, lt.num_actions - 1,
          layer.opt_next.data());
      EXPECT_GE(hi_half.index, lt.num_actions / 2);
    }
  }
}

TEST(KernelParityTest, CollapseCorrelateMatchesScalar) {
  const auto scalar = KernelRegistry::Global().Resolve("scalar").value();
  Rng rng(99);
  for (int rep = 0; rep < 10; ++rep) {
    const RandomLayer layer = MakeRandomLayer(rng, false);
    const PmfView v = layer.arena.View(layer.table_ids[0]);
    const int m = layer.num_tasks;
    std::vector<double> want(m + 1, -1.0);
    scalar->CollapseCorrelate(v, layer.opt_next.data(), m, want.data());
    // Conservation sanity: with x == 1 everywhere the collapsed transition
    // is a probability mixture, so y == 1 everywhere.
    std::vector<double> ones(m + 1, 1.0);
    std::vector<double> mixed(m + 1, 0.0);
    scalar->CollapseCorrelate(v, ones.data(), m, mixed.data());
    for (int i = 0; i <= m; ++i) {
      EXPECT_NEAR(mixed[i], 1.0, 1e-9) << i;
    }
    for (const LayerScanKernel* kern : AllBackends()) {
      SCOPED_TRACE(kern->name());
      std::vector<double> got(m + 1, -1.0);
      kern->CollapseCorrelate(v, layer.opt_next.data(), m, got.data());
      for (int i = 0; i <= m; ++i) {
        ExpectClose(got[i], want[i], "collapse", i);
      }
    }
  }
}

TEST(KernelParityTest, AxpyAndMinCombineMatchScalar) {
  Rng rng(55);
  const int m = 203;  // odd length exercises every remainder path
  std::vector<double> x(m), base(m), addend(m);
  for (int i = 0; i < m; ++i) {
    x[i] = rng.NextDouble() * 10.0 - 5.0;
    base[i] = rng.NextDouble() * 100.0;
    addend[i] = rng.NextDouble() * 10.0;
  }
  const auto scalar = KernelRegistry::Global().Resolve("scalar").value();
  std::vector<double> want_y(m, 1.5), want_best(m, 90.0);
  std::vector<int32_t> want_arg(m, -1);
  scalar->Axpy(0.37, x.data(), want_y.data(), m);
  scalar->MinCombine(base.data(), addend.data(), -55.0, 7, m,
                     want_best.data(), want_arg.data());
  for (const LayerScanKernel* kern : AllBackends()) {
    SCOPED_TRACE(kern->name());
    std::vector<double> y(m, 1.5), best(m, 90.0);
    std::vector<int32_t> arg(m, -1);
    kern->Axpy(0.37, x.data(), y.data(), m);
    kern->MinCombine(base.data(), addend.data(), -55.0, 7, m, best.data(),
                     arg.data());
    for (int i = 0; i < m; ++i) {
      ExpectClose(y[i], want_y[i], "axpy", i);
      // MinCombine does no reassociation, so it is exact across backends.
      ASSERT_EQ(best[i], want_best[i]) << i;
      ASSERT_EQ(arg[i], want_arg[i]) << i;
    }
  }
}

TEST(KernelParityTest, MinCombineKeepsEarlierArgOnTies) {
  for (const LayerScanKernel* kern : AllBackends()) {
    SCOPED_TRACE(kern->name());
    std::vector<double> base = {1.0, 2.0, 3.0, 4.0, 5.0};
    std::vector<double> zero(5, 0.0);
    std::vector<double> best = {1.0, 9.0, 3.0, 9.0, 5.0};
    std::vector<int32_t> arg(5, 1);
    kern->MinCombine(base.data(), zero.data(), 0.0, 2, 5, best.data(),
                     arg.data());
    // Equal costs must NOT switch to the later arg.
    EXPECT_EQ(arg[0], 1);
    EXPECT_EQ(arg[2], 1);
    EXPECT_EQ(arg[4], 1);
    EXPECT_EQ(arg[1], 2);
    EXPECT_EQ(arg[3], 2);
  }
}

}  // namespace
}  // namespace crowdprice::kernel

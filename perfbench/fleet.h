// Workload inputs, made from the seed alone: campaign specs priced over
// the PaperMarketConfig synthetic trace, and decide requests against them.
//
// Sizes are stratified rather than drawn: a fleet of a given length always
// holds the same mix of kinds, task counts N (log-spaced over [50, 500])
// and interval counts NT (24 and 72), so every seed does the same amount
// of work. The seed picks everything else: which campaign gets which size,
// where on the trace each campaign starts, its penalty, and the requests.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "arrival/rate_function.h"
#include "choice/acceptance.h"
#include "engine/policy_spec.h"
#include "kernel/pmf_cache.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"

namespace perfbench {

namespace arrival = crowdprice::arrival;
namespace choice = crowdprice::choice;
namespace engine = crowdprice::engine;
namespace market = crowdprice::market;
namespace pricing = crowdprice::pricing;
namespace serving = crowdprice::serving;

/// splitmix64: a tiny generator whose streams depend on the seed only, not
/// on the standard library's distribution implementations.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Stateless artifact kinds only: their sheets depend on the request
/// alone, so the bit-equality oracle can check every response.
enum class Kind { kDeadline, kFixed, kSchedule };

struct Campaign {
  Kind kind = Kind::kDeadline;
  int num_tasks = 0;
  int num_intervals = 0;
  int start_bucket = 0;  ///< 20-minute trace bucket the campaign starts on.
  double penalty_cents = 0.0;
  double rate_scale = 1.0;  ///< Re-price waves rescale the trace rates.
  serving::CampaignLimits limits;
};

class Market {
 public:
  static constexpr double kHorizonHours = 24.0;

  static crowdprice::Result<std::unique_ptr<Market>> Create();
  Market(const Market&) = delete;
  Market& operator=(const Market&) = delete;

  /// The engine spec for `campaign`. Specs borrow this market's acceptance
  /// function, so the market must outlive them. A deadline spec solves
  /// through `share_cache` when one is given.
  crowdprice::Result<engine::PolicySpec> Spec(
      const Campaign& campaign,
      crowdprice::kernel::PmfShareCache* share_cache = nullptr) const;

  /// `count` campaigns, `deadline_per_4` of every four of them deadline
  /// plans and the rest alternating fixed-price and schedule
  /// (budget-static) policies, shuffled and placed on the trace by `rng`.
  /// Campaigns start on one of a handful of trace bucket edges, so specs
  /// that share an edge and NT share their interval rates exactly.
  std::vector<Campaign> MakeFleet(int count, int deadline_per_4,
                                  SeedRng& rng) const;

  /// A single-type decide request for `campaign`, inside its horizon.
  static market::DecisionRequest MakeRequest(const Campaign& campaign,
                                             SeedRng& rng);

 private:
  Market(arrival::PiecewiseConstantRate rate, pricing::ActionSet actions)
      : rate_(std::move(rate)), actions_(std::move(actions)) {}

  arrival::PiecewiseConstantRate rate_;
  choice::LogitAcceptance acceptance_ = choice::LogitAcceptance::Paper2014();
  pricing::ActionSet actions_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_

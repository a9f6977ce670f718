#include "fleet.h"

#include <algorithm>
#include <cmath>

#include "arrival/trace.h"
#include "bench_common.h"
#include "util/macros.h"

namespace perfbench {

using crowdprice::Result;
using crowdprice::Status;

namespace {

constexpr int kMinTasks = 50;
constexpr int kMaxTasks = 500;
constexpr int kDeadlineMaxPrice = 50;  // the paper's integer price grid
constexpr int kStaticMaxPrice = 100;
constexpr int kStartEdges = 6;
constexpr double kBucketHours = 20.0 / 60.0;

}  // namespace

Result<std::unique_ptr<Market>> Market::Create() {
  CP_ASSIGN_OR_RETURN(arrival::PiecewiseConstantRate rate,
                      arrival::SyntheticTraceGenerator::TrueRate(
                          crowdprice::bench::PaperMarketConfig()));
  CP_ASSIGN_OR_RETURN(
      pricing::ActionSet actions,
      pricing::ActionSet::FromPriceGrid(kDeadlineMaxPrice,
                                        choice::LogitAcceptance::Paper2014()));
  return std::unique_ptr<Market>(
      new Market(std::move(rate), std::move(actions)));
}

Result<engine::PolicySpec> Market::Spec(
    const Campaign& c, crowdprice::kernel::PmfShareCache* share_cache) const {
  const int n = c.num_tasks;
  if (c.kind == Kind::kSchedule) {
    engine::BudgetStaticSpec spec;
    spec.num_tasks = n;
    spec.budget_cents = 14.0 * c.rate_scale * n;
    spec.acceptance = &acceptance_;
    spec.max_price_cents = kStaticMaxPrice;
    return engine::PolicySpec(spec);
  }
  CP_ASSIGN_OR_RETURN(
      arrival::PiecewiseConstantRate window,
      rate_.Window(c.start_bucket * kBucketHours, kHorizonHours));
  CP_ASSIGN_OR_RETURN(std::vector<double> lambdas,
                      window.IntervalMeans(kHorizonHours, c.num_intervals));
  if (c.rate_scale != 1.0) {
    for (double& l : lambdas) l *= c.rate_scale;
  }
  if (c.kind == Kind::kFixed) {
    engine::FixedPriceSpec spec;
    spec.num_tasks = n;
    spec.interval_lambdas = std::move(lambdas);
    spec.acceptance = &acceptance_;
    spec.max_price_cents = kStaticMaxPrice;
    spec.criterion = engine::FixedPriceSpec::Criterion::kQuantile;
    spec.threshold = 0.99;
    return engine::PolicySpec(spec);
  }
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = n;
  spec.problem.num_intervals = c.num_intervals;
  spec.problem.penalty_cents = c.penalty_cents;
  spec.interval_lambdas = std::move(lambdas);
  spec.actions = actions_;
  spec.dp_options.share_cache = share_cache;
  return engine::PolicySpec(spec);
}

std::vector<Campaign> Market::MakeFleet(int count, int deadline_per_4,
                                        SeedRng& rng) const {
  // Stratified sizes: the j-th deadline plan (and the j-th static policy)
  // takes the j-th of the log-spaced task counts, alternating NT.
  const int deadlines = (count / 4) * deadline_per_4 +
                        std::min(count % 4, deadline_per_4);
  const int statics = count - deadlines;
  const auto log_spaced = [](int j, int of) {
    const double u = (j + 0.5) / std::max(of, 1);
    return static_cast<int>(std::lround(
        kMinTasks * std::pow(static_cast<double>(kMaxTasks) / kMinTasks, u)));
  };
  std::vector<Campaign> fleet;
  fleet.reserve(static_cast<size_t>(count));
  int d = 0, s = 0;
  for (int i = 0; i < count; ++i) {
    Campaign c;
    if (i % 4 < deadline_per_4) {
      c.kind = Kind::kDeadline;
      c.num_tasks = log_spaced(d, deadlines);
      c.num_intervals = d % 2 == 0 ? 24 : 72;
      ++d;
    } else {
      c.kind = s % 2 == 0 ? Kind::kFixed : Kind::kSchedule;
      c.num_tasks = log_spaced(s, statics);
      c.num_intervals = s % 4 < 2 ? 24 : 72;
      ++s;
    }
    fleet.push_back(c);
  }
  for (size_t i = fleet.size(); i > 1; --i) {
    std::swap(fleet[i - 1], fleet[rng.Below(i)]);
  }
  // Start edges: a fixed set of days and hours (so every seed prices the
  // same mix of busy and quiet trace hours, and solve costs do not depend
  // on the seed), in a week and at a 20-minute offset the seed picks.
  // Campaigns on one edge share their interval rates exactly.
  constexpr int kBucketsPerDay = 72;
  const int weeks = static_cast<int>(rate_.rates().size()) / (7 * kBucketsPerDay);
  std::vector<int> edges;
  for (int e = 0; e < kStartEdges; ++e) {
    const int week = static_cast<int>(rng.Below(static_cast<uint64_t>(std::max(weeks - 1, 1))));
    edges.push_back((week * 7 + e) * kBucketsPerDay + 12 * e +
                    static_cast<int>(rng.Below(3)));
  }
  for (Campaign& c : fleet) {
    c.start_bucket = edges[rng.Below(edges.size())];
    c.penalty_cents = 150.0 + 150.0 * rng.Unit();
    c.limits.total_tasks = c.num_tasks;
    c.limits.deadline_hours = kHorizonHours;
  }
  return fleet;
}

market::DecisionRequest Market::MakeRequest(const Campaign& campaign,
                                            SeedRng& rng) {
  const double now = kHorizonHours * rng.Unit();
  const auto remaining = static_cast<int64_t>(
      1 + rng.Below(static_cast<uint64_t>(campaign.num_tasks)));
  return market::DecisionRequest::Single(now, remaining);
}

}  // namespace perfbench

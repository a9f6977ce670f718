// Streaming fleet throughput: the open-marketplace event loop under churn.
//
// The closed-fleet bench (bench_fleet_throughput) admits every campaign
// up-front; this one measures the streaming path: campaigns are admitted
// into the live CampaignShardMap at random bucket edges while earlier
// campaigns are still being ticked, sweeping admission-churn rate x shard
// count. For every cell it reports
//   * decides/second sustained by the event loop under that churn, and
//   * the admit-under-traffic latency (mean + worst) of pushing a campaign
//     into the live map while the serving pool is mid-slice.
// A mid-run swap + retire wave exercises the control-event path, and one
// cell is re-checked against per-campaign serial RunSimulation started at
// each admit time (the layer's determinism contract).
//
// Emits BENCH_fleet_streaming.json with decides/sec per (churn window,
// shard count) plus aggregate admit latency.

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "market/controller.h"
#include "market/fleet_simulator.h"
#include "market/simulator.h"
#include "pricing/fixed_price.h"
#include "serving/campaign_shard_map.h"
#include "util/rng.h"
#include "util/table.h"

using namespace crowdprice;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Spec {
  market::SimulatorConfig config;
  double admit_hours = 0.0;
  double price_cents = 0.0;
};

// One campaign mix per churn window: admit edges uniform over [0, window]
// (window 0 = the closed fleet, every campaign at t = 0).
std::vector<Spec> MakeSpecs(int campaigns, double window_hours,
                            double bucket_hours, uint64_t seed) {
  Rng scheduler(seed);
  std::vector<Spec> specs;
  specs.reserve(static_cast<size_t>(campaigns));
  for (int i = 0; i < campaigns; ++i) {
    Spec spec;
    spec.config.total_tasks = 4 + i % 9;
    spec.config.horizon_hours = 2.0 + i % 3;
    spec.config.decision_interval_hours = 1.0;
    spec.config.service_minutes_per_task = 0.0;
    spec.admit_hours =
        market::RandomBucketEdge(scheduler, window_hours, bucket_hours);
    spec.price_cents = 10.0 + i % 20;
    specs.push_back(spec);
  }
  return specs;
}

market::ArrivalSchedule MakeSchedule(const std::vector<Spec>& specs,
                                     const choice::AcceptanceFunction& accept,
                                     uint64_t seed) {
  market::ArrivalSchedule schedule;
  Rng master(seed);
  for (const Spec& spec : specs) {
    Rng child = master.Fork();
    auto added = schedule.AdmitController(
        spec.admit_hours,
        std::make_unique<market::FixedOfferController>(
            market::Offer{spec.price_cents, 1}),
        spec.config, accept, child);
    bench::DieOnError(added.status(), "schedule admit");
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Streaming fleet: admission churn x shard count ===\n\n";
  const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  auto rate_result =
      arrival::PiecewiseConstantRate::Create({55.0, 35.0, 70.0, 45.0}, 1.0);
  bench::DieOnError(rate_result.status(), "rate");
  const arrival::PiecewiseConstantRate rate = std::move(rate_result).value();

  bench::BenchRecord record("fleet_streaming");
  record.Label("layer", "serving+fleet");
  const int kCampaigns = bench::SmokeN(4000, 400);
  constexpr uint64_t kSeed = 99;
  record.Param("campaigns", kCampaigns);

  // ------------------------------------------------------------------ 1.
  // Determinism under churn: one moderately-churned cell must match
  // per-campaign serial RunSimulation started at each admit time.
  {
    const std::vector<Spec> specs =
        MakeSpecs(bench::SmokeN(600, 120), 8.0, rate.bucket_width_hours(),
                  kSeed);
    std::vector<market::SimulationResult> serial;
    Rng master(kSeed + 1);
    for (const Spec& spec : specs) {
      Rng child = master.Fork();
      market::FixedOfferController controller(
          market::Offer{spec.price_cents, 1});
      auto result = market::RunSimulation(spec.config, rate, acceptance,
                                          controller, child, spec.admit_hours);
      bench::DieOnError(result.status(), "serial simulation");
      serial.push_back(std::move(result).value());
    }
    auto fleet_result = market::FleetSimulator::Create(8);
    bench::DieOnError(fleet_result.status(), "fleet");
    market::FleetSimulator fleet = std::move(fleet_result).value();
    auto outcomes =
        fleet.RunStreaming(rate, MakeSchedule(specs, acceptance, kSeed + 1));
    bench::DieOnError(outcomes.status(), "streaming run");
    bool identical = outcomes->size() == serial.size();
    for (size_t i = 0; identical && i < serial.size(); ++i) {
      const market::SimulationResult& got = (*outcomes)[i].result;
      identical = got.total_cost_cents == serial[i].total_cost_cents &&
                  got.tasks_assigned == serial[i].tasks_assigned &&
                  got.worker_arrivals == serial[i].worker_arrivals &&
                  got.completion_time_hours ==
                      serial[i].completion_time_hours &&
                  got.events.size() == serial[i].events.size();
    }
    bench::CheckExact(identical,
                      "streaming outcomes bit-identical to serial "
                      "RunSimulation started at each admit time");
  }

  // ------------------------------------------------------------------ 2.
  // The sweep: admission window (churn) x shard count.
  std::cout << StringF("\n%d campaigns per cell\n\n", kCampaigns);
  Table table({"window h", "shards", "decides/sec", "admit mean ms",
               "admit max ms", "peak live"});
  double admit_mean_worst = 0.0, admit_max_worst = 0.0;
  double best_streamed = 0.0, best_closed = 0.0;
  for (const double window : {0.0, 8.0, 24.0}) {
    for (const int num_shards : {1, 4, 16}) {
      const std::vector<Spec> specs = MakeSpecs(
          kCampaigns, window, rate.bucket_width_hours(), kSeed + 7);
      auto fleet_result = market::FleetSimulator::Create(num_shards);
      bench::DieOnError(fleet_result.status(), "fleet");
      market::FleetSimulator fleet = std::move(fleet_result).value();
      market::ArrivalSchedule schedule =
          MakeSchedule(specs, acceptance, kSeed + 8);

      const auto start = std::chrono::steady_clock::now();
      auto outcomes = fleet.RunStreaming(rate, std::move(schedule));
      bench::DieOnError(outcomes.status(), "streaming run");
      const double elapsed = Seconds(start);

      const serving::ShardStats totals = fleet.shard_map().TotalStats();
      const market::StreamingStats& stream = fleet.streaming_stats();
      const double decides_per_sec =
          static_cast<double>(totals.decides) / elapsed;
      if (window == 0.0) {
        best_closed = std::max(best_closed, decides_per_sec);
      } else {
        best_streamed = std::max(best_streamed, decides_per_sec);
      }
      admit_mean_worst = std::max(admit_mean_worst, stream.admit_mean_ms);
      admit_max_worst = std::max(admit_max_worst, stream.admit_max_ms);
      record.Metric(StringF("decides_per_sec_window_%.0f_shards_%d", window,
                            num_shards),
                    decides_per_sec);
      record.Metric(StringF("admit_mean_ms_window_%.0f_shards_%d", window,
                            num_shards),
                    stream.admit_mean_ms);
      bench::DieOnError(
          table.AddRow({StringF("%.0f", window), StringF("%d", num_shards),
                        StringF("%.0f", decides_per_sec),
                        StringF("%.4f", stream.admit_mean_ms),
                        StringF("%.4f", stream.admit_max_ms),
                        StringF("%lld", static_cast<long long>(
                                            totals.peak_live))}),
          "row");
      bench::Check(fleet.shard_map().live_campaigns() == 0,
                   StringF("window=%.0f shards=%d: every campaign retired",
                           window, num_shards));
    }
  }
  table.Print(std::cout);

  // Streaming admission must not wreck serving throughput: the best
  // churned cell stays within a loose factor of the best closed-fleet
  // cell (the loop does strictly more lifecycle work under churn).
  bench::Check(best_streamed >= 0.2 * best_closed,
               "best churned decides/sec >= 1/5 of best closed-fleet");
  bench::Check(admit_max_worst < 1000.0,
               "admitting under traffic never took a full second");

  record.Metric("admit_mean_ms", admit_mean_worst);
  record.Metric("admit_max_ms", admit_max_worst);

  // ------------------------------------------------------------------ 3.
  // Control-event wave: swaps and retirements mid-run on a churned fleet.
  {
    const std::vector<Spec> specs = MakeSpecs(
        bench::SmokeN(1000, 100), 8.0, rate.bucket_width_hours(), kSeed + 9);
    auto fleet_result = market::FleetSimulator::Create(8);
    bench::DieOnError(fleet_result.status(), "fleet");
    market::FleetSimulator fleet = std::move(fleet_result).value();
    market::ArrivalSchedule schedule =
        MakeSchedule(specs, acceptance, kSeed + 10);
    pricing::FixedPriceSolution fixed;
    fixed.price_cents = 25;
    const auto swap_to = std::make_shared<const engine::PolicyArtifact>(
        engine::PolicyArtifact(fixed));
    for (size_t i = 0; i < specs.size(); ++i) {
      if (i % 5 == 0) {
        bench::DieOnError(
            schedule.SwapArtifactAt(i, specs[i].admit_hours + 1.0, swap_to),
            "schedule swap");
      } else if (i % 7 == 0) {
        bench::DieOnError(
            schedule.RetireAt(i, specs[i].admit_hours + 1.0),
            "schedule retire");
      }
    }
    const auto start = std::chrono::steady_clock::now();
    auto outcomes = fleet.RunStreaming(rate, std::move(schedule));
    bench::DieOnError(outcomes.status(), "control-event run");
    const double elapsed = Seconds(start);
    const market::StreamingStats& stream = fleet.streaming_stats();
    std::cout << StringF(
        "\ncontrol-event wave: %zu campaigns, %llu swaps + %llu event "
        "retirements in %.3f s\n",
        specs.size(), (unsigned long long)stream.swapped,
        (unsigned long long)stream.retired_by_event, elapsed);
    bench::Check(stream.swapped > 0 && stream.retired_by_event > 0,
                 "mid-life swap and retire events applied");
    record.Metric("event_wave_swaps", static_cast<double>(stream.swapped));
    record.Metric("event_wave_retires",
                  static_cast<double>(stream.retired_by_event));
    record.Metric("event_wave_seconds", elapsed);
  }

  bench::DieOnError(record.Write(), "bench record");
  return bench::Finish();
}

// Fleet serving throughput: how fast the sharded serving layer answers
// price lookups, and how the fleet simulator compares to serial
// single-campaign simulation.
//
// Part 1 -- serving plane: admit a fleet of deadline-policy campaigns into
// a CampaignShardMap and hammer DecideBatch, sweeping the shard count.
// Reports decides/second per shard count; the batch pass answers every
// shard on its own pool thread, so throughput should not collapse as
// shards are added (and typically rises until the core count binds).
//
// Part 2 -- simulation plane: play 1000 concurrent campaigns through
// market::FleetSimulator and the same campaigns serially through
// market::RunSimulation, asserting the per-campaign outcomes match
// bit-for-bit (the layer's determinism contract) and reporting both wall
// times.
//
// Emits BENCH_fleet_throughput.json with decides/sec per shard count and
// the fleet-vs-serial wall seconds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "market/controller.h"
#include "market/fleet_simulator.h"
#include "market/simulator.h"
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

engine::PolicyArtifact ServingArtifact(const choice::AcceptanceFunction& acc) {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 60;
  spec.problem.num_intervals = 24;
  spec.problem.penalty_cents = 200.0;
  spec.interval_lambdas.assign(24, 120.0);
  auto actions = pricing::ActionSet::FromPriceGrid(40, acc);
  bench::DieOnError(actions.status(), "action grid");
  spec.actions = std::move(actions).value();
  return bench::SolveOrDie(spec, "serving artifact");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Fleet serving throughput ===\n\n";
  const choice::LogitAcceptance acceptance = choice::LogitAcceptance::Paper2014();
  const engine::PolicyArtifact solved = ServingArtifact(acceptance);

  bench::BenchRecord record("fleet_throughput");
  record.Label("layer", "serving+fleet");

  // ------------------------------------------------------------------ 1.
  const int kCampaigns = bench::SmokeN(2048, 512);
  const int kPasses = bench::SmokeN(40, 4);
  // Each shard count is timed kRepeats times and the best run is reported:
  // the scaling gate below compares ratios between shard counts, so a
  // single descheduled run must not fake a collapse.
  const int kRepeats = bench::SmokeN(5, 3);
  // The scaling checks (and check_bench_json, which re-derives them from
  // this record) are capacity-aware: a 16-shard map cannot beat 6x on a
  // 2-core runner no matter how good the read path is. hw_threads and
  // smoke are recorded so the validator arms the strict gate only where
  // the hardware can honestly express it.
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  record.Param("campaigns", kCampaigns);
  record.Param("batch_passes", kPasses);
  record.Param("timing_repeats", kRepeats);
  record.Param("hw_threads", static_cast<double>(hw_threads));
  record.Param("smoke", bench::Smoke() ? 1.0 : 0.0);

  std::cout << StringF(
      "DecideBatch over %d campaigns, %d passes per shard count\n\n",
      kCampaigns, kPasses);
  const auto shared =
      std::make_shared<const engine::PolicyArtifact>(solved);
  Table table({"shards", "decides/sec", "batch mean ms"});
  std::map<int, double> curve;
  for (int num_shards : {1, 2, 4, 8, 16, 32}) {
    auto map_result = serving::CampaignShardMap::Create(num_shards);
    bench::DieOnError(map_result.status(), "shard map");
    serving::CampaignShardMap map = std::move(map_result).value();

    std::vector<serving::DecideRequest> requests;
    for (int i = 0; i < kCampaigns; ++i) {
      serving::CampaignLimits limits;
      limits.total_tasks = 60;
      limits.deadline_hours = 8.0;
      auto admitted =
          map.Apply(serving::ControlOp::AdmitShared(shared, limits));
      bench::DieOnError(admitted.status(), "admit");
      requests.push_back(serving::DecideRequest::Single(
          admitted->id, (i % 24) / 3.0, 1 + i % 60));
    }

    // Warm-up pass doubles as the correctness check: the batched answers
    // must equal per-campaign serial Decide, bit-for-bit.
    bool identical = true;
    const auto warm = map.DecideBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      auto serial = map.Decide(requests[i].campaign_id, requests[i].request);
      bench::DieOnError(serial.status(), "serial decide");
      identical = identical && warm[i].status.ok() &&
                  warm[i].sheet.num_types() == serial->num_types() &&
                  warm[i].sheet.offers[0].per_task_reward_cents ==
                      serial->offers[0].per_task_reward_cents &&
                  warm[i].sheet.offers[0].group_size ==
                      serial->offers[0].group_size;
    }
    bench::CheckExact(
        identical,
        StringF("shards=%d: DecideBatch == serial Decide bit-for-bit",
                num_shards));

    double best_elapsed = 0.0, decides_per_sec = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        const auto responses = map.DecideBatch(requests);
        if (responses.size() != requests.size()) {
          bench::CheckExact(false, "batch response size");
          break;
        }
      }
      const double elapsed = Seconds(start);
      const double rate = static_cast<double>(kCampaigns) * kPasses / elapsed;
      if (rate > decides_per_sec) {
        decides_per_sec = rate;
        best_elapsed = elapsed;
      }
    }
    curve[num_shards] = decides_per_sec;
    record.Metric(StringF("decides_per_sec_shards_%d", num_shards),
                  decides_per_sec);
    bench::DieOnError(
        table.AddRow({StringF("%d", num_shards),
                      StringF("%.0f", decides_per_sec),
                      StringF("%.3f", best_elapsed * 1000.0 / kPasses)}),
        "row");
  }
  table.Print(std::cout);
  // Scaling gate, mirrored by check_bench_json on this record. Readers on
  // the wait-free path never contend, so adding shards must never *cost*
  // throughput: the curve over {1,2,4,8,16} stays monotone within a noise
  // tolerance, and the 16-shard point beats 1-shard outright -- by 6x when
  // the host has the cores to show it, by staying level (0.9x) when it
  // does not (on a narrow host extra shards only add dispatch overhead, so
  // the pairwise tolerance widens to 0.85 there). The retired
  // mutex-per-shard design fails the level check (it decayed to ~0.4x of
  // single-shard under batch load); the gate is what keeps that regression
  // from silently returning. Smoke mode runs the same shape with a wide
  // tolerance purely to catch collapse: its sizes are too small to time
  // scaling honestly.
  const double tolerance =
      bench::Smoke() ? 0.50 : (hw_threads >= 16 ? 0.92 : 0.85);
  const double head_factor =
      bench::Smoke() ? 0.50 : (hw_threads >= 16 ? 6.0 : 0.90);
  const int gate_shards[] = {1, 2, 4, 8, 16};
  for (size_t i = 0; i + 1 < std::size(gate_shards); ++i) {
    const double prev = curve[gate_shards[i]];
    const double next = curve[gate_shards[i + 1]];
    bench::Check(next >= tolerance * prev,
                 StringF("decides/sec at %d shards >= %.2f x %d shards",
                         gate_shards[i + 1], tolerance, gate_shards[i]));
  }
  bench::Check(curve[16] >= head_factor * curve[1],
               StringF("16-shard decides/sec >= %.2fx single-shard "
                       "(hw_threads=%u)",
                       head_factor, hw_threads));

  // ------------------------------------------------------------------ 2.
  const int kFleet = bench::SmokeN(1000, 100);
  const int kFleetShards = 8;
  record.Param("fleet_campaigns", kFleet);
  record.Param("fleet_shards", kFleetShards);
  auto rate = arrival::PiecewiseConstantRate::Create({50.0, 30.0, 70.0, 40.0},
                                                     1.0);
  bench::DieOnError(rate.status(), "rate");

  std::vector<market::SimulatorConfig> configs;
  for (int i = 0; i < kFleet; ++i) {
    market::SimulatorConfig config;
    config.total_tasks = 5 + i % 12;
    config.horizon_hours = 3.0 + i % 3;
    config.decision_interval_hours = 1.0;
    configs.push_back(config);
  }
  auto price_of = [](int i) { return 10.0 + i % 20; };

  const auto serial_start = std::chrono::steady_clock::now();
  std::vector<market::SimulationResult> serial;
  {
    Rng master(99);
    for (int i = 0; i < kFleet; ++i) {
      Rng child = master.Fork();
      market::FixedOfferController controller(market::Offer{price_of(i), 1});
      auto result = market::RunSimulation(configs[static_cast<size_t>(i)],
                                          *rate, acceptance, controller, child);
      bench::DieOnError(result.status(), "serial simulation");
      serial.push_back(std::move(result).value());
    }
  }
  const double serial_seconds = Seconds(serial_start);

  auto fleet_result = market::FleetSimulator::Create(kFleetShards);
  bench::DieOnError(fleet_result.status(), "fleet");
  market::FleetSimulator fleet = std::move(fleet_result).value();
  {
    Rng master(99);
    for (int i = 0; i < kFleet; ++i) {
      Rng child = master.Fork();
      auto id = fleet.AdmitController(
          std::make_unique<market::FixedOfferController>(
              market::Offer{price_of(i), 1}),
          configs[static_cast<size_t>(i)], acceptance, child);
      bench::DieOnError(id.status(), "fleet admit");
    }
  }
  const auto fleet_start = std::chrono::steady_clock::now();
  auto outcomes = fleet.Run(*rate);
  bench::DieOnError(outcomes.status(), "fleet run");
  const double fleet_seconds = Seconds(fleet_start);

  bool identical = outcomes->size() == serial.size();
  for (size_t i = 0; identical && i < serial.size(); ++i) {
    const market::SimulationResult& got = (*outcomes)[i].result;
    identical = got.total_cost_cents == serial[i].total_cost_cents &&
                got.tasks_assigned == serial[i].tasks_assigned &&
                got.worker_arrivals == serial[i].worker_arrivals &&
                got.completion_time_hours == serial[i].completion_time_hours &&
                got.events.size() == serial[i].events.size();
  }
  bench::CheckExact(identical,
                    StringF("%d-campaign fleet outcomes bit-identical to "
                            "serial RunSimulation",
                            kFleet));
  bench::Check(fleet.shard_map().live_campaigns() == 0,
               "every campaign retired from the serving layer");

  std::cout << StringF(
      "\nfleet of %d campaigns: serial %.3f s, fleet (%d shards) %.3f s\n",
      kFleet, serial_seconds, kFleetShards, fleet_seconds);
  record.Metric("serial_seconds", serial_seconds);
  record.Metric("fleet_seconds", fleet_seconds);
  record.Metric("fleet_decides",
                static_cast<double>(fleet.shard_map().TotalStats().decides));
  bench::DieOnError(record.Write(), "bench record");

  return bench::Finish();
}

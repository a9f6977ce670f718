// Multitype serving throughput: 2-offer sheets through the sharded
// serving layer, plus hot artifact swap on live campaigns.
//
// Part 1 -- sheet serving: admit a fleet of §6 joint-policy campaigns
// into a CampaignShardMap and hammer DecideBatch with 2-type
// DecisionRequests, sweeping the shard count. The warm-up pass doubles as
// the correctness check (batched sheets == serial Decide, offer for
// offer).
//
// Part 2 -- hot swap: re-solve the policy with different penalties and
// SwapArtifact every live campaign while a serving loop keeps batching;
// reports swaps/second and checks the post-swap decisions actually moved
// to the new policy.
//
// Emits BENCH_multitype_serving.json with decides/sec per shard count and
// the swap throughput.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "market/types.h"
#include "serving/campaign_shard_map.h"
#include "util/table.h"

using namespace crowdprice;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

engine::PolicyArtifact SolveJoint(double penalty_1, double penalty_2) {
  engine::MultiTypeSpec spec;
  spec.s1 = 10.0;
  spec.b1 = 1.4;
  spec.s2 = 10.0;
  spec.b2 = 1.0;
  spec.m = 200.0;
  spec.problem.num_tasks_1 = bench::SmokeN(10, 5);
  spec.problem.num_tasks_2 = bench::SmokeN(10, 5);
  spec.problem.num_intervals = 6;
  spec.problem.penalty_1_cents = penalty_1;
  spec.problem.penalty_2_cents = penalty_2;
  spec.problem.max_price_cents = 24;
  spec.problem.price_stride = 4;
  spec.interval_lambdas.assign(6, 30.0);
  return bench::SolveOrDie(spec, "joint multitype artifact");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Multitype sheet serving + hot swap ===\n\n";

  bench::BenchRecord record("multitype_serving");
  record.Label("layer", "serving");
  record.Label("policy", "multitype/joint-dp");

  const auto solved =
      std::make_shared<const engine::PolicyArtifact>(SolveJoint(250.0, 180.0));
  const int tasks_1 = (*solved->multitype_plan())->problem().num_tasks_1;
  const int tasks_2 = (*solved->multitype_plan())->problem().num_tasks_2;

  // ------------------------------------------------------------------ 1.
  const int kCampaigns = bench::SmokeN(1024, 128);
  const int kPasses = bench::SmokeN(40, 4);
  record.Param("campaigns", kCampaigns);
  record.Param("batch_passes", kPasses);
  std::cout << StringF(
      "DecideBatch of 2-offer sheets over %d campaigns, %d passes per "
      "shard count\n\n",
      kCampaigns, kPasses);

  Table table({"shards", "sheets/sec", "batch mean ms"});
  for (int num_shards : {1, 4, 16}) {
    auto map_result = serving::CampaignShardMap::Create(num_shards);
    bench::DieOnError(map_result.status(), "shard map");
    serving::CampaignShardMap map = std::move(map_result).value();

    std::vector<serving::DecideRequest> requests;
    for (int i = 0; i < kCampaigns; ++i) {
      serving::CampaignLimits limits;
      limits.total_tasks = tasks_1 + tasks_2;
      limits.deadline_hours = 6.0;
      auto admitted =
          map.Apply(serving::ControlOp::AdmitShared(solved, limits));
      bench::DieOnError(admitted.status(), "admit");
      serving::DecideRequest request;
      request.campaign_id = admitted->id;
      request.request.now_hours = (i % 6) * 0.9;
      request.request.campaign_hours = request.request.now_hours;
      request.request.remaining = {1 + i % tasks_1, 1 + i % tasks_2};
      requests.push_back(request);
    }

    // Warm-up doubles as the correctness check: batched sheets must equal
    // per-campaign serial Decide, offer for offer.
    bool identical = true;
    const auto warm = map.DecideBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      auto serial = map.Decide(requests[i].campaign_id, requests[i].request);
      bench::DieOnError(serial.status(), "serial decide");
      identical = identical && warm[i].status.ok() &&
                  warm[i].sheet.num_types() == 2 &&
                  serial->num_types() == 2;
      for (int type = 0; identical && type < 2; ++type) {
        identical = warm[i].sheet.offers[static_cast<size_t>(type)]
                            .per_task_reward_cents ==
                    serial->offers[static_cast<size_t>(type)]
                        .per_task_reward_cents;
      }
    }
    bench::CheckExact(identical,
                      StringF("shards=%d: batched 2-offer sheets == serial",
                              num_shards));

    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto responses = map.DecideBatch(requests);
      if (responses.size() != requests.size()) {
        bench::CheckExact(false, "batch response size");
        break;
      }
    }
    const double elapsed = Seconds(start);
    const double sheets_per_sec =
        static_cast<double>(kCampaigns) * kPasses / elapsed;
    record.Metric(StringF("sheets_per_sec_shards_%d", num_shards),
                  sheets_per_sec);
    bench::DieOnError(
        table.AddRow({StringF("%d", num_shards),
                      StringF("%.0f", sheets_per_sec),
                      StringF("%.3f", elapsed * 1000.0 / kPasses)}),
        "row");
  }
  table.Print(std::cout);

  // ------------------------------------------------------------------ 2.
  // Hot swap under live serving: every campaign re-pins to a re-solved
  // policy while a server thread keeps batching sheets.
  const int kSwapCampaigns = bench::SmokeN(512, 64);
  record.Param("swap_campaigns", kSwapCampaigns);
  auto map_result = serving::CampaignShardMap::Create(8);
  bench::DieOnError(map_result.status(), "swap shard map");
  serving::CampaignShardMap map = std::move(map_result).value();
  std::vector<serving::DecideRequest> requests;
  std::vector<serving::CampaignId> ids;
  for (int i = 0; i < kSwapCampaigns; ++i) {
    serving::CampaignLimits limits;
    limits.total_tasks = tasks_1 + tasks_2;
    limits.deadline_hours = 6.0;
    auto admitted =
        map.Apply(serving::ControlOp::AdmitShared(solved, limits));
    bench::DieOnError(admitted.status(), "swap admit");
    ids.push_back(admitted->id);
    serving::DecideRequest request;
    request.campaign_id = admitted->id;
    request.request.campaign_hours = 0.0;
    request.request.remaining = {tasks_1, tasks_2};
    requests.push_back(request);
  }
  const market::OfferSheet before =
      map.Decide(ids[0], requests[0].request).value();

  // A policy with much harsher type-1 penalties prices type 1 visibly
  // differently -- the post-swap check below relies on it.
  const auto resolved = std::make_shared<const engine::PolicyArtifact>(
      SolveJoint(900.0, 60.0));

  std::atomic<bool> stop{false};
  std::thread server([&map, &requests, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)map.DecideBatch(requests);
    }
  });
  const auto swap_start = std::chrono::steady_clock::now();
  for (serving::CampaignId id : ids) {
    bench::DieOnError(
        map.Apply(serving::ControlOp::SwapArtifactShared(id, resolved))
            .status(),
        "swap");
  }
  const double swap_elapsed = Seconds(swap_start);
  stop.store(true, std::memory_order_release);
  server.join();

  const market::OfferSheet after =
      map.Decide(ids[0], requests[0].request).value();
  bench::Check(after.offers[0].per_task_reward_cents >=
                   before.offers[0].per_task_reward_cents,
               "harsher type-1 penalty does not lower the type-1 offer");
  bench::Check(map.TotalStats().swapped ==
                   static_cast<uint64_t>(kSwapCampaigns),
               "every live campaign swapped exactly once");
  const double swaps_per_sec =
      static_cast<double>(kSwapCampaigns) / swap_elapsed;
  std::cout << StringF(
      "\nswapped %d live campaigns under load in %.3f s (%.0f swaps/sec)\n",
      kSwapCampaigns, swap_elapsed, swaps_per_sec);
  record.Metric("swaps_per_sec", swaps_per_sec);
  record.Metric("swap_seconds", swap_elapsed);
  bench::DieOnError(record.Write(), "bench record");

  return bench::Finish();
}

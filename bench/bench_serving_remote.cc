// Remote serving throughput: the network front-end under multi-process
// load.
//
// The in-process benches (bench_fleet_*) measure the serving layer with
// callers in the same address space; this one measures crowdprice_serve's
// wire path end to end: N load-generator *processes* each hold one TCP
// connection to a PricingServer over loopback and stream decide-batch
// frames at a fixed fleet of artifact-backed campaigns, sweeping the
// connection count. For every cell it reports
//   * sheets/second sustained across all connections, and
//   * the p50 / p99 per-batch round-trip latency observed by the clients.
//
// The generators (bench/load_gen.h) are forked before the server exists
// and connect only when their round begins; the parent owns the map, the
// campaigns, and the server.
//
// Emits BENCH_serving_remote.json with the per-cell sweep plus top-level
// p50_ms / p99_ms / sheets_per_sec from the widest cell.

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "load_gen.h"
#include "net/server.h"
#include "serving/campaign_shard_map.h"
#include "util/table.h"

using namespace crowdprice;

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Remote serving: decide latency x connection count ===\n";

  const std::vector<int> conn_counts =
      bench::Smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int batches = bench::SmokeN(400, 40);
  constexpr int kBatchSize = 16;

  // Fork the generator pool before anything spawns a thread (the engine
  // solve and the server both do).
  bench::LoadGenerator generators(conn_counts.back());

  // Parent only from here: solve one artifact, admit the fleet, serve.
  auto map = serving::CampaignShardMap::Create(8);
  bench::DieOnError(map.status(), "shard map");
  bench::RoundConfig round;
  round.batch_size = kBatchSize;
  round.batches = batches;
  bench::AdmitServingFleet(*map, bench::SolveServingArtifact(), &round);

  net::ServerOptions options;
  options.port = 0;
  options.num_workers = 4;
  auto server = net::PricingServer::Create(&map.value(), options);
  bench::DieOnError(server.status(), "server create");
  bench::DieOnError(server->Start(), "server start");
  round.port = server->port();
  std::cout << StringF(
      "%d campaigns, %d-request batches, %d batches per connection\n\n",
      bench::kServingCampaigns, kBatchSize, batches);

  bench::BenchRecord record("serving_remote");
  record.Label("layer", "net+serving");
  record.Param("campaigns", bench::kServingCampaigns);
  record.Param("batch_size", kBatchSize);
  record.Param("batches_per_conn", batches);

  Table table({"conns", "sheets/sec", "p50 ms", "p99 ms", "failures"});
  double final_p50 = 0.0, final_p99 = 0.0, final_sheets_per_sec = 0.0;
  for (const int conns : conn_counts) {
    const bench::RoundResult result = generators.RunRound(round, conns);
    const double p50 = result.latency.QuantileMs(0.50);
    const double p99 = result.latency.QuantileMs(0.99);
    const double sheets_per_sec = result.SheetsPerSec();
    bench::Check(result.failures == 0,
                 StringF("conns=%d: no failed batches", conns));
    bench::Check(
        result.batches_completed == static_cast<int64_t>(conns) * batches,
        StringF("conns=%d: every batch answered", conns));
    record.Metric(StringF("sheets_per_sec_conns_%d", conns), sheets_per_sec);
    record.Metric(StringF("p50_ms_conns_%d", conns), p50);
    record.Metric(StringF("p99_ms_conns_%d", conns), p99);
    bench::DieOnError(
        table.AddRow(
            {StringF("%d", conns), StringF("%.0f", sheets_per_sec),
             StringF("%.3f", p50), StringF("%.3f", p99),
             StringF("%lld", static_cast<long long>(result.failures))}),
        "row");
    final_p50 = p50;
    final_p99 = p99;
    final_sheets_per_sec = sheets_per_sec;
  }
  table.Print(std::cout);

  generators.Stop();
  bench::DieOnError(server->Stop(), "server stop");

  const net::ServerStats stats = server->stats();
  std::cout << StringF(
      "\nserver counters: %llu connections, %llu frames, %llu decides, "
      "%llu protocol errors\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.decide_requests),
      static_cast<unsigned long long>(stats.protocol_errors));
  bench::Check(stats.protocol_errors == 0, "no protocol errors under load");

  // Top-level metrics from the widest cell (max concurrent connections).
  record.Metric("sheets_per_sec", final_sheets_per_sec);
  record.Metric("p50_ms", final_p50);
  record.Metric("p99_ms", final_p99);
  bench::DieOnError(record.Write(), "bench record");
  return bench::Finish();
}

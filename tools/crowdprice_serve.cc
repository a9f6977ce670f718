// crowdprice_serve: the network-facing pricing server.
//
//   crowdprice_serve [--port 7710] [--shards 8] [--workers 4]
//                    [--max-frame-mb 64] [--stats-every 10]
//                    [--auth-token TOKEN]
//                    [--tls-cert PEM --tls-key PEM [--tls-ca PEM]]
//
// Serves the DecisionRequest -> OfferSheet surface of an (initially
// empty) serving::CampaignShardMap over TCP: clients admit, swap, and
// retire campaigns with control frames and price them with decide-batch
// frames (protocol in src/net/wire.h; client in src/net/client.h). Runs
// until SIGINT/SIGTERM, then drains in-flight batches and exits.
// --workers N sets the reactor threads -- each reads, decides and answers
// the decide frames of the connections assigned to it -- and the width of
// the side lane that control and export frames run on.
// --stats-every N prints serving counters every N seconds (0 disables).
// --auth-token requires every connection to hello with the token first.
// --tls-cert/--tls-key switch the wire to TLS; --tls-ca additionally
// demands client certificates (mutual TLS). See net/transport.h for the
// identity model (private CA per fleet, no hostname checks).
//
// --port 0 binds an ephemeral port. Whatever the port, the first stdout
// line is the machine-parseable `PORT <n>` -- launchers (the router's
// test harness, scripts spawning local fleets) read the bound port from
// it instead of racing a log grep.
//
// Exit code 0 on clean shutdown, 1 on user error, 2 when the server
// fails to start (e.g. the port is taken).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "net/server.h"
#include "serving/campaign_shard_map.h"
#include "util/hexfloat.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

// The value of integer flag `name`, or `fallback` when it is absent;
// nullopt when the value is not a base-10 integer in [lo, hi].
std::optional<int> IntFlag(int argc, char** argv, const char* name,
                           int fallback, int lo, int hi) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      const crowdprice::Result<int> value =
          crowdprice::ParseInt<int>(argv[i + 1], name);
      if (!value.ok() || *value < lo || *value > hi) return std::nullopt;
      return *value;
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

void PrintStats(const crowdprice::net::PricingServer& server,
                const crowdprice::serving::CampaignShardMap& map) {
  const crowdprice::net::ServerStats stats = server.stats();
  std::printf(
      "conns=%llu frames=%llu decides=%llu control_ops=%llu "
      "protocol_errors=%llu live_campaigns=%zu\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.decide_requests),
      static_cast<unsigned long long>(stats.control_ops),
      static_cast<unsigned long long>(stats.protocol_errors),
      map.live_campaigns());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: crowdprice_serve [--port N] [--shards N] [--workers N]\n"
          "                        [--max-frame-mb N] [--stats-every SECS]\n"
          "                        [--auth-token TOKEN]\n"
          "                        [--tls-cert PEM --tls-key PEM "
          "[--tls-ca PEM]]\n"
          "  --workers N  reactor threads, each answering its connections'\n"
          "               decides inline; control and export frames run on\n"
          "               a side lane as wide (default 4)\n");
      return 0;
    }
  }
  const std::optional<int> port =
      IntFlag(argc, argv, "--port", 7710, 0, 65535);
  const std::optional<int> shards =
      IntFlag(argc, argv, "--shards", 8, 1, 4096);
  const std::optional<int> workers =
      IntFlag(argc, argv, "--workers", 4, 1, 1024);
  // 4095 MiB is the largest cap whose byte count fits the uint32_t option.
  const std::optional<int> max_frame_mb =
      IntFlag(argc, argv, "--max-frame-mb", 64, 1, 4095);
  const std::optional<int> stats_every =
      IntFlag(argc, argv, "--stats-every", 10, 0, 86400);
  const std::string auth_token = FlagString(argc, argv, "--auth-token", "");
  const std::string tls_cert = FlagString(argc, argv, "--tls-cert", "");
  const std::string tls_key = FlagString(argc, argv, "--tls-key", "");
  const std::string tls_ca = FlagString(argc, argv, "--tls-ca", "");
  if (!port || !shards || !workers || !max_frame_mb || !stats_every) {
    std::fprintf(stderr, "crowdprice_serve: bad flag value\n");
    return 1;
  }

  auto map = crowdprice::serving::CampaignShardMap::Create(*shards);
  if (!map.ok()) {
    std::fprintf(stderr, "crowdprice_serve: %s\n",
                 map.status().ToString().c_str());
    return 1;
  }

  crowdprice::net::ServerOptions options;
  options.port = static_cast<uint16_t>(*port);
  options.num_workers = *workers;
  options.max_frame_bytes = static_cast<uint32_t>(*max_frame_mb) << 20;
  options.auth_token = auth_token;
  options.tls.cert_file = tls_cert;
  options.tls.key_file = tls_key;
  options.tls.ca_file = tls_ca;
  auto server = crowdprice::net::PricingServer::Create(&map.value(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "crowdprice_serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const crowdprice::Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "crowdprice_serve: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  std::printf("PORT %u\n", server->port());
  std::printf(
      "crowdprice_serve listening on port %u (%d shards, %d workers%s%s)\n",
      server->port(), *shards, *workers,
      auth_token.empty() ? "" : ", auth required",
      options.tls.enabled() ? ", tls" : "");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  int ticks = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (*stats_every > 0 && ++ticks >= *stats_every * 5) {
      ticks = 0;
      PrintStats(*server, *map);
    }
  }

  std::printf("crowdprice_serve: draining and shutting down\n");
  const crowdprice::Status stopped = server->Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "crowdprice_serve: %s\n", stopped.ToString().c_str());
    return 2;
  }
  PrintStats(*server, *map);
  return 0;
}

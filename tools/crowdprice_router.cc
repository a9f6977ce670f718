// crowdprice_router: the multi-node routing tier over crowdprice_serve
// backends.
//
//   crowdprice_router --backends 127.0.0.1:7710,127.0.0.1:7711
//                     [--port 7700] [--workers 4] [--max-frame-mb 64]
//                     [--probe-interval-ms 250] [--stats-every 10]
//                     [--auth-token TOKEN]
//                     [--tls-cert PEM --tls-key PEM] [--tls-ca PEM]
//
// Speaks the same frame protocol on both sides: clients connect to the
// router exactly as they would to a single crowdprice_serve, and the
// router shards campaigns across its backends by rendezvous hashing,
// fans decide batches out by owner, health-probes every backend, and
// fails over cleanly (Unavailable, never a crash) when one dies
// (src/router/router.h). --workers N sets the reactor threads, each of
// which forwards the decide batches of its own connections to every
// owning backend and waits for the answers, and the width of the side
// lane that control and export frames run on. --auth-token applies to
// both sides: clients must hello with it, and the router presents it to
// its backends.
//
// TLS also applies to both sides: --tls-cert/--tls-key terminate TLS on
// the router's own port, and --tls-ca makes every backend connection
// TLS (the cert/key pair, when given, is also presented to backends
// that demand client certificates). Mixed fleets are possible -- a TLS
// front over plain backends needs only --tls-cert/--tls-key, a plain
// front over TLS backends only --tls-ca.
//
// --port 0 binds an ephemeral port; the first stdout line is the
// machine-parseable `PORT <n>`, as with crowdprice_serve.
//
// Exit code 0 on clean shutdown, 1 on user error, 2 when the server
// fails to start.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "router/router.h"
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

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void PrintStats(const crowdprice::net::PricingServer& server,
                const crowdprice::router::CampaignRouter& router) {
  const crowdprice::net::ServerStats frames = server.stats();
  const crowdprice::router::RouterStats routed = router.stats();
  size_t backends_up = 0;
  const auto health = router.Health();
  for (const auto& backend : health) {
    if (backend.up) ++backends_up;
  }
  std::printf(
      "conns=%llu frames=%llu decides=%llu control_ops=%llu "
      "unavailable=%llu live_campaigns=%zu backends_up=%zu/%zu "
      "placement_v=%llu migrations=%llu\n",
      static_cast<unsigned long long>(frames.connections_accepted),
      static_cast<unsigned long long>(frames.frames_received),
      static_cast<unsigned long long>(routed.decide_requests),
      static_cast<unsigned long long>(routed.control_ops),
      static_cast<unsigned long long>(routed.unavailable),
      router.live_campaigns(), backends_up, health.size(),
      static_cast<unsigned long long>(router.placement().version()),
      static_cast<unsigned long long>(routed.migrations));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: crowdprice_router --backends HOST:PORT[,HOST:PORT...]\n"
          "                         [--port N] [--workers N]\n"
          "                         [--max-frame-mb N]\n"
          "                         [--probe-interval-ms N]\n"
          "                         [--stats-every SECS]\n"
          "                         [--auth-token TOKEN]\n"
          "                         [--tls-cert PEM --tls-key PEM]\n"
          "                         [--tls-ca PEM]\n"
          "  --workers N  reactor threads, each forwarding its connections'\n"
          "               decide batches to the backends from that thread;\n"
          "               control and export frames run on a side lane as\n"
          "               wide (default 4)\n");
      return 0;
    }
  }
  const std::optional<int> port =
      IntFlag(argc, argv, "--port", 7700, 0, 65535);
  const std::optional<int> workers =
      IntFlag(argc, argv, "--workers", 4, 1, 1024);
  // 4095 MiB is the largest cap whose byte count fits the uint32_t options.
  const std::optional<int> max_frame_mb =
      IntFlag(argc, argv, "--max-frame-mb", 64, 1, 4095);
  // 0 turns the health probes off.
  const std::optional<int> probe_ms =
      IntFlag(argc, argv, "--probe-interval-ms", 250, 0, 3600000);
  const std::optional<int> stats_every =
      IntFlag(argc, argv, "--stats-every", 10, 0, 86400);
  const std::string auth_token = FlagString(argc, argv, "--auth-token", "");
  const std::string tls_cert = FlagString(argc, argv, "--tls-cert", "");
  const std::string tls_key = FlagString(argc, argv, "--tls-key", "");
  const std::string tls_ca = FlagString(argc, argv, "--tls-ca", "");
  const std::vector<std::string> backends =
      SplitCommas(FlagString(argc, argv, "--backends", ""));
  if (!port || !workers || !max_frame_mb || !probe_ms || !stats_every) {
    std::fprintf(stderr, "crowdprice_router: bad flag value\n");
    return 1;
  }
  if (backends.empty()) {
    std::fprintf(stderr,
                 "crowdprice_router: --backends is required "
                 "(comma-separated host:port list)\n");
    return 1;
  }

  crowdprice::router::RouterOptions router_options;
  router_options.pool.client.max_frame_bytes =
      static_cast<uint32_t>(*max_frame_mb) << 20;
  router_options.pool.client.auth_token = auth_token;
  if (!tls_ca.empty()) {
    router_options.pool.client.tls.ca_file = tls_ca;
    // Present the router's own identity to backends that demand client
    // certificates.
    router_options.pool.client.tls.cert_file = tls_cert;
    router_options.pool.client.tls.key_file = tls_key;
  }
  router_options.pool.probe_interval_ms = *probe_ms;
  auto router =
      crowdprice::router::CampaignRouter::Create(backends, router_options);
  if (!router.ok()) {
    std::fprintf(stderr, "crowdprice_router: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }

  crowdprice::net::ServerOptions options;
  options.port = static_cast<uint16_t>(*port);
  options.num_workers = *workers;
  options.max_frame_bytes = static_cast<uint32_t>(*max_frame_mb) << 20;
  options.auth_token = auth_token;
  // The router's own port terminates TLS with cert/key only; demanding
  // client certificates of pricing clients is a frame-auth job
  // (--auth-token), not a transport one.
  options.tls.cert_file = tls_cert;
  options.tls.key_file = tls_key;
  auto server =
      crowdprice::net::PricingServer::Create(&router.value(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "crowdprice_router: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const crowdprice::Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "crowdprice_router: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  std::printf("PORT %u\n", server->port());
  std::printf(
      "crowdprice_router listening on port %u (%zu backends, %d "
      "workers%s%s%s)\n",
      server->port(), backends.size(), *workers,
      auth_token.empty() ? "" : ", auth required",
      options.tls.enabled() ? ", tls front" : "",
      tls_ca.empty() ? "" : ", tls backends");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  int ticks = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (*stats_every > 0 && ++ticks >= *stats_every * 5) {
      ticks = 0;
      PrintStats(*server, *router);
    }
  }

  std::printf("crowdprice_router: draining and shutting down\n");
  const crowdprice::Status stopped = server->Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "crowdprice_router: %s\n",
                 stopped.ToString().c_str());
    return 2;
  }
  PrintStats(*server, *router);
  return 0;
}

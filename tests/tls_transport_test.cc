// TLS transport: the full failure-mode matrix from ISSUE -- handshake
// success serves bit-exact decides, a wrong CA and an expired
// certificate are Unauthenticated at Connect, a plaintext client
// against a TLS server (and the reverse) fails with a clean Status and
// never hangs, mutual TLS demands the client certificate, and
// Reconnect re-runs the TLS handshake. Certificates are minted
// in-process (tests/tls_test_util.h); every test skips cleanly on a
// build without OpenSSL.

#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/tls_transport.h"
#include "serving/campaign_shard_map.h"
#include "tls_test_util.h"

namespace crowdprice::net {
namespace {

#if CROWDPRICE_HAVE_OPENSSL

engine::PolicyArtifact SmallDeadlineArtifact() {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 8;
  spec.problem.penalty_cents = 150.0;
  spec.interval_lambdas.assign(8, 60.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(
                     30, choice::LogitAcceptance::Paper2014())
                     .value();
  return engine::Engine::Solve(spec).value();
}

serving::CampaignLimits SmallLimits() {
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  return limits;
}

/// One TLS server over a fresh map, with `identity` as its certificate.
/// Tests must ASSERT_TRUE(harness.ok()) before using it.
struct TlsHarness {
  TlsHarness(const tls_test::TestIdentity& identity,
             const std::string& client_ca_file = "") {
    map = std::make_unique<serving::CampaignShardMap>(
        serving::CampaignShardMap::Create(2).value());
    ServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.tls.cert_file = identity.cert_file;
    options.tls.key_file = identity.key_file;
    options.tls.ca_file = client_ca_file;  // non-empty => mutual TLS
    auto created = PricingServer::Create(map.get(), options);
    if (!created.ok()) {
      ADD_FAILURE() << created.status();
      return;
    }
    server = std::make_unique<PricingServer>(std::move(created).value());
    started = server->Start().ok();
  }

  bool ok() const { return server != nullptr && started; }

  ~TlsHarness() {
    if (server != nullptr && server->running()) {
      const Status stopped = server->Stop();
      static_cast<void>(stopped);
    }
  }

  std::unique_ptr<serving::CampaignShardMap> map;
  std::unique_ptr<PricingServer> server;
  bool started = false;
};

ClientOptions TrustingClient(const std::string& ca_file) {
  ClientOptions options;
  options.tls.ca_file = ca_file;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 5000;
  return options;
}

TEST(TlsTransportTest, BadMaterialFailsAtCreateNotStart) {
  ASSERT_TRUE(TlsSupported());
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.tls.cert_file = "/nonexistent/cert.pem";
  options.tls.key_file = "/nonexistent/key.pem";
  const auto server = PricingServer::Create(&map.value(), options);
  ASSERT_FALSE(server.ok());
  EXPECT_TRUE(server.status().IsInvalidArgument()) << server.status();

  // Cert without key is a configuration error too.
  tls_test::TestCa ca;
  const tls_test::TestIdentity leaf = ca.MintLeaf("server");
  ServerOptions half;
  half.tls.cert_file = leaf.cert_file;
  const auto half_server = PricingServer::Create(&map.value(), half);
  ASSERT_FALSE(half_server.ok());
  EXPECT_TRUE(half_server.status().IsInvalidArgument())
      << half_server.status();

  // A TLS client with no CA has nothing to verify the server against.
  ClientOptions client_options;
  client_options.tls.cert_file = leaf.cert_file;
  client_options.tls.key_file = leaf.key_file;
  const auto client =
      PricingClient::Connect("127.0.0.1", 7710, client_options);
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsInvalidArgument()) << client.status();
}

TEST(TlsTransportTest, HandshakeSucceedsAndServesBitExactDecides) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  TlsHarness harness(ca.MintLeaf("server"));
  ASSERT_TRUE(harness.ok());
  auto client = PricingClient::Connect("127.0.0.1", harness.server->port(),
                                       TrustingClient(ca.ca_file()));
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto id = client->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(id.ok()) << id.status();
  std::vector<serving::DecideRequest> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(
        serving::DecideRequest::Single(*id, 0.5 * (i % 8), 1 + i % 20));
  }
  const auto responses = client->DecideBatch(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE((*responses)[i].status.ok()) << (*responses)[i].status;
    const auto direct = harness.map->Decide(*id, batch[i].request);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ((*responses)[i].sheet.offers.size(), direct->offers.size());
    for (size_t o = 0; o < direct->offers.size(); ++o) {
      EXPECT_EQ((*responses)[i].sheet.offers[o].per_task_reward_cents,
                direct->offers[o].per_task_reward_cents);
    }
  }
  EXPECT_EQ(harness.server->stats().tls_handshake_failures, 0u);
}

TEST(TlsTransportTest, WritingToAVanishedPeerFailsWithoutSigpipe) {
  // OpenSSL writes with write(2), which raises SIGPIPE once the peer has
  // gone; left to its default action that signal kills the whole server.
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  const tls_test::TestIdentity leaf = ca.MintLeaf("server");
  TlsOptions server_tls;
  server_tls.cert_file = leaf.cert_file;
  server_tls.key_file = leaf.key_file;
  TlsOptions client_tls;
  client_tls.ca_file = ca.ca_file();
  auto server_factory = MakeTlsServerTransportFactory(server_tls);
  auto client_factory = MakeTlsClientTransportFactory(client_tls);
  ASSERT_TRUE(server_factory.ok()) << server_factory.status();
  ASSERT_TRUE(client_factory.ok()) << client_factory.status();
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  std::unique_ptr<Transport> server = (*server_factory)->Wrap(fds[0]);
  std::unique_ptr<Transport> client = (*client_factory)->Wrap(fds[1]);
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);
  for (int step = 0; step < 100 && !(server->ready() && client->ready());
       ++step) {
    client->Handshake();
    server->Handshake();
  }
  ASSERT_TRUE(server->ready() && client->ready());

  client.reset();  // The peer vanishes without a close_notify.
  const std::string payload(4096, 'x');
  const IoResult wrote = server->Write(payload.data(), payload.size());
  EXPECT_NE(wrote.outcome, IoOutcome::kOk);
  server->Shutdown();  // Its close_notify must not raise SIGPIPE either.
}

TEST(TlsTransportTest, WrongCaIsUnauthenticated) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa server_ca;
  tls_test::TestCa other_ca;
  TlsHarness harness(server_ca.MintLeaf("server"));
  ASSERT_TRUE(harness.ok());
  const auto client =
      PricingClient::Connect("127.0.0.1", harness.server->port(),
                             TrustingClient(other_ca.ca_file()));
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsUnauthenticated()) << client.status();
}

TEST(TlsTransportTest, ExpiredCertificateIsUnauthenticated) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  TlsHarness harness(ca.MintLeaf("expired", /*not_before_secs=*/-7200,
                                 /*not_after_secs=*/-3600));
  ASSERT_TRUE(harness.ok());
  const auto client = PricingClient::Connect(
      "127.0.0.1", harness.server->port(), TrustingClient(ca.ca_file()));
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsUnauthenticated()) << client.status();
  EXPECT_NE(client.status().message().find("expired"), std::string::npos)
      << client.status();
}

TEST(TlsTransportTest, PlaintextClientAgainstTlsServerFailsCleanly) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  TlsHarness harness(ca.MintLeaf("server"));
  ASSERT_TRUE(harness.ok());

  // A plain-TCP client: the dial succeeds (TCP accepts), but its first
  // frame reads as a broken TLS record -- the server must fail that one
  // handshake, count it, and keep serving everyone else.
  ClientOptions plain;
  plain.connect_timeout_ms = 5000;
  plain.io_timeout_ms = 2000;
  auto client = PricingClient::Connect("127.0.0.1", harness.server->port(),
                                       plain);
  if (client.ok()) {
    const auto start = std::chrono::steady_clock::now();
    const Status pong = client->Ping();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(pong.ok());
    EXPECT_TRUE(pong.IsUnavailable()) << pong;
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
        10);
  } else {
    EXPECT_TRUE(client.status().IsUnavailable()) << client.status();
  }

  // The failure was that connection's alone: a proper TLS client works,
  // and the failure is visible in the stats.
  auto tls_client = PricingClient::Connect(
      "127.0.0.1", harness.server->port(), TrustingClient(ca.ca_file()));
  ASSERT_TRUE(tls_client.ok()) << tls_client.status();
  EXPECT_TRUE(tls_client->Ping().ok());
  EXPECT_GE(harness.server->stats().tls_handshake_failures, 1u);
}

TEST(TlsTransportTest, TlsClientAgainstPlainServerFailsCleanly) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  const auto start = std::chrono::steady_clock::now();
  const auto client = PricingClient::Connect("127.0.0.1", server->port(),
                                             TrustingClient(ca.ca_file()));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsUnavailable()) << client.status();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
  ASSERT_TRUE(server->Stop().ok());
}

TEST(TlsTransportTest, MutualTlsDemandsTheClientCertificate) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  TlsHarness harness(ca.MintLeaf("server"), /*client_ca_file=*/ca.ca_file());
  ASSERT_TRUE(harness.ok());

  // No client certificate: the handshake (or, under TLS 1.3, the first
  // round trip) must fail -- never serve.
  auto bare = PricingClient::Connect("127.0.0.1", harness.server->port(),
                                     TrustingClient(ca.ca_file()));
  if (bare.ok()) {
    EXPECT_FALSE(bare->Ping().ok());
  } else {
    EXPECT_FALSE(bare.status().ok());
  }

  // With a CA-signed client certificate the same dial serves.
  const tls_test::TestIdentity client_identity = ca.MintLeaf("client");
  ClientOptions with_cert = TrustingClient(ca.ca_file());
  with_cert.tls.cert_file = client_identity.cert_file;
  with_cert.tls.key_file = client_identity.key_file;
  auto client = PricingClient::Connect("127.0.0.1", harness.server->port(),
                                       with_cert);
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(harness.server->stats().tls_handshake_failures, 1u);
}

TEST(TlsTransportTest, ReconnectRerunsTheTlsHandshake) {
  ASSERT_TRUE(TlsSupported());
  tls_test::TestCa ca;
  TlsHarness harness(ca.MintLeaf("server"));
  ASSERT_TRUE(harness.ok());
  auto client = PricingClient::Connect("127.0.0.1", harness.server->port(),
                                       TrustingClient(ca.ca_file()));
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());
  client->Close();
  EXPECT_FALSE(client->connected());
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_TRUE(client->Ping().ok());
}

#else  // !CROWDPRICE_HAVE_OPENSSL

TEST(TlsTransportTest, TlsConfigurationIsUnimplementedWithoutOpenSsl) {
  ASSERT_FALSE(TlsSupported());
  ClientOptions options;
  options.tls.ca_file = "/nonexistent/ca.pem";
  const auto client = PricingClient::Connect("127.0.0.1", 7710, options);
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsUnimplemented()) << client.status();
}

#endif  // CROWDPRICE_HAVE_OPENSSL

}  // namespace
}  // namespace crowdprice::net

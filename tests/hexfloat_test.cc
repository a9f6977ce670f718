// Pins the library's text format. util/hexfloat's FormatHex must print the
// bytes glibc's printf %a conversion prints, and its parsers must read every
// non-NaN value back bit-for-bit. A small deadline artifact and a decide batch
// must still serialize to the exact texts older builds wrote, so committed
// artifacts and mixed-version wire peers keep working.

#include "util/hexfloat.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "engine/policy_artifact.h"
#include "net/wire.h"
#include "pricing/plan.h"
#include "util/rng.h"

namespace crowdprice {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("CROWDPRICE_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    const Result<uint64_t> seed = ParseInt<uint64_t>(env, "test seed");
    if (seed.ok()) return *seed;
  }
  return 2026;
}

std::string Printf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(HexFloatTest, FormatMatchesPrintfOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const double v : {0.0, -0.0, denorm, -denorm, DBL_MIN, -DBL_MIN,
                         DBL_MAX, -DBL_MAX, inf, -inf, nan, -nan, 1.0, 0.1}) {
    EXPECT_EQ(FormatHex(v), Printf(v));
  }
  EXPECT_EQ(FormatHex(-0.0), "-0x0p+0");
  EXPECT_EQ(FormatHex(denorm), "0x0.0000000000001p-1022");
}

TEST(HexFloatTest, FormatMatchesPrintfAndRoundTripsOnRandomBits) {
  Rng rng(TestSeed());
  for (int i = 0; i < (1 << 20); ++i) {
    const uint64_t bits = rng.NextUint64();
    const double v = std::bit_cast<double>(bits);
    const std::string text = FormatHex(v);
    ASSERT_EQ(text, Printf(v)) << "bits " << bits;
    if (std::isnan(v)) continue;
    const Result<double> back = ParseDouble(text, "value");
    ASSERT_TRUE(back.ok()) << text << ": " << back.status();
    ASSERT_EQ(std::bit_cast<uint64_t>(*back), bits) << text;
  }
}

TEST(HexFloatTest, ParsersAcceptWhatStrtodAndStrtolAccepted) {
  EXPECT_EQ(ParseDouble("+1.5", "x").value(), 1.5);
  EXPECT_EQ(ParseDouble("-0x1p+0", "x").value(), -1.0);
  EXPECT_EQ(ParseDouble("0X1P-2", "x").value(), 0.25);
  EXPECT_EQ(ParseDouble(".5", "x").value(), 0.5);
  EXPECT_EQ(ParseDouble("1e3", "x").value(), 1000.0);
  EXPECT_EQ(ParseDouble("inf", "x").value(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(ParseDouble("-inf", "x").value(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(ParseDouble("nan", "x").value()));
  EXPECT_TRUE(std::signbit(ParseDouble("-nan", "x").value()));
  EXPECT_TRUE(std::signbit(ParseDouble("-0x0p+0", "x").value()));
  EXPECT_EQ(ParseInt<int>("+7", "x").value(), 7);
  EXPECT_EQ(ParseInt<int>("-7", "x").value(), -7);
  EXPECT_EQ(ParseInt<int64_t>("-9223372036854775808", "x").value(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseInt<uint64_t>("18446744073709551615", "x").value(),
            std::numeric_limits<uint64_t>::max());
}

TEST(HexFloatTest, ParsersRejectPartialAndOutOfRangeTokens) {
  for (const char* bad : {"", "+", "-", "1x", "0x", "0x.", "0xinf", "0x-1p0",
                          "--1", "+-1", "1e", "0x1p", " 1", "1 ", "1e999",
                          "-1e999", "1e-400", "0x1p-1075", "0x1p+1024"}) {
    EXPECT_TRUE(ParseDouble(bad, "x").status().IsInvalidArgument()) << bad;
  }
  for (const char* bad : {"", "+", "-", "++1", "+-1", "1.0", "0x10", " 1",
                          "4294967297", "2147483648"}) {
    EXPECT_TRUE(ParseInt<int>(bad, "x").status().IsInvalidArgument()) << bad;
  }
  EXPECT_TRUE(ParseInt<int64_t>("99999999999999999999999", "x")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseInt<uint64_t>("-1", "x").status().IsInvalidArgument());
}

TEST(HexFloatTest, TokensAndLinesAreViewsOfTheText) {
  const std::vector<std::string_view> tokens = Tokens("  a\tbb \r ccc  ");
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a", "bb", "ccc"}));
  EXPECT_TRUE(Tokens("a b", 3, "line").status().IsInvalidArgument());

  const std::string text = "one\n\nblock-bytes tail";
  LineReader reader(text, "sample");
  EXPECT_EQ(reader.Next("first").value(), "one");
  EXPECT_EQ(reader.Next("second").value(), "");
  EXPECT_EQ(reader.Bytes(11, "block").value(), "block-bytes");
  EXPECT_TRUE(reader.ExpectEnd("sample").IsInvalidArgument());
  EXPECT_EQ(reader.Rest(), " tail");
  EXPECT_EQ(reader.Next("tail").value(), " tail");
  EXPECT_TRUE(reader.ExpectEnd("sample").ok());
  const Status truncated = reader.Next("more").status();
  EXPECT_TRUE(truncated.IsInvalidArgument());
  EXPECT_EQ(truncated.message(), "sample truncated: expected more");
}

// --- Pinned texts ----------------------------------------------------------
// Written by earlier builds; committed artifacts and older wire peers depend
// on these bytes, so a codec change must reproduce them exactly.

/// A hand-built deadline artifact (no solve, so no kernel or libm in the
/// way): every byte of its text is fixed by the values below.
engine::PolicyArtifact PinnedArtifact() {
  pricing::DeadlineProblem problem;
  problem.num_tasks = 2;
  problem.num_intervals = 2;
  problem.penalty_cents = 150.0;
  problem.extra_penalty_alpha = 0.5;
  problem.truncation_epsilon = 1e-10;
  pricing::ActionSet actions =
      pricing::ActionSet::FromActions(
          {{12.5, 1, 0.125}, {1.0 / 3.0, 3, 0.3}, {40.0, 1, 0.875}})
          .value();
  pricing::DeadlinePlan plan(problem, std::move(actions), {60.0, 0.1});
  plan.SetActionIndex(1, 0, 0);
  plan.SetActionIndex(1, 1, 2);
  plan.SetActionIndex(2, 0, 1);
  plan.SetActionIndex(2, 1, -1);
  const double opt[3][3] = {
      {0.0, 0.0, 0.0},
      {1.0 / 3.0, std::numeric_limits<double>::denorm_min(), 150.0},
      {-0.0, std::numeric_limits<double>::min(), 1e300}};
  for (int n = 0; n <= 2; ++n) {
    for (int t = 0; t <= 2; ++t) plan.SetOpt(n, t, opt[n][t]);
  }
  return engine::PolicyArtifact(
      engine::DeadlinePolicy{std::move(plan), 150.0, 3, std::nullopt});
}

constexpr char kPinnedArtifact[] =
    "crowdprice-artifact v1\n"
    "kind deadline-dp\n"
    "deadline-meta 0x1.2cp+7 3\n"
    "crowdprice-plan v1\n"
    "problem 2 2 0x1.2cp+7 0x1p-1 0x1.b7cdfd9d7bdbbp-34\n"
    "lambdas 0x1.ep+5 0x1.999999999999ap-4\n"
    "actions 3\n"
    "0x1.9p+3 1 0x1p-3\n"
    "0x1.5555555555555p-2 3 0x1.3333333333333p-2\n"
    "0x1.4p+5 1 0x1.cp-1\n"
    "policy\n"
    "0 2\n"
    "1 -1\n"
    "opt\n"
    "0x0p+0 0x0p+0 0x0p+0\n"
    "0x1.5555555555555p-2 0x0.0000000000001p-1022 0x1.2cp+7\n"
    "-0x0p+0 0x1p-1022 0x1.7e43c8800759cp+996\n";

std::vector<serving::DecideRequest> PinnedRequests() {
  serving::DecideRequest multi;
  multi.campaign_id = 4;
  multi.request.now_hours = 1.25;
  multi.request.campaign_hours = 0.1;
  multi.request.remaining = {5, 0, 123456789012345};
  return {serving::DecideRequest::Single(7, 1.0 / 3.0, 12), multi};
}

constexpr char kPinnedRequests[] =
    "decide-batch 2\n"
    "request 7 0x1.5555555555555p-2 0x1.5555555555555p-2 1 12\n"
    "request 4 0x1.4p+0 0x1.999999999999ap-4 3 5 0 123456789012345\n";

std::vector<serving::DecideResponse> PinnedResponses() {
  std::vector<serving::DecideResponse> responses(4);
  responses[0].campaign_id = 7;
  responses[0].sheet = market::OfferSheet::Single({12.75, 1});
  responses[1].campaign_id = 4;
  responses[1].sheet.offers = {{0.1, 3}, {2.0 / 3.0, 1}};
  responses[2].campaign_id = 9;
  responses[2].status = Status::NotFound("campaign 9 is not live");
  responses[3].campaign_id = 11;
  responses[3].status = Status::Unavailable("two  spaces\nand \\ escapes");
  return responses;
}

constexpr char kPinnedResponses[] =
    "decide-batch 4\n"
    "response 7 ok 1 0x1.98p+3 1\n"
    "response 4 ok 2 0x1.999999999999ap-4 3 0x1.5555555555555p-1 1\n"
    "response 9 err 4 campaign 9 is not live\n"
    "response 11 err 8 two  spaces\\nand \\\\ escapes\n";

TEST(PinnedTextTest, DeadlineArtifactSerializesToThePinnedText) {
  EXPECT_EQ(PinnedArtifact().Serialize().value(), kPinnedArtifact);
  const auto reloaded = engine::PolicyArtifact::Deserialize(kPinnedArtifact);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize().value(), kPinnedArtifact);
}

TEST(PinnedTextTest, DecideBatchSerializesToThePinnedText) {
  EXPECT_EQ(net::SerializeDecideBatchRequest(PinnedRequests()),
            kPinnedRequests);
  EXPECT_EQ(net::SerializeDecideBatchResponse(PinnedResponses()),
            kPinnedResponses);
  const auto requests = net::DeserializeDecideBatchRequest(kPinnedRequests);
  ASSERT_TRUE(requests.ok()) << requests.status();
  EXPECT_EQ(net::SerializeDecideBatchRequest(*requests), kPinnedRequests);
  const auto responses = net::DeserializeDecideBatchResponse(kPinnedResponses);
  ASSERT_TRUE(responses.ok()) << responses.status();
  EXPECT_EQ(net::SerializeDecideBatchResponse(*responses), kPinnedResponses);
}

}  // namespace
}  // namespace crowdprice

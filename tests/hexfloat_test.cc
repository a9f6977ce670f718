// Pins the library's text format. util/hexfloat's FormatHex must print the
// bytes glibc's printf %a conversion prints, and its parsers must read every
// non-NaN value back bit-for-bit. One small artifact of every kind, every
// control and export payload form, and a decide batch must still serialize to
// the exact texts older builds wrote, so committed artifacts and mixed-version
// wire peers keep working. The deadline and multitype kinds now write their
// policy only; their legacy texts, cost-to-go section included, must still
// decode to the same policy.

#include "util/hexfloat.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "engine/policy_artifact.h"
#include "net/wire.h"
#include "pricing/plan.h"
#include "util/rng.h"
#include "util/stringf.h"

#include "pinned_texts.h"

namespace crowdprice {
namespace {

using namespace pinned;

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

/// ParseDouble as it was before the canonical fast path, std::from_chars
/// for every token: the reference the fast path must agree with.
Result<double> ReferenceParseDouble(std::string_view token, const char* what) {
  const auto bad = [&](const char* kind) {
    return Status::InvalidArgument(StringF("%s: %s '%.*s'", what, kind,
                                           static_cast<int>(token.size()),
                                           token.data()));
  };
  std::string_view body = token;
  bool negative = false;
  if (!body.empty() && (body[0] == '+' || body[0] == '-')) {
    negative = body[0] == '-';
    body.remove_prefix(1);
  }
  std::chars_format format = std::chars_format::general;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    body.remove_prefix(2);
    format = std::chars_format::hex;
    const char c = body[0];
    const bool hex_digit = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                           (c >= 'A' && c <= 'F');
    if (!hex_digit && c != '.') return bad("bad number");
  }
  if (body.empty() || body[0] == '+' || body[0] == '-') {
    return bad("bad number");
  }
  double value = 0.0;
  const std::from_chars_result parsed =
      std::from_chars(body.data(), body.data() + body.size(), value, format);
  if (parsed.ec == std::errc::result_out_of_range) {
    return bad("number out of range");
  }
  if (parsed.ec != std::errc() || parsed.ptr != body.data() + body.size()) {
    return bad("bad number");
  }
  return negative ? -value : value;
}

/// Parses `text` both ways from an exactly sized heap copy with no
/// terminator, so a read past the token is an AddressSanitizer error.
/// Returns a description of the difference, or "" if they agree on
/// ok/error, the error message and the bits.
std::string CompareWithReference(std::string_view text) {
  const std::unique_ptr<char[]> bytes(new char[text.size()]);
  if (!text.empty()) std::memcpy(bytes.get(), text.data(), text.size());
  const std::string_view token(bytes.get(), text.size());
  const Result<double> got = ParseDouble(token, "v");
  const Result<double> want = ReferenceParseDouble(token, "v");
  if (got.ok() != want.ok()) {
    return StringF("'%s': ok %d, reference ok %d", std::string(text).c_str(),
                   got.ok(), want.ok());
  }
  if (!got.ok()) {
    if (got.status().message() == want.status().message()) return "";
    return StringF("'%s': %s vs reference %s", std::string(text).c_str(),
                   got.status().message().c_str(),
                   want.status().message().c_str());
  }
  if (std::bit_cast<uint64_t>(*got) == std::bit_cast<uint64_t>(*want)) {
    return "";
  }
  return StringF("'%s': %a vs reference %a", std::string(text).c_str(), *got,
                 *want);
}

/// A double whose FormatHex text the fast path reads: a normal (its
/// exponent now and then at an edge of the normal range), a subnormal or a
/// signed zero, with 0-13 trailing fraction digits cleared so every digit
/// count occurs.
double CanonicalSample(Rng& rng, int i) {
  uint64_t bits = rng.NextUint64() & ~(uint64_t{0x7ff} << 52);
  const uint64_t fraction_bits = (uint64_t{1} << 52) - 1;
  static constexpr uint64_t kEdgeExponents[] = {1, 2, 1022, 1023, 1024,
                                                2045, 2046};
  switch (i % 4) {
    case 0:
      bits |= static_cast<uint64_t>(rng.UniformInt(1, 2046)) << 52;
      break;
    case 1:
      bits |= kEdgeExponents[rng.UniformInt(0, std::size(kEdgeExponents) - 1)]
              << 52;
      break;
    case 2:
      break;  // subnormal
    default:
      bits &= ~fraction_bits;  // zero
  }
  const int cleared = static_cast<int>(rng.UniformInt(0, 13));
  bits &= ~((uint64_t{1} << (4 * cleared)) - 1) | ~fraction_bits;
  return std::bit_cast<double>(bits);
}

TEST(HexFloatTest, CanonicalFastPathAgreesWithTheGeneralParser) {
  std::vector<std::string> texts = {
      "0x1p+1023",           "0x1p+1024",
      "0x1p-1023",           "0x1p-1074",
      "0x1p-1075",           "0x0.00000000000008p-1022",
      "0x1.0000000000000p+0", "0x1.00000000000000p+0",
      "0x1.p+0",             "0x1p+00001",
      "0x0p-1022",           "0x1.fffffffffffff8p+1023",
      "0x1.Ap+0"};
  Rng rng(TestSeed());
  for (int i = 0; i < (1 << 12); ++i) {
    texts.push_back(FormatHex(CanonicalSample(rng, i)));
  }
  static constexpr char kInserts[] = "018fFpP+-.xX ";
  size_t tokens = 0;
  size_t mismatches = 0;
  const auto check = [&](std::string_view token) {
    ++tokens;
    const std::string diff = CompareWithReference(token);
    if (!diff.empty() && ++mismatches <= 20) ADD_FAILURE() << diff;
  };
  // `text` with `erase` bytes at `at` replaced by `put`.
  const auto edited = [](const std::string& text, size_t at, size_t erase,
                         std::string_view put) {
    std::string out(text, 0, at);
    out += put;
    out.append(text, at + erase);
    return out;
  };
  for (const std::string& text : texts) {
    for (size_t i = 0; i <= text.size(); ++i) {
      check(std::string_view(text).substr(0, i));
      for (const char c : std::string_view(kInserts)) {
        check(edited(text, i, 0, std::string_view(&c, 1)));
        if (i < text.size()) check(edited(text, i, 1, std::string_view(&c, 1)));
      }
      if (i == text.size()) continue;
      check(edited(text, i, 1, ""));
      check(edited(text, i, 0, std::string_view(&text[i], 1)));
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << tokens << " tokens";
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
// on these bytes, so a codec change must reproduce them exactly. The artifact
// texts live in pinned_texts.h.

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
  return engine::PolicyArtifact(
      engine::DeadlinePolicy{std::move(plan), 150.0, 3, std::nullopt});
}

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

/// One hand-built artifact of every other kind, with the same care: values
/// chosen to hit signs, subnormals, infinities and large integers.
engine::PolicyArtifact PinnedBudgetArtifact() {
  pricing::StaticPriceAssignment assignment;
  assignment.allocations = {{12, 30}, {7, 123456789012}, {0, 1}};
  assignment.expected_worker_arrivals = 1.0 / 3.0;
  assignment.total_cost_cents = 1e300;
  return engine::PolicyArtifact(std::move(assignment));
}

engine::PolicyArtifact PinnedFixedArtifact() {
  pricing::FixedPriceSolution fixed;
  fixed.price_cents = 77;
  fixed.expected_remaining = 0.1;
  fixed.prob_finish = std::numeric_limits<double>::denorm_min();
  fixed.expected_cost_cents = -0.0;
  return engine::PolicyArtifact(fixed);
}

engine::PolicyArtifact PinnedTradeoffArtifact(bool with_curve) {
  pricing::TradeoffSolution solution;
  solution.price_cents = 15;
  solution.objective_per_task = 1.5;
  solution.expected_latency_per_task = 1.0 / 3.0;
  if (with_curve) {
    solution.objective_curve = {std::numeric_limits<double>::infinity(), 0.25,
                                2.0 / 3.0};
  }
  return engine::PolicyArtifact(std::move(solution));
}

engine::PolicyArtifact PinnedMultiTypeArtifact() {
  pricing::MultiTypeProblem problem;
  problem.num_tasks_1 = 1;
  problem.num_tasks_2 = 1;
  problem.num_intervals = 2;
  problem.penalty_1_cents = 130.5;
  problem.penalty_2_cents = 110.25;
  problem.max_price_cents = 16;
  problem.price_stride = 4;
  pricing::MultiTypePlan plan(problem, {21.5, 0.1});
  for (size_t i = 0; i < plan.policy().size(); ++i) {
    plan.policy()[i] = i == 0 ? -1 : static_cast<int32_t>(4096 * i + 8);
  }
  return engine::PolicyArtifact(std::move(plan));
}

engine::PolicyArtifact PinnedAdaptiveArtifact() {
  pricing::DeadlineProblem problem;
  problem.num_tasks = 3;
  problem.num_intervals = 2;
  problem.penalty_cents = 140.5;
  problem.extra_penalty_alpha = 1.25;
  pricing::AdaptiveOptions options;
  options.resolve_every = 2;
  options.prior_weight = 0.375;
  options.min_factor = 0.5;
  options.max_factor = 3.0;
  options.dp_options.monotone_price_search = true;
  options.dp_options.time_monotonicity_pruning = false;
  options.dp_options.num_threads = 3;
  return engine::PolicyArtifact(engine::AdaptivePolicy{
      problem, {210.0, 0.1},
      pricing::ActionSet::FromActions({{10.0, 1, 0.125}, {1.0 / 3.0, 3, 0.3}})
          .value(),
      10.0, options});
}

std::shared_ptr<const engine::PolicyArtifact> Shared(
    engine::PolicyArtifact artifact) {
  return std::make_shared<const engine::PolicyArtifact>(std::move(artifact));
}

serving::CampaignLimits PinnedLimits() {
  serving::CampaignLimits limits;
  limits.total_tasks = 123456789012;
  limits.deadline_hours = 0.1;
  limits.admit_hours = -0.0;
  return limits;
}

/// Every control op form, in the order of kPinnedControlOps.
std::vector<serving::ControlOp> PinnedControlOps() {
  std::vector<serving::ControlOp> ops;
  ops.push_back(serving::ControlOp::AdmitShared(Shared(PinnedFixedArtifact()),
                                                PinnedLimits()));
  ops.push_back(serving::ControlOp::AdmitSharedWithId(
      42, Shared(PinnedTradeoffArtifact(true)), PinnedLimits()));
  ops.push_back(serving::ControlOp::SwapArtifactShared(
      7, Shared(PinnedBudgetArtifact())));
  ops.push_back(serving::ControlOp::Retire(9));
  ops.push_back(serving::ControlOp::Tick(5, 1.0 / 3.0, 123456789012));
  return ops;
}

serving::CampaignExport PinnedExport() {
  serving::CampaignExport exported;
  exported.id = 42;
  exported.limits = PinnedLimits();
  exported.artifact = Shared(PinnedFixedArtifact());
  return exported;
}

constexpr char kPinnedExportOk[] =
    "export ok 42 123456789012 0x1.999999999999ap-4 -0x0p+0 artifact 102\n"
    "crowdprice-artifact v1\n"
    "kind fixed-price\n"
    "fixed 77 0x1.999999999999ap-4 0x0.0000000000001p-1022 -0x0p+0\n";

constexpr char kPinnedExportErr[] =
    "export err 4 campaign 9 gone\\nfor good\n";

constexpr char kPinnedAckOk[] =
    "control-ack ok 42 2\n";

constexpr char kPinnedAckErr[] =
    "control-ack err 3 campaign 9 is  retired \\\\ twice\n";

/// PinnedControlOps(), serialized.
const char* const kPinnedControlOps[] = {
    "control admit 123456789012 0x1.999999999999ap-4 -0x0p+0 artifact 102\n"
    "crowdprice-artifact v1\n"
    "kind fixed-price\n"
    "fixed 77 0x1.999999999999ap-4 0x0.0000000000001p-1022 -0x0p+0\n",
    "control admit-at 42 123456789012 0x1.999999999999ap-4 -0x0p+0 artifact "
    "113\n"
    "crowdprice-artifact v1\n"
    "kind tradeoff\n"
    "tradeoff 15 0x1.8p+0 0x1.5555555555555p-2 3\n"
    "inf 0x1p-2 0x1.5555555555555p-1\n",
    "control swap 7 artifact 125\n"
    "crowdprice-artifact v1\n"
    "kind budget-static\n"
    "budget-meta 3 0x1.5555555555555p-2 0x1.7e43c8800759cp+996\n"
    "12 30\n"
    "7 123456789012\n"
    "0 1\n",
    "control retire 9\n",
    "control tick 5 0x1.5555555555555p-2 123456789012\n"};

/// Serializes `artifact`, checks the text, then reloads the text and checks
/// that it serializes back to the same bytes.
void ExpectArtifactPinned(const engine::PolicyArtifact& artifact,
                          const char* pinned) {
  EXPECT_EQ(artifact.Serialize().value(), pinned);
  const auto reloaded = engine::PolicyArtifact::Deserialize(pinned);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->kind(), artifact.kind());
  EXPECT_EQ(reloaded->Serialize().value(), pinned);
}

TEST(PinnedTextTest, EveryArtifactKindSerializesToItsPinnedText) {
  ExpectArtifactPinned(PinnedBudgetArtifact(), kPinnedBudgetArtifact);
  ExpectArtifactPinned(PinnedFixedArtifact(), kPinnedFixedArtifact);
  ExpectArtifactPinned(PinnedTradeoffArtifact(true), kPinnedTradeoffArtifact);
  ExpectArtifactPinned(PinnedTradeoffArtifact(false),
                       kPinnedEmptyTradeoffArtifact);
  ExpectArtifactPinned(PinnedMultiTypeArtifact(),
                       kPinnedMultiTypeArtifactPolicyOnly);
  ExpectArtifactPinned(PinnedAdaptiveArtifact(), kPinnedAdaptiveArtifact);
}

/// `legacy` with its `opt` section -- the marker line and every line after
/// it -- deleted.
std::string WithoutOptSection(const std::string& legacy) {
  const size_t opt = legacy.find("\nopt\n");
  return opt == std::string::npos ? legacy : legacy.substr(0, opt + 1);
}

TEST(PinnedTextTest, LegacyMultiTypeArtifactDecodesToItsPolicy) {
  EXPECT_EQ(WithoutOptSection(kPinnedMultiTypeArtifact),
            kPinnedMultiTypeArtifactPolicyOnly);
  const auto reloaded =
      engine::PolicyArtifact::Deserialize(kPinnedMultiTypeArtifact);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize().value(), kPinnedMultiTypeArtifactPolicyOnly);

  const engine::PolicyArtifact built = PinnedMultiTypeArtifact();
  const pricing::MultiTypePlan& want = *built.multitype_plan().value();
  const pricing::MultiTypePlan& got = *reloaded->multitype_plan().value();
  EXPECT_EQ(got.policy(), want.policy());
  EXPECT_EQ(got.interval_lambdas(), want.interval_lambdas());
  EXPECT_TRUE(got.opt().empty());
  EXPECT_TRUE(got.OptAt(1, 1, 0).status().IsFailedPrecondition());
  EXPECT_TRUE(std::isnan(got.TotalObjective()));
}

TEST(PinnedTextTest, ControlAndExportPayloadsSerializeToThePinnedText) {
  const std::vector<serving::ControlOp> ops = PinnedControlOps();
  ASSERT_EQ(ops.size(), std::size(kPinnedControlOps));
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(net::SerializeControlOp(ops[i]).value(), kPinnedControlOps[i]);
    const auto reloaded = net::DeserializeControlOp(kPinnedControlOps[i]);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_EQ(net::SerializeControlOp(*reloaded).value(),
              kPinnedControlOps[i]);
  }

  EXPECT_EQ(net::SerializeExportResponse(PinnedExport()).value(),
            kPinnedExportOk);
  const auto exported = net::DeserializeExportResponse(kPinnedExportOk);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(net::SerializeExportResponse(*exported).value(), kPinnedExportOk);
  const Status gone = Status::NotFound("campaign 9 gone\nfor good");
  EXPECT_EQ(net::SerializeExportResponse(gone).value(), kPinnedExportErr);
  const auto err = net::DeserializeExportResponse(kPinnedExportErr);
  EXPECT_TRUE(err.status().IsNotFound());
  EXPECT_EQ(err.status().message(), gone.message());

  serving::ControlOutcome outcome;
  outcome.id = 42;
  outcome.state = serving::CampaignState::kRetiredDeadline;
  EXPECT_EQ(net::SerializeControlAck(outcome), kPinnedAckOk);
  const auto acked = net::DeserializeControlAck(kPinnedAckOk);
  ASSERT_TRUE(acked.ok()) << acked.status();
  EXPECT_EQ(net::SerializeControlAck(*acked), kPinnedAckOk);
  const Status twice =
      Status::FailedPrecondition("campaign 9 is  retired \\ twice");
  EXPECT_EQ(net::SerializeControlAck(twice), kPinnedAckErr);
  const auto nacked = net::DeserializeControlAck(kPinnedAckErr);
  EXPECT_TRUE(nacked.status().IsFailedPrecondition());
  EXPECT_EQ(nacked.status().message(), twice.message());
}

TEST(PinnedTextTest, DeadlineArtifactSerializesToThePinnedText) {
  EXPECT_EQ(PinnedArtifact().Serialize().value(), kPinnedArtifactPolicyOnly);
  const auto reloaded =
      engine::PolicyArtifact::Deserialize(kPinnedArtifactPolicyOnly);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize().value(), kPinnedArtifactPolicyOnly);
}

TEST(PinnedTextTest, LegacyDeadlineArtifactDecodesToItsPolicy) {
  EXPECT_EQ(WithoutOptSection(kPinnedArtifact), kPinnedArtifactPolicyOnly);
  const auto reloaded = engine::PolicyArtifact::Deserialize(kPinnedArtifact);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize().value(), kPinnedArtifactPolicyOnly);
  EXPECT_EQ(reloaded->penalty_used(), 150.0);
  EXPECT_EQ(reloaded->dp_solves(), 3);

  const engine::PolicyArtifact built = PinnedArtifact();
  const pricing::DeadlinePlan& want = *built.deadline_plan().value();
  const pricing::DeadlinePlan& got = *reloaded->deadline_plan().value();
  for (int n = 1; n <= 2; ++n) {
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(got.ActionIndexUnchecked(n, t), want.ActionIndexUnchecked(n, t))
          << "n=" << n << " t=" << t;
    }
  }
  EXPECT_EQ(got.interval_lambdas(), want.interval_lambdas());
  ASSERT_EQ(got.actions().size(), want.actions().size());
  for (size_t i = 0; i < want.actions().size(); ++i) {
    EXPECT_EQ(got.actions()[i].cost_per_task_cents,
              want.actions()[i].cost_per_task_cents);
    EXPECT_EQ(got.actions()[i].bundle, want.actions()[i].bundle);
    EXPECT_EQ(got.actions()[i].acceptance, want.actions()[i].acceptance);
  }
  EXPECT_TRUE(got.OptAt(1, 0).status().IsFailedPrecondition());
  EXPECT_TRUE(std::isnan(got.TotalObjective()));
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

#include "pricing/serialization.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "market/controller.h"
#include "net/wire.h"
#include "pricing/deadline_dp.h"
#include "pricing/policy_eval.h"
#include "util/hexfloat.h"
#include "util/rng.h"
#include "util/stringf.h"

#include "pinned_texts.h"
#include "test_util.h"

namespace crowdprice::pricing {
namespace {

DeadlinePlan SolveSample(int n = 15, int nt = 5, double alpha = 0.0) {
  auto acc = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(25, acc).value();
  DeadlineProblem p;
  p.num_tasks = n;
  p.num_intervals = nt;
  p.penalty_cents = 321.5;
  p.extra_penalty_alpha = alpha;
  p.truncation_epsilon = 1e-10;
  std::vector<double> lambdas;
  for (int t = 0; t < nt; ++t) lambdas.push_back(200.0 + 37.0 * t);
  return SolveImprovedDp(p, lambdas, actions).value();
}

TEST(SerializationTest, RoundTripIsBitExact) {
  const DeadlinePlan plan = SolveSample();
  const std::string text = SerializePlan(plan);
  auto restored = DeserializePlan(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const DeadlineProblem& p = plan.problem();
  EXPECT_EQ(restored->problem().num_tasks, p.num_tasks);
  EXPECT_EQ(restored->problem().num_intervals, p.num_intervals);
  EXPECT_DOUBLE_EQ(restored->problem().penalty_cents, p.penalty_cents);
  EXPECT_DOUBLE_EQ(restored->problem().truncation_epsilon, p.truncation_epsilon);
  ASSERT_EQ(restored->actions().size(), plan.actions().size());
  for (size_t i = 0; i < plan.actions().size(); ++i) {
    EXPECT_DOUBLE_EQ(restored->actions()[i].cost_per_task_cents,
                     plan.actions()[i].cost_per_task_cents);
    EXPECT_DOUBLE_EQ(restored->actions()[i].acceptance,
                     plan.actions()[i].acceptance);
    EXPECT_EQ(restored->actions()[i].bundle, plan.actions()[i].bundle);
  }
  // The text carries the policy only: the decoded plan has no Opt(n, t).
  for (int n = 0; n <= p.num_tasks; ++n) {
    for (int t = 0; t <= p.num_intervals; ++t) {
      ASSERT_TRUE(restored->OptAt(n, t).status().IsFailedPrecondition());
    }
  }
  EXPECT_TRUE(std::isnan(restored->TotalObjective()));
  for (int n = 1; n <= p.num_tasks; ++n) {
    for (int t = 0; t < p.num_intervals; ++t) {
      ASSERT_EQ(restored->ActionIndexUnchecked(n, t),
                plan.ActionIndexUnchecked(n, t));
    }
  }
  ASSERT_EQ(restored->interval_lambdas().size(), plan.interval_lambdas().size());
  for (size_t i = 0; i < plan.interval_lambdas().size(); ++i) {
    EXPECT_DOUBLE_EQ(restored->interval_lambdas()[i], plan.interval_lambdas()[i]);
  }
}

TEST(SerializationTest, RestoredPlanEvaluatesIdentically) {
  const DeadlinePlan plan = SolveSample(20, 6);
  auto restored = DeserializePlan(SerializePlan(plan)).value();
  auto e1 = EvaluatePolicyNominal(plan).value();
  auto e2 = EvaluatePolicyNominal(restored).value();
  EXPECT_DOUBLE_EQ(e1.expected_cost_cents, e2.expected_cost_cents);
  EXPECT_DOUBLE_EQ(e1.expected_remaining, e2.expected_remaining);
}

TEST(SerializationTest, ExtendedPenaltySurvives) {
  const DeadlinePlan plan = SolveSample(8, 3, /*alpha=*/2.5);
  auto restored = DeserializePlan(SerializePlan(plan)).value();
  EXPECT_DOUBLE_EQ(restored.problem().extra_penalty_alpha, 2.5);
  EXPECT_DOUBLE_EQ(restored.problem().TerminalPenalty(2),
                   plan.problem().TerminalPenalty(2));
}

TEST(SerializationTest, RejectsBadHeader) {
  EXPECT_TRUE(DeserializePlan("not-a-plan\n").status().IsInvalidArgument());
  EXPECT_TRUE(DeserializePlan("").status().IsInvalidArgument());
  EXPECT_TRUE(DeserializePlan("crowdprice-plan v99\n").status().IsInvalidArgument());
}

TEST(SerializationTest, RejectsTruncation) {
  const std::string text = SerializePlan(SolveSample());
  // Chop the text at various points; every prefix must fail cleanly.
  for (size_t frac = 1; frac <= 9; ++frac) {
    const std::string prefix = text.substr(0, text.size() * frac / 10);
    auto r = DeserializePlan(prefix);
    EXPECT_FALSE(r.ok()) << "prefix fraction " << frac;
  }
}

TEST(SerializationTest, RejectsCorruptedPolicyIndex) {
  std::string text = SerializePlan(SolveSample());
  // Replace the policy section's first row with an out-of-range index.
  const size_t pos = text.find("policy\n");
  ASSERT_NE(pos, std::string::npos);
  const size_t row_start = pos + 7;
  const size_t row_end = text.find('\n', row_start);
  std::string row = text.substr(row_start, row_end - row_start);
  // 25-cent grid => 26 actions; 999 is out of range.
  row.replace(0, row.find(' '), "999");
  text = text.substr(0, row_start) + row + text.substr(row_end);
  EXPECT_TRUE(DeserializePlan(text).status().IsInvalidArgument());
}

TEST(SerializationTest, RejectsGarbageNumbers) {
  std::string text = SerializePlan(SolveSample());
  const size_t pos = text.find("0x");  // first hex float
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "zz");
  EXPECT_FALSE(DeserializePlan(text).ok());
}

TEST(SerializationTest, RejectsCountsTheirFieldCannotHold) {
  // 4294967297 is 2^32 + 1, which a narrowing cast to int reads as a
  // 1-task plan.
  std::string text = SerializePlan(SolveSample(1, 1));
  const size_t pos = text.find("problem 1 1 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::strlen("problem 1"), "problem 4294967297");
  EXPECT_TRUE(DeserializePlan(text).status().IsInvalidArgument());
}

/// A plan text whose problem line claims `tasks` x `intervals` tables but
/// that ends after its one action: no policy or opt rows follow.
std::string HollowPlanText(int tasks, int intervals) {
  std::string text = "crowdprice-plan v1\nproblem " + std::to_string(tasks) +
                     " " + std::to_string(intervals) +
                     " 0x1p+0 0x0p+0 0x1p-30\nlambdas";
  for (int t = 0; t < intervals; ++t) text += " 0x1p+0";
  return text + "\nactions 1\n0x1p+0 1 0x1p-1\n";
}

TEST(SerializationTest, RejectsTablesTheRemainingBytesCannotHold) {
  // Five lines claiming 2e9 tasks, and 140 kB claiming 2e9 x 20000: a
  // decoder that sized the plan from the header alone would exhaust memory
  // (or throw bad_alloc) before it read a single row.
  for (const std::string& plan :
       {HollowPlanText(2000000000, 1), HollowPlanText(2000000000, 20000)}) {
    EXPECT_TRUE(DeserializePlan(plan).status().IsInvalidArgument());
    // The same text reaches the same check as an artifact inside an admit.
    const std::string artifact =
        "crowdprice-artifact v1\nkind deadline-dp\ndeadline-meta 0x0p+0 1\n" +
        plan;
    const std::string admit = "control admit 1 0x1p+0 0x0p+0 artifact " +
                              std::to_string(artifact.size()) + "\n" +
                              artifact;
    EXPECT_TRUE(net::DeserializeControlOp(admit).status().IsInvalidArgument());
  }
  // A multitype artifact is held to the same bound before its plan is built.
  std::string multitype =
      "crowdprice-artifact v1\nkind multitype\n"
      "multitype-meta 4000 3 1000 16 4 0x1p+0 0x1p+0 0x1p-30\nlambdas";
  for (int t = 0; t < 1000; ++t) multitype += " 0x1p+0";
  multitype += "\npolicy\n";
  EXPECT_TRUE(engine::PolicyArtifact::Deserialize(multitype)
                  .status()
                  .IsInvalidArgument());
}

TEST(SerializationTest, RandomMutationsNeverCrash) {
  // Fuzz-style robustness: flip bytes, truncate, and duplicate slices of a
  // valid plan; the parser must return (ok or error) without crashing, and
  // anything it accepts must be a structurally valid plan.
  const std::string text = SerializePlan(SolveSample(10, 4));
  Rng rng(0xF00D);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = text;
    const int edits = static_cast<int>(rng.UniformInt(1, 8));
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformInt(0, 2)) {
        case 0: {  // flip a byte
          const size_t pos =
              static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        }
        case 1: {  // truncate
          const size_t pos =
              static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
          mutated.resize(pos);
          break;
        }
        default: {  // duplicate a slice
          if (mutated.size() < 4) break;
          const size_t from =
              static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 2));
          const size_t len = static_cast<size_t>(
              rng.UniformInt(1, static_cast<int64_t>(mutated.size() - from - 1)));
          mutated.insert(from, mutated.substr(from, len));
          break;
        }
      }
      if (mutated.empty()) break;
    }
    auto result = DeserializePlan(mutated);
    if (result.ok()) {
      // Whatever parsed must be internally consistent enough to evaluate.
      auto eval = EvaluatePolicyNominal(*result);
      (void)eval;
    }
  }
  SUCCEED();
}

/// A 5 x 4 x 3 joint two-type campaign.
engine::MultiTypeSpec SampleMultiTypeSpec() {
  engine::MultiTypeSpec spec;
  spec.s1 = 10.0;
  spec.b1 = 1.3;
  spec.s2 = 12.0;
  spec.b2 = 0.9;
  spec.m = 180.0;
  spec.problem.num_tasks_1 = 5;
  spec.problem.num_tasks_2 = 4;
  spec.problem.num_intervals = 3;
  spec.problem.penalty_1_cents = 130.5;
  spec.problem.penalty_2_cents = 110.25;
  spec.problem.max_price_cents = 16;
  spec.problem.price_stride = 4;
  spec.interval_lambdas = {21.5, 33.75, 18.0};
  return spec;
}

TEST(SerializationTest, MultiTypeArtifactRoundTripIsBitExact) {
  const engine::PolicyArtifact artifact =
      engine::Engine::Solve(SampleMultiTypeSpec()).value();
  const MultiTypePlan& plan = *artifact.multitype_plan().value();

  const std::string text = artifact.Serialize().value();
  auto restored = engine::PolicyArtifact::Deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->kind(), engine::PolicyKind::kMultiType);
  const MultiTypePlan& reloaded = *restored->multitype_plan().value();

  // Bit-exact: re-serializing reproduces the text, and every policy entry,
  // lambda and problem field survives unchanged. The text carries no
  // cost-to-go table, so the decoded plan has none.
  EXPECT_EQ(restored->Serialize().value(), text);
  EXPECT_EQ(reloaded.problem().num_tasks_1, plan.problem().num_tasks_1);
  EXPECT_EQ(reloaded.problem().num_tasks_2, plan.problem().num_tasks_2);
  EXPECT_EQ(reloaded.problem().price_stride, plan.problem().price_stride);
  ASSERT_EQ(reloaded.interval_lambdas().size(),
            plan.interval_lambdas().size());
  for (size_t i = 0; i < plan.interval_lambdas().size(); ++i) {
    ASSERT_DOUBLE_EQ(reloaded.interval_lambdas()[i],
                     plan.interval_lambdas()[i]);
  }
  for (int n1 = 0; n1 <= 5; ++n1) {
    for (int n2 = 0; n2 <= 4; ++n2) {
      for (int t = 0; t <= 3; ++t) {
        ASSERT_TRUE(reloaded.OptAt(n1, n2, t).status().IsFailedPrecondition());
        if (t < 3 && n1 + n2 > 0) {
          ASSERT_EQ(reloaded.PricesAt(n1, n2, t).value(),
                    plan.PricesAt(n1, n2, t).value());
        }
      }
    }
  }
  EXPECT_TRUE(std::isnan(reloaded.TotalObjective()));
}

/// An 18-task, 5-interval adaptive campaign.
engine::AdaptiveSpec SampleAdaptiveSpec() {
  auto acc = choice::LogitAcceptance::Paper2014();
  engine::AdaptiveSpec spec;
  spec.problem.num_tasks = 18;
  spec.problem.num_intervals = 5;
  spec.problem.penalty_cents = 140.5;
  spec.problem.extra_penalty_alpha = 1.25;
  spec.believed_lambdas = {210.0, 180.5, 240.0, 199.75, 230.0};
  spec.actions = ActionSet::FromPriceGrid(20, acc).value();
  spec.horizon_hours = 10.0;
  spec.options.resolve_every = 2;
  spec.options.prior_weight = 0.375;
  spec.options.min_factor = 0.5;
  spec.options.max_factor = 3.0;
  return spec;
}

TEST(SerializationTest, AdaptiveArtifactCheckpointsItsBelief) {
  const engine::PolicyArtifact artifact =
      engine::Engine::Solve(SampleAdaptiveSpec()).value();

  const std::string text = artifact.Serialize().value();
  auto restored = engine::PolicyArtifact::Deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->kind(), engine::PolicyKind::kAdaptive);
  // Bit-exact belief checkpoint: the round trip reproduces the text...
  EXPECT_EQ(restored->Serialize().value(), text);
  // ...and a controller instantiated from the reloaded priors opens with
  // the same decision as one from the original artifact.
  auto a = artifact.MakeAdaptiveController().value();
  auto b = restored->MakeAdaptiveController().value();
  const auto offer_a = test_util::SingleOffer(a, 0.0, 18).value();
  const auto offer_b = test_util::SingleOffer(b, 0.0, 18).value();
  EXPECT_DOUBLE_EQ(offer_a.per_task_reward_cents,
                   offer_b.per_task_reward_cents);
  EXPECT_EQ(offer_a.group_size, offer_b.group_size);
}

TEST(SerializationTest, AdaptiveArtifactClaimingHugeDimensionsIsRejected) {
  // One token turns the 18-task checkpoint into a 2e9-task one. Nothing
  // here may call Decide: if the artifact were accepted, its first Decide
  // would re-solve a 2e9 x 5 plan and abort on bad_alloc.
  const std::string text =
      engine::Engine::Solve(SampleAdaptiveSpec()).value().Serialize().value();
  const std::string meta = "adaptive-meta 18 ";
  const size_t pos = text.find(meta);
  ASSERT_NE(pos, std::string::npos);
  std::string huge = text;
  huge.replace(pos, meta.size(), "adaptive-meta 2000000000 ");

  const Status loaded = engine::PolicyArtifact::Deserialize(huge).status();
  EXPECT_TRUE(loaded.IsInvalidArgument()) << loaded;
  EXPECT_NE(loaded.message().find("implausible adaptive dimensions"),
            std::string::npos)
      << loaded;
  const std::string admit = "control admit 18 0x1.4p+3 0x0p+0 artifact " +
                            std::to_string(huge.size()) + "\n" + huge;
  EXPECT_TRUE(net::DeserializeControlOp(admit).status().IsInvalidArgument());

  engine::AdaptiveSpec spec = SampleAdaptiveSpec();
  spec.problem.num_tasks = 2000000000;
  EXPECT_TRUE(engine::Engine::Solve(spec).status().IsInvalidArgument());
}

std::string Printf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(SerializationTest, LongestNumbersSerializeAsPrintfAndRoundTrip) {
  // The longest texts a double prints as: a line of them must fit the room
  // the encoder reserves for it.
  const double longest[] = {-DBL_MAX,
                            -std::numeric_limits<double>::denorm_min()};
  DeadlineProblem problem;
  problem.num_tasks = 3;
  problem.num_intervals = 4;
  problem.penalty_cents = 150.0;
  std::vector<double> lambdas;
  std::string lambdas_line = "lambdas";
  for (int t = 0; t < problem.num_intervals; ++t) {
    lambdas.push_back(longest[t % 2]);
    lambdas_line += ' ' + Printf(lambdas.back());
  }
  DeadlinePlan plan(
      problem,
      ActionSet::FromActions({{12.5, 1, 0.125}, {40.0, 1, 0.875}}).value(),
      lambdas);
  for (int n = 1; n <= problem.num_tasks; ++n) {
    for (int t = 0; t < problem.num_intervals; ++t) {
      plan.SetActionIndex(n, t, (n + t) % 3 - 1);
    }
  }
  EXPECT_EQ(Printf(longest[0]), "-0x1.fffffffffffffp+1023");
  EXPECT_EQ(Printf(longest[1]), "-0x0.0000000000001p-1022");

  const std::string text = SerializePlan(plan);
  EXPECT_NE(text.find("\n" + lambdas_line + "\n"), std::string::npos);
  const auto restored = DeserializePlan(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializePlan(*restored), text);
}

/// `text` with the first row under its `marker` line ("policy" or "opt")
/// one token short (`delta` -1) or one token long (`delta` +1).
std::string ResizeFirstRow(const std::string& text, const std::string& marker,
                           int delta) {
  const size_t row = text.find("\n" + marker + "\n") + marker.size() + 2;
  const size_t end = text.find('\n', row);
  if (delta < 0) {
    const size_t last = text.rfind(' ', end);
    return text.substr(0, last) + text.substr(end);
  }
  const std::string first = text.substr(row, text.find(' ', row) - row);
  return text.substr(0, end) + " " + first + text.substr(end);
}

/// `text` with the `opt` section older writers appended: a marker line,
/// then `rows` rows of `fields` hex floats, value(row, field) each.
std::string WithLegacyOpt(std::string text, size_t rows, size_t fields,
                          const std::function<double(size_t, size_t)>& value) {
  text += "opt\n";
  for (size_t r = 0; r < rows; ++r) {
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) text += ' ';
      text += FormatHex(value(r, f));
    }
    text += '\n';
  }
  return text;
}

/// SerializePlan's text for a solved plan, as older writers wrote it: with
/// Opt(n, t) as rows n = 0..N of t = 0..NT.
std::string LegacyPlanText(const DeadlinePlan& plan) {
  return WithLegacyOpt(SerializePlan(plan),
                       static_cast<size_t>(plan.num_tasks()) + 1,
                       static_cast<size_t>(plan.num_intervals()) + 1,
                       [&](size_t n, size_t t) {
                         return plan.OptUnchecked(static_cast<int>(n),
                                                  static_cast<int>(t));
                       });
}

/// A multitype artifact's text as older writers wrote it: with the
/// cost-to-go as one row per (n1, n2), row-major, of t = 0..NT.
std::string LegacyMultiTypeText(const engine::PolicyArtifact& artifact) {
  const MultiTypePlan& plan = *artifact.multitype_plan().value();
  const size_t layer = plan.states_per_layer();
  return WithLegacyOpt(
      artifact.Serialize().value(), layer,
      static_cast<size_t>(plan.problem().num_intervals) + 1,
      [&](size_t row, size_t t) { return plan.opt()[t * layer + row]; });
}

TEST(SerializationTest, LegacyTextsWithOptSectionsDecodeToTheSamePolicy) {
  const DeadlinePlan plan = SolveSample();
  const std::string legacy_plan = LegacyPlanText(plan);
  const auto restored = DeserializePlan(legacy_plan);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializePlan(*restored), SerializePlan(plan));
  EXPECT_TRUE(std::isnan(restored->TotalObjective()));

  const engine::PolicyArtifact multitype =
      engine::Engine::Solve(SampleMultiTypeSpec()).value();
  const auto reloaded =
      engine::PolicyArtifact::Deserialize(LegacyMultiTypeText(multitype));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize().value(), multitype.Serialize().value());

  // A legacy section is read in full: a bad number in it is still an error.
  std::string bad = legacy_plan;
  bad.replace(bad.rfind(' ') + 1, 2, "zz");
  EXPECT_TRUE(DeserializePlan(bad).status().IsInvalidArgument());
}

TEST(SerializationTest, RowsOneTokenShortOrLongNameTheirFieldCount) {
  const DeadlinePlan solved = SolveSample();  // 5 intervals
  const engine::PolicyArtifact artifact =
      engine::Engine::Solve(SampleMultiTypeSpec()).value();  // 3 intervals
  const std::string plan = SerializePlan(solved);
  const std::string multitype = artifact.Serialize().value();
  // Writers no longer emit `opt` rows; readers check them in legacy texts.
  const std::string legacy_plan = LegacyPlanText(solved);
  const std::string legacy_multitype = LegacyMultiTypeText(artifact);
  ASSERT_TRUE(DeserializePlan(plan).ok());
  ASSERT_TRUE(engine::PolicyArtifact::Deserialize(multitype).ok());
  ASSERT_TRUE(DeserializePlan(legacy_plan).ok());
  ASSERT_TRUE(engine::PolicyArtifact::Deserialize(legacy_multitype).ok());
  for (const std::string marker : {"policy", "opt"}) {
    const size_t extra = marker == "opt" ? 1 : 0;  // opt rows include t = NT
    const std::string& plan_text = extra ? legacy_plan : plan;
    const std::string& multitype_text = extra ? legacy_multitype : multitype;
    for (const int delta : {-1, 1}) {
      const Status in_plan =
          DeserializePlan(ResizeFirstRow(plan_text, marker, delta)).status();
      EXPECT_TRUE(in_plan.IsInvalidArgument()) << in_plan;
      EXPECT_EQ(in_plan.message(),
                StringF("%s row: expected %zu fields, found %zu",
                        marker.c_str(), 5 + extra, 5 + extra + delta));
      const Status in_multitype =
          engine::PolicyArtifact::Deserialize(
              ResizeFirstRow(multitype_text, marker, delta))
              .status();
      EXPECT_TRUE(in_multitype.IsInvalidArgument()) << in_multitype;
      EXPECT_EQ(in_multitype.message(),
                StringF("%s row: expected %zu fields, found %zu",
                        marker.c_str(), 3 + extra, 3 + extra + delta));
    }
  }
}

TEST(SerializationTest, EveryStrictPrefixAndEveryTrailingByteIsRejected) {
  // A text cut inside its last number would otherwise decode to a different
  // price ("12" cut to "1"), and bytes after the last section were never
  // written by any writer.
  struct Case {
    std::string name;
    std::string text;
    std::function<Status(std::string_view)> decode;
  };
  const auto plan = [](std::string_view text) {
    return DeserializePlan(text).status();
  };
  const auto artifact = [](std::string_view text) {
    return engine::PolicyArtifact::Deserialize(text).status();
  };
  std::vector<Case> cases = {
      {"plan", SerializePlan(SolveSample()), plan},
      {"multitype artifact",
       engine::Engine::Solve(SampleMultiTypeSpec()).value().Serialize().value(),
       artifact}};
  for (size_t i = 0; i < std::size(pinned::kEveryPinnedArtifact); ++i) {
    cases.push_back({StringF("pinned artifact %zu", i),
                     pinned::kEveryPinnedArtifact[i], artifact});
  }
  for (const Case& c : cases) {
    ASSERT_TRUE(c.decode(c.text).ok()) << c.name;
    // A legacy text cut where its `opt` section starts is exactly the
    // policy-only text current writers produce: that one prefix decodes.
    const size_t opt = c.text.find("\nopt\n");
    const size_t policy_end = opt == std::string::npos ? opt : opt + 1;
    for (size_t i = 0; i < c.text.size(); ++i) {
      // An exactly sized copy: a read past the prefix is an ASan error.
      const std::unique_ptr<char[]> bytes(new char[i]);
      std::memcpy(bytes.get(), c.text.data(), i);
      const Status status = c.decode(std::string_view(bytes.get(), i));
      if (i == policy_end) {
        EXPECT_TRUE(status.ok()) << c.name << ": " << status;
        continue;
      }
      EXPECT_TRUE(status.IsInvalidArgument())
          << c.name << " cut to " << i << " of " << c.text.size()
          << " bytes: " << status;
    }
    const Status padded = c.decode(c.text + "junk\n");
    EXPECT_TRUE(padded.IsInvalidArgument()) << c.name << ": " << padded;
  }
}

TEST(SerializationTest, BundledActionsRoundTrip) {
  std::vector<PricingAction> raw{{0.04, 50, 0.001}, {0.1, 20, 0.004},
                                 {0.2, 10, 0.012}};
  auto actions = ActionSet::FromActions(raw).value();
  DeadlineProblem p;
  p.num_tasks = 30;
  p.num_intervals = 4;
  p.penalty_cents = 5.0;
  std::vector<double> lambdas(4, 400.0);
  auto plan = SolveSimpleDp(p, lambdas, actions).value();
  auto restored = DeserializePlan(SerializePlan(plan)).value();
  for (int n = 1; n <= 30; ++n) {
    for (int t = 0; t < 4; ++t) {
      ASSERT_EQ(restored.ActionIndexUnchecked(n, t),
                plan.ActionIndexUnchecked(n, t));
    }
  }
  EXPECT_FALSE(restored.actions().uniform_unit_bundle());
}

}  // namespace
}  // namespace crowdprice::pricing

// --- Wire codec (net/wire.h) ---------------------------------------------
// The frame and payload codecs crowdprice_serve speaks: every payload
// round-trips bit-exactly (the hex-float convention extends across the
// wire), and every malformed frame or payload is a Status error, never a
// crash -- the server treats socket bytes as hostile.

namespace crowdprice::net {
namespace {

engine::PolicyArtifact WireSampleArtifact() {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 12;
  spec.problem.num_intervals = 4;
  spec.problem.penalty_cents = 75.0;
  spec.interval_lambdas.assign(4, 50.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(
                     20, choice::LogitAcceptance::Paper2014())
                     .value();
  return engine::Engine::Solve(spec).value();
}

TEST(WireFrameTest, HeaderRoundTripsAndFrameWraps) {
  FrameHeader header;
  header.type = FrameType::kControlRequest;
  header.payload_bytes = 1234;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  const auto decoded =
      DecodeFrameHeader(bytes, kFrameHeaderBytes, kDefaultMaxFrameBytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->type, FrameType::kControlRequest);
  EXPECT_EQ(decoded->payload_bytes, 1234u);

  const std::string payload = "decide-batch 0\n";
  const auto frame = EncodeFrame(FrameType::kDecideBatchRequest, payload,
                                 kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->size(), kFrameHeaderBytes + payload.size());
  const auto head =
      DecodeFrameHeader(frame->data(), frame->size(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->type, FrameType::kDecideBatchRequest);
  EXPECT_EQ(head->payload_bytes, payload.size());
  EXPECT_EQ(frame->substr(kFrameHeaderBytes), payload);
}

TEST(WireFrameTest, MalformedHeadersAreStatusErrors) {
  FrameHeader header;
  header.type = FrameType::kDecideBatchResponse;
  header.payload_bytes = 64;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);

  // Truncated buffer.
  EXPECT_TRUE(DecodeFrameHeader(bytes, 5, kDefaultMaxFrameBytes)
                  .status()
                  .IsInvalidArgument());
  // Bad magic.
  char corrupt[kFrameHeaderBytes];
  std::memcpy(corrupt, bytes, kFrameHeaderBytes);
  corrupt[0] = 'X';
  EXPECT_TRUE(DecodeFrameHeader(corrupt, kFrameHeaderBytes,
                                kDefaultMaxFrameBytes)
                  .status()
                  .IsInvalidArgument());
  // Unsupported version.
  std::memcpy(corrupt, bytes, kFrameHeaderBytes);
  corrupt[4] = 9;
  EXPECT_TRUE(DecodeFrameHeader(corrupt, kFrameHeaderBytes,
                                kDefaultMaxFrameBytes)
                  .status()
                  .IsInvalidArgument());
  // Unknown frame type.
  std::memcpy(corrupt, bytes, kFrameHeaderBytes);
  corrupt[6] = 99;
  EXPECT_TRUE(DecodeFrameHeader(corrupt, kFrameHeaderBytes,
                                kDefaultMaxFrameBytes)
                  .status()
                  .IsInvalidArgument());
  // Oversized payload: rejected by the reader's cap before buffering...
  EXPECT_TRUE(DecodeFrameHeader(bytes, kFrameHeaderBytes, 16)
                  .status()
                  .IsInvalidArgument());
  // ...and by the writer when framing.
  EXPECT_TRUE(EncodeFrame(FrameType::kControlRequest, std::string(64, 'x'), 16)
                  .status()
                  .IsInvalidArgument());
}

TEST(WireSerializationTest, DecisionRequestRoundTripIsBitExact) {
  serving::DecideRequest request;
  request.campaign_id = 5;
  request.request.now_hours = 1.0 / 3.0;
  request.request.campaign_hours = 0.1;
  request.request.remaining = {17, 0, 123456789012345};
  const std::string text = SerializeDecideBatchRequest({request});
  const auto restored = DeserializeDecideBatchRequest(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 1u);
  const market::DecisionRequest& back = (*restored)[0].request;
  EXPECT_EQ(back.now_hours, request.request.now_hours);
  EXPECT_EQ(back.campaign_hours, request.request.campaign_hours);
  EXPECT_EQ(back.remaining, request.request.remaining);
  // Hex-float convention: re-serializing reproduces the bytes.
  EXPECT_EQ(SerializeDecideBatchRequest(*restored), text);
}

TEST(WireSerializationTest, OfferSheetRoundTripIsBitExact) {
  serving::DecideResponse response;
  response.campaign_id = 6;
  response.sheet.offers = {{12.75, 1}, {0.0, 3}, {99.999999999, 40}};
  const std::string text = SerializeDecideBatchResponse({response});
  const auto restored = DeserializeDecideBatchResponse(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 1u);
  const market::OfferSheet& sheet = (*restored)[0].sheet;
  ASSERT_EQ(sheet.offers.size(), response.sheet.offers.size());
  for (size_t i = 0; i < sheet.offers.size(); ++i) {
    EXPECT_EQ(sheet.offers[i].per_task_reward_cents,
              response.sheet.offers[i].per_task_reward_cents);
    EXPECT_EQ(sheet.offers[i].group_size,
              response.sheet.offers[i].group_size);
  }
  EXPECT_EQ(SerializeDecideBatchResponse(*restored), text);
}

TEST(WireSerializationTest, DecideResponseCarriesSheetOrStatus) {
  serving::DecideResponse ok;
  ok.campaign_id = 7;
  ok.sheet = market::OfferSheet::Single({33.5, 2});
  // Failures survive with code and message intact, quirky bytes included.
  serving::DecideResponse err;
  err.campaign_id = 8;
  err.status = Status::NotFound("campaign 8\nis not\\ live  here");
  const auto restored =
      DeserializeDecideBatchResponse(SerializeDecideBatchResponse({ok, err}));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ((*restored)[0].campaign_id, 7u);
  EXPECT_TRUE((*restored)[0].status.ok());
  ASSERT_EQ((*restored)[0].sheet.offers.size(), 1u);
  EXPECT_EQ((*restored)[0].sheet.offers[0].per_task_reward_cents, 33.5);
  EXPECT_EQ((*restored)[1].campaign_id, 8u);
  EXPECT_TRUE((*restored)[1].status.IsNotFound());
  EXPECT_EQ((*restored)[1].status.message(), err.status.message());
}

TEST(WireSerializationTest, ControlOpsRoundTripIncludingArtifactBlocks) {
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(WireSampleArtifact());
  const std::string artifact_text = artifact->Serialize().value();

  serving::CampaignLimits limits;
  limits.total_tasks = 40;
  limits.deadline_hours = 6.0;
  limits.admit_hours = 2.5;
  const auto admit_text =
      SerializeControlOp(serving::ControlOp::AdmitShared(artifact, limits));
  ASSERT_TRUE(admit_text.ok());
  const auto admit = DeserializeControlOp(*admit_text);
  ASSERT_TRUE(admit.ok());
  EXPECT_EQ(admit->kind, serving::ControlOp::Kind::kAdmit);
  EXPECT_EQ(admit->limits.total_tasks, 40);
  EXPECT_EQ(admit->limits.deadline_hours, 6.0);
  EXPECT_EQ(admit->limits.admit_hours, 2.5);
  ASSERT_NE(admit->artifact, nullptr);
  EXPECT_EQ(admit->artifact->Serialize().value(), artifact_text);

  const auto swap_text = SerializeControlOp(
      serving::ControlOp::SwapArtifactShared(11, artifact));
  ASSERT_TRUE(swap_text.ok());
  const auto swap = DeserializeControlOp(*swap_text);
  ASSERT_TRUE(swap.ok());
  EXPECT_EQ(swap->kind, serving::ControlOp::Kind::kSwapArtifact);
  EXPECT_EQ(swap->id, 11u);
  ASSERT_NE(swap->artifact, nullptr);
  EXPECT_EQ(swap->artifact->Serialize().value(), artifact_text);

  const auto retire_text = SerializeControlOp(serving::ControlOp::Retire(12));
  ASSERT_TRUE(retire_text.ok());
  const auto retire = DeserializeControlOp(*retire_text);
  ASSERT_TRUE(retire.ok());
  EXPECT_EQ(retire->kind, serving::ControlOp::Kind::kRetire);
  EXPECT_EQ(retire->id, 12u);

  const auto tick_text =
      SerializeControlOp(serving::ControlOp::Tick(13, 4.25, 9));
  ASSERT_TRUE(tick_text.ok());
  const auto tick = DeserializeControlOp(*tick_text);
  ASSERT_TRUE(tick.ok());
  EXPECT_EQ(tick->kind, serving::ControlOp::Kind::kTick);
  EXPECT_EQ(tick->id, 13u);
  EXPECT_EQ(tick->now_hours, 4.25);
  EXPECT_EQ(tick->remaining_tasks, 9);

  // Controller-backed admits are process-local by design.
  serving::ControlOp local = serving::ControlOp::AdmitController(
      std::make_unique<market::FixedOfferController>(market::Offer{10.0, 1}),
      limits);
  EXPECT_TRUE(SerializeControlOp(local).status().IsInvalidArgument());
}

TEST(WireSerializationTest, ControlAcksCarryOutcomeOrTransportedStatus) {
  serving::ControlOutcome outcome;
  outcome.id = 21;
  outcome.state = serving::CampaignState::kRetiredDeadline;
  const auto ok_ack = DeserializeControlAck(SerializeControlAck(outcome));
  ASSERT_TRUE(ok_ack.ok());
  EXPECT_EQ(ok_ack->id, 21u);
  EXPECT_EQ(ok_ack->state, serving::CampaignState::kRetiredDeadline);

  const Result<serving::ControlOutcome> failed =
      Status::FailedPrecondition("shard map is tearing down");
  const auto err_ack = DeserializeControlAck(SerializeControlAck(failed));
  ASSERT_FALSE(err_ack.ok());
  EXPECT_TRUE(err_ack.status().IsFailedPrecondition());
  EXPECT_EQ(err_ack.status().message(), "shard map is tearing down");

  // A state integer outside the enum is rejected, not cast blindly.
  EXPECT_FALSE(DeserializeControlAck("control-ack ok 21 9\n").ok());
}

TEST(WireSerializationTest, DecideBatchesRoundTripIndexForIndex) {
  std::vector<serving::DecideRequest> requests;
  requests.push_back(serving::DecideRequest::Single(3, 0.5, 12));
  serving::DecideRequest multi;
  multi.campaign_id = 4;
  multi.request.now_hours = 1.25;
  multi.request.campaign_hours = 0.75;
  multi.request.remaining = {5, 6};
  requests.push_back(multi);
  const auto restored =
      DeserializeDecideBatchRequest(SerializeDecideBatchRequest(requests));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ((*restored)[0].campaign_id, 3u);
  EXPECT_EQ((*restored)[0].request.remaining, std::vector<int64_t>{12});
  EXPECT_EQ((*restored)[1].campaign_id, 4u);
  EXPECT_EQ((*restored)[1].request.now_hours, 1.25);
  EXPECT_EQ((*restored)[1].request.remaining, (std::vector<int64_t>{5, 6}));

  std::vector<serving::DecideResponse> responses(2);
  responses[0].campaign_id = 3;
  responses[0].sheet = market::OfferSheet::Single({45.0, 1});
  responses[1].campaign_id = 4;
  responses[1].status = Status::NotFound("campaign 4 is not live");
  const auto back =
      DeserializeDecideBatchResponse(SerializeDecideBatchResponse(responses));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_TRUE((*back)[0].status.ok());
  EXPECT_EQ((*back)[0].sheet.offers[0].per_task_reward_cents, 45.0);
  EXPECT_TRUE((*back)[1].status.IsNotFound());
  EXPECT_EQ((*back)[1].status.message(), "campaign 4 is not live");

  // The whole-batch error form surfaces as that Status.
  const auto batch_err = DeserializeDecideBatchResponse(
      SerializeBatchError(Status::InvalidArgument("unreadable batch")));
  ASSERT_FALSE(batch_err.ok());
  EXPECT_TRUE(batch_err.status().IsInvalidArgument());
  EXPECT_EQ(batch_err.status().message(), "unreadable batch");
}

TEST(WireSerializationTest, MalformedPayloadsAreStatusErrorsNeverCrashes) {
  // Empty and truncated inputs.
  EXPECT_FALSE(DeserializeControlOp("").ok());
  EXPECT_FALSE(DeserializeControlAck("").ok());
  EXPECT_FALSE(DeserializeDecideBatchRequest("").ok());
  EXPECT_FALSE(DeserializeDecideBatchResponse("").ok());
  // A batch that promises more lines than it carries.
  EXPECT_FALSE(DeserializeDecideBatchRequest("decide-batch 3\n").ok());
  // Counts that lie: negative, non-numeric, and absurdly large.
  EXPECT_FALSE(DeserializeDecideBatchRequest("decide-batch -1\n").ok());
  EXPECT_FALSE(DeserializeDecideBatchRequest("decide-batch zebra\n").ok());
  EXPECT_FALSE(DeserializeDecideBatchRequest("decide-batch 99999999\n").ok());
  // Garbage numbers inside an otherwise shaped line.
  EXPECT_FALSE(
      DeserializeDecideBatchRequest("decide-batch 1\nrequest 3 x y 1 5\n")
          .ok());
  EXPECT_FALSE(DeserializeDecideBatchResponse(
                   "decide-batch 1\nresponse 3 ok 1 nope 1\n")
                   .ok());
  // Wrong leading keyword.
  EXPECT_FALSE(DeserializeDecideBatchRequest(
                   "decide-batch 1\nresponse 3 ok 1 0x1p0 1\n")
                   .ok());
  // Trailing garbage after a complete batch.
  EXPECT_FALSE(DeserializeDecideBatchRequest(
                   SerializeDecideBatchRequest(
                       {serving::DecideRequest::Single(3, 1.0, 5)}) +
                   "extra\n")
                   .ok());
  // An artifact block whose byte count overruns the payload.
  EXPECT_FALSE(
      DeserializeControlOp("control swap 3 artifact 5000\nshort\n").ok());
  // Unknown status code integers in err lines.
  EXPECT_FALSE(DeserializeControlAck("control-ack err 42 boom\n").ok());
}

TEST(WireSerializationTest, NumbersOutsideTheirFieldAreRejected) {
  // 4294967298 narrowed to int would be group_size 2.
  EXPECT_TRUE(DeserializeDecideBatchResponse(
                  "decide-batch 1\nresponse 3 ok 1 0x1p+3 4294967298\n")
                  .status()
                  .IsInvalidArgument());
  // Past INT64_MAX: an error, not a value clamped to INT64_MAX.
  EXPECT_TRUE(DeserializeDecideBatchRequest(
                  "decide-batch 1\nrequest 3 0x0p+0 0x0p+0 1 "
                  "99999999999999999999999\n")
                  .status()
                  .IsInvalidArgument());
  // A double that overflows is out of range too, not +inf.
  EXPECT_TRUE(DeserializeDecideBatchRequest(
                  "decide-batch 1\nrequest 3 1e999 0x0p+0 1 5\n")
                  .status()
                  .IsInvalidArgument());
  // Every in-range spelling strtod/strtol took still parses.
  const auto lenient = DeserializeDecideBatchRequest(
      "decide-batch 1\nrequest 3 +2.5 -0x1p+1 1 +7\n");
  ASSERT_TRUE(lenient.ok()) << lenient.status();
  ASSERT_EQ(lenient->size(), 1u);
  EXPECT_EQ((*lenient)[0].request.now_hours, 2.5);
  EXPECT_EQ((*lenient)[0].request.campaign_hours, -2.0);
  EXPECT_EQ((*lenient)[0].request.remaining, std::vector<int64_t>{7});
}

TEST(WireSerializationTest, PingAndHelloRoundTrip) {
  // Ping bodies are fixed and validated: an echoing or garbled backend is
  // a protocol error, not a healthy one.
  EXPECT_TRUE(DeserializePingRequest(SerializePingRequest()).ok());
  EXPECT_TRUE(DeserializePingResponse(SerializePingResponse()).ok());
  EXPECT_FALSE(DeserializePingRequest("pong\n").ok());
  EXPECT_FALSE(DeserializePingResponse("ping\n").ok());
  EXPECT_FALSE(DeserializePingResponse("").ok());

  // Hello: version and token survive; token bytes escape like status
  // messages, so whitespace and backslashes are fine.
  HelloRequest hello;
  hello.version = 7;
  hello.token = "secret with spaces\nand\\escapes";
  const auto restored = DeserializeHelloRequest(SerializeHelloRequest(hello));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->version, 7);
  EXPECT_EQ(restored->token, hello.token);
  EXPECT_FALSE(DeserializeHelloRequest("hello\n").ok());
  EXPECT_FALSE(DeserializeHelloRequest("hello zebra tok\n").ok());

  // Hello acks carry the server's verdict both ways.
  Status verdict;
  ASSERT_TRUE(
      DeserializeHelloAck(SerializeHelloAck(Status::OK()), &verdict).ok());
  EXPECT_TRUE(verdict.ok());
  ASSERT_TRUE(DeserializeHelloAck(
                  SerializeHelloAck(Status::Unauthenticated("bad token")),
                  &verdict)
                  .ok());
  EXPECT_TRUE(verdict.IsUnauthenticated());
  EXPECT_EQ(verdict.message(), "bad token");
  EXPECT_FALSE(DeserializeHelloAck("hello-ack maybe\n", &verdict).ok());
}

TEST(WireSerializationTest, ExportAndExplicitIdAdmitRoundTrip) {
  const auto id = DeserializeExportRequest(SerializeExportRequest(77));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 77u);
  EXPECT_FALSE(DeserializeExportRequest("export x\n").ok());
  EXPECT_FALSE(DeserializeExportRequest("").ok());

  // Export responses: id + limits + artifact bytes round-trip exactly --
  // the migrated campaign must price bit-identically on its new owner.
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(WireSampleArtifact());
  serving::CampaignExport exported;
  exported.id = 9;
  exported.limits.total_tasks = 40;
  exported.limits.deadline_hours = 6.0;
  exported.limits.admit_hours = 2.5;
  exported.artifact = artifact;
  const auto wire = SerializeExportResponse(exported);
  ASSERT_TRUE(wire.ok()) << wire.status();
  const auto back = DeserializeExportResponse(*wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->limits.total_tasks, 40);
  EXPECT_EQ(back->limits.deadline_hours, 6.0);
  EXPECT_EQ(back->limits.admit_hours, 2.5);
  ASSERT_NE(back->artifact, nullptr);
  EXPECT_EQ(back->artifact->Serialize().value(),
            artifact->Serialize().value());

  // The err form transports the server-side status verbatim...
  const auto err_wire = SerializeExportResponse(
      Result<serving::CampaignExport>(Status::NotFound("campaign 9 gone")));
  ASSERT_TRUE(err_wire.ok());
  const auto err = DeserializeExportResponse(*err_wire);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
  EXPECT_EQ(err.status().message(), "campaign 9 gone");
  // ...and a controller-backed export (no artifact) cannot serialize.
  serving::CampaignExport controller_backed;
  controller_backed.id = 3;
  EXPECT_TRUE(SerializeExportResponse(controller_backed)
                  .status()
                  .IsInvalidArgument());

  // Explicit-id admits use the admit-at verb and keep the campaign id.
  serving::CampaignLimits limits;
  limits.total_tasks = 40;
  limits.deadline_hours = 6.0;
  limits.admit_hours = 2.5;
  const auto admit_at_text = SerializeControlOp(
      serving::ControlOp::AdmitSharedWithId(31, artifact, limits));
  ASSERT_TRUE(admit_at_text.ok());
  const auto admit_at = DeserializeControlOp(*admit_at_text);
  ASSERT_TRUE(admit_at.ok()) << admit_at.status();
  EXPECT_EQ(admit_at->kind, serving::ControlOp::Kind::kAdmit);
  EXPECT_EQ(admit_at->id, 31u);
  EXPECT_EQ(admit_at->limits.admit_hours, 2.5);
  ASSERT_NE(admit_at->artifact, nullptr);

  // admit-at must name a real id: 0 means "assign fresh", which only the
  // plain admit verb may ask for.
  std::string zero_id = *admit_at_text;
  const size_t at = zero_id.find("admit-at 31");
  ASSERT_NE(at, std::string::npos);
  zero_id.replace(at, std::strlen("admit-at 31"), "admit-at 0");
  EXPECT_FALSE(DeserializeControlOp(zero_id).ok());

  // The new frame types frame and decode like the original four.
  for (const FrameType type :
       {FrameType::kPingRequest, FrameType::kPingResponse,
        FrameType::kHelloRequest, FrameType::kHelloResponse,
        FrameType::kExportRequest, FrameType::kExportResponse}) {
    const auto frame = EncodeFrame(type, "x\n", kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok());
    const auto header = DecodeFrameHeader(frame->data(), frame->size(),
                                          kDefaultMaxFrameBytes);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, type);
    EXPECT_EQ(header->payload_bytes, 2u);
  }
}

}  // namespace
}  // namespace crowdprice::net

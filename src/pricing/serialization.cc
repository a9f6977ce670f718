#include "pricing/serialization.h"

#include <cstdint>
#include <string>
#include <vector>

#include "util/hexfloat.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::pricing {

namespace {

constexpr char kHeader[] = "crowdprice-plan v1";

}  // namespace

void AppendPlan(const DeadlinePlan& plan, std::string* out) {
  const DeadlineProblem& p = plan.problem();
  const auto tasks = static_cast<size_t>(p.num_tasks);
  const auto intervals = static_cast<size_t>(p.num_intervals);
  // Every field at its longest, plus a separator: the text is reserved once
  // and each table row written in place through a cursor.
  const size_t policy_row = intervals * (kMaxIntChars + 1);
  const size_t head = 256 + intervals * (kMaxHexChars + 1) +
                      plan.actions().size() * (2 * kMaxHexChars + 24);
  out->reserve(out->size() + head + tasks * policy_row);
  *out += kHeader;
  *out += "\nproblem ";
  AppendInt(p.num_tasks, out);
  *out += ' ';
  AppendInt(p.num_intervals, out);
  *out += ' ';
  AppendHex(p.penalty_cents, out);
  *out += ' ';
  AppendHex(p.extra_penalty_alpha, out);
  *out += ' ';
  AppendHex(p.truncation_epsilon, out);
  *out += "\nlambdas";
  for (double lam : plan.interval_lambdas()) {
    *out += ' ';
    AppendHex(lam, out);
  }
  *out += "\nactions ";
  AppendInt(plan.actions().size(), out);
  *out += '\n';
  for (const PricingAction& a : plan.actions().actions()) {
    AppendHex(a.cost_per_task_cents, out);
    *out += ' ';
    AppendInt(a.bundle, out);
    *out += ' ';
    AppendHex(a.acceptance, out);
    *out += '\n';
  }
  *out += "policy\n";
  for (int n = 1; n <= p.num_tasks; ++n) {
    AppendRow(out, policy_row, [&](char* c) {
      for (int t = 0; t < p.num_intervals; ++t) {
        if (t > 0) *c++ = ' ';
        c = PutInt(plan.ActionIndexUnchecked(n, t), c);
      }
      *c++ = '\n';
      return c;
    });
  }
}

std::string SerializePlan(const DeadlinePlan& plan) {
  std::string out;
  AppendPlan(plan, &out);
  return out;
}

Status SkipLegacyOpt(LineReader* reader, uint64_t rows, size_t fields,
                     const char* what) {
  if (reader->Rest().starts_with("opt\n")) {
    CP_RETURN_IF_ERROR(reader->Next("opt marker").status());
    for (uint64_t r = 0; r < rows; ++r) {
      CP_ASSIGN_OR_RETURN(auto line, reader->Next("opt row"));
      CP_RETURN_IF_ERROR(ForEachToken(
          line, fields, "opt row", [](size_t, std::string_view token) {
            return ParseDouble(token, "opt value").status();
          }));
    }
  }
  return reader->ExpectEnd(what);
}

Result<DeadlinePlan> DeserializePlan(std::string_view text) {
  LineReader reader(text, "plan");
  CP_RETURN_IF_ERROR(reader.ExpectFinalNewline());
  CP_ASSIGN_OR_RETURN(auto header, reader.Next("header"));
  if (header != kHeader) {
    return Status::InvalidArgument(
        StringF("unsupported plan header '%.*s'",
                static_cast<int>(header.size()), header.data()));
  }

  CP_ASSIGN_OR_RETURN(auto problem_line, reader.Next("problem line"));
  CP_ASSIGN_OR_RETURN(auto ptokens, Tokens(problem_line, 6, "problem line"));
  if (ptokens[0] != "problem") {
    return Status::InvalidArgument("expected 'problem' line");
  }
  DeadlineProblem problem;
  CP_ASSIGN_OR_RETURN(problem.num_tasks,
                      ParseInt<int>(ptokens[1], "num_tasks"));
  CP_ASSIGN_OR_RETURN(problem.num_intervals,
                      ParseInt<int>(ptokens[2], "num_intervals"));
  CP_ASSIGN_OR_RETURN(problem.penalty_cents,
                      ParseDouble(ptokens[3], "penalty"));
  CP_ASSIGN_OR_RETURN(problem.extra_penalty_alpha,
                      ParseDouble(ptokens[4], "alpha"));
  CP_ASSIGN_OR_RETURN(problem.truncation_epsilon,
                      ParseDouble(ptokens[5], "epsilon"));
  CP_RETURN_IF_ERROR(problem.Validate());
  CP_RETURN_IF_ERROR(problem.CheckPlanStates("deadline"));

  CP_ASSIGN_OR_RETURN(auto lambda_line, reader.Next("lambdas line"));
  CP_ASSIGN_OR_RETURN(
      auto ltokens,
      Tokens(lambda_line, static_cast<size_t>(problem.num_intervals) + 1,
             "lambdas line"));
  if (ltokens[0] != "lambdas") {
    return Status::InvalidArgument("expected 'lambdas' line");
  }
  std::vector<double> lambdas;
  for (size_t i = 1; i < ltokens.size(); ++i) {
    CP_ASSIGN_OR_RETURN(double lam, ParseDouble(ltokens[i], "lambda"));
    lambdas.push_back(lam);
  }

  CP_ASSIGN_OR_RETURN(auto actions_line, reader.Next("actions line"));
  CP_ASSIGN_OR_RETURN(auto atokens, Tokens(actions_line, 2, "actions line"));
  if (atokens[0] != "actions") {
    return Status::InvalidArgument("expected 'actions' line");
  }
  CP_ASSIGN_OR_RETURN(const int num_actions,
                      ParseInt<int>(atokens[1], "action count"));
  if (num_actions < 1 || num_actions > (1 << 20)) {
    return Status::InvalidArgument(
        StringF("implausible action count %d", num_actions));
  }
  std::vector<PricingAction> actions;
  for (int i = 0; i < num_actions; ++i) {
    CP_ASSIGN_OR_RETURN(auto line, reader.Next("action"));
    CP_ASSIGN_OR_RETURN(auto tokens, Tokens(line, 3, "action"));
    PricingAction a;
    CP_ASSIGN_OR_RETURN(a.cost_per_task_cents, ParseDouble(tokens[0], "cost"));
    CP_ASSIGN_OR_RETURN(a.bundle, ParseInt<int>(tokens[1], "bundle"));
    CP_ASSIGN_OR_RETURN(a.acceptance, ParseDouble(tokens[2], "acceptance"));
    actions.push_back(a);
  }
  CP_ASSIGN_OR_RETURN(ActionSet action_set, ActionSet::FromActions(actions));
  if (action_set.size() != static_cast<size_t>(num_actions)) {
    return Status::Internal("action set changed size during validation");
  }

  // The policy table is sized from the header, so first check that the
  // text left can hold it.
  const auto tasks = static_cast<uint64_t>(problem.num_tasks);
  const auto intervals = static_cast<uint64_t>(problem.num_intervals);
  CP_RETURN_IF_ERROR(reader.ExpectRoomFor(tasks * intervals, "policy"));
  DeadlinePlan plan = DeadlinePlan::PolicyOnly(problem, std::move(action_set),
                                               std::move(lambdas));

  CP_ASSIGN_OR_RETURN(auto policy_marker, reader.Next("policy marker"));
  if (policy_marker != "policy") {
    return Status::InvalidArgument("expected 'policy' marker");
  }
  for (int n = 1; n <= problem.num_tasks; ++n) {
    CP_ASSIGN_OR_RETURN(auto line, reader.Next("policy row"));
    CP_RETURN_IF_ERROR(ForEachToken(
        line, static_cast<size_t>(problem.num_intervals), "policy row",
        [&](size_t t, std::string_view token) -> Status {
          CP_ASSIGN_OR_RETURN(const int idx,
                              ParseInt<int>(token, "policy index"));
          if (idx < -1 || idx >= num_actions) {
            return Status::InvalidArgument(
                StringF("policy index %d out of range at (n=%d, t=%zu)", idx,
                        n, t));
          }
          plan.SetActionIndex(n, static_cast<int>(t), idx);
          return Status::OK();
        }));
  }

  CP_RETURN_IF_ERROR(SkipLegacyOpt(&reader, tasks + 1, intervals + 1, "plan"));
  return plan;
}

}  // namespace crowdprice::pricing

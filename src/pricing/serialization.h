// Plan serialization: persist a solved DeadlinePlan and reload it later.
//
// Production campaigns solve once (possibly on a beefier machine) and then
// run the policy table on a controller host for hours; the table must
// survive process restarts. The format is a versioned, line-oriented text
// format with hex-float encoding for bit-exact round trips.
//
// A plan text carries what a controller reads -- the problem, the interval
// lambdas, the action set and the policy table Price(n, t) -- and ends with
// the policy's last row. The cost-to-go table Opt(n, t) is the solver's
// working state and is not written. Older writers appended it as an `opt`
// section after the policy; readers still accept that section, check its
// rows, and discard them. A text must end in '\n' and nothing may follow
// its last section, so a text cut inside its last number is rejected rather
// than read as a different price.

#ifndef CROWDPRICE_PRICING_SERIALIZATION_H_
#define CROWDPRICE_PRICING_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "pricing/plan.h"
#include "util/result.h"

namespace crowdprice {
class LineReader;
}  // namespace crowdprice

namespace crowdprice::pricing {

/// Serializes the plan's policy (problem spec, action set, interval lambdas
/// and policy table; not Opt) to a self-contained string ending in '\n'.
std::string SerializePlan(const DeadlinePlan& plan);

/// SerializePlan's text, appended to `*out` (how an artifact embeds its
/// plan without a second copy).
void AppendPlan(const DeadlinePlan& plan, std::string* out);

/// Parses a string produced by SerializePlan, or by an older writer that
/// appended an `opt` section (read, checked and discarded). Bit-exact: every
/// price, probability and policy entry round-trips. The plan returned holds
/// the policy only (DeadlinePlan::PolicyOnly): OptAt fails and
/// TotalObjective is NaN. Rejects unknown versions, truncated input
/// (including a last line without its '\n'), bytes after the last section,
/// inconsistent dimensions, plans above kMaxPlanStates, numbers outside
/// their field's type, and tables larger than the text left could hold
/// (before allocating them).
Result<DeadlinePlan> DeserializePlan(std::string_view text);

/// For plan decoders, after the policy rows: reads the legacy `opt` section
/// if one follows -- a marker line, then `rows` rows of `fields` numbers,
/// each parsed and discarded -- and then requires the end of the text
/// ("trailing bytes after <what>" otherwise).
Status SkipLegacyOpt(LineReader* reader, uint64_t rows, size_t fields,
                     const char* what);

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_SERIALIZATION_H_

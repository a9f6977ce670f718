// Plan serialization: persist a solved DeadlinePlan and reload it later.
//
// Production campaigns solve once (possibly on a beefier machine) and then
// run the policy table on a controller host for hours; the table must
// survive process restarts. The format is a versioned, line-oriented text
// format with hex-float encoding for bit-exact round trips.

#ifndef CROWDPRICE_PRICING_SERIALIZATION_H_
#define CROWDPRICE_PRICING_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "pricing/plan.h"
#include "util/result.h"

namespace crowdprice::pricing {

/// Serializes the full plan (problem spec, action set, interval lambdas,
/// policy and value tables) to a self-contained string.
std::string SerializePlan(const DeadlinePlan& plan);

/// SerializePlan's text, appended to `*out` (how an artifact embeds its
/// plan without a second copy).
void AppendPlan(const DeadlinePlan& plan, std::string* out);

/// Parses a string produced by SerializePlan. Bit-exact: every price,
/// probability and value round-trips. Rejects unknown versions, truncated
/// input, inconsistent dimensions, numbers outside their field's type, and
/// tables larger than the text left could hold (before allocating them).
Result<DeadlinePlan> DeserializePlan(std::string_view text);

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_SERIALIZATION_H_

// Umbrella header for the crowdprice library.
//
// crowdprice is a C++20 reproduction of "Finish Them!: Pricing Algorithms
// for Human Computation" (Gao & Parameswaran, VLDB 2014): optimal dynamic
// pricing of crowdsourcing task batches under deadlines (MDP dynamic
// programming, §3), static pricing under budgets (convex-hull LP, §4), the
// marketplace model they rely on (NHPP arrivals + conditional-logit task
// choice, §2), the extensions of §6, and a full marketplace simulator for
// the paper's experiments (§5).

#ifndef CROWDPRICE_CROWDPRICE_H_
#define CROWDPRICE_CROWDPRICE_H_

#include "arrival/estimator.h"      // IWYU pragma: export
#include "arrival/rate_function.h"  // IWYU pragma: export
#include "arrival/trace.h"          // IWYU pragma: export
#include "choice/acceptance.h"      // IWYU pragma: export
#include "choice/calibration.h"     // IWYU pragma: export
#include "choice/utility_model.h"   // IWYU pragma: export
#include "engine/engine.h"          // IWYU pragma: export
#include "engine/policy_artifact.h" // IWYU pragma: export
#include "engine/policy_spec.h"     // IWYU pragma: export
#include "engine/solve_wave.h"      // IWYU pragma: export
#include "kernel/layer_scan.h"      // IWYU pragma: export
#include "kernel/pmf_arena.h"       // IWYU pragma: export
#include "kernel/pmf_cache.h"       // IWYU pragma: export
#include "market/controller.h"      // IWYU pragma: export
#include "market/fleet_simulator.h" // IWYU pragma: export
#include "market/multitype_sim.h"   // IWYU pragma: export
#include "market/session.h"         // IWYU pragma: export
#include "market/simulator.h"       // IWYU pragma: export
#include "market/types.h"           // IWYU pragma: export
#include "pricing/action.h"         // IWYU pragma: export
#include "pricing/adaptive.h"       // IWYU pragma: export
#include "pricing/budget.h"         // IWYU pragma: export
#include "pricing/controller.h"     // IWYU pragma: export
#include "pricing/serialization.h"  // IWYU pragma: export
#include "pricing/deadline_dp.h"    // IWYU pragma: export
#include "pricing/fixed_price.h"    // IWYU pragma: export
#include "pricing/multitype.h"      // IWYU pragma: export
#include "pricing/penalty_search.h" // IWYU pragma: export
#include "pricing/plan.h"           // IWYU pragma: export
#include "pricing/policy_eval.h"    // IWYU pragma: export
#include "pricing/problem.h"        // IWYU pragma: export
#include "pricing/quality.h"        // IWYU pragma: export
#include "pricing/tradeoff.h"       // IWYU pragma: export
#include "serving/campaign_shard_map.h"  // IWYU pragma: export
#include "stats/convex_hull.h"      // IWYU pragma: export
#include "stats/descriptive.h"      // IWYU pragma: export
#include "stats/distributions.h"    // IWYU pragma: export
#include "stats/poisson.h"          // IWYU pragma: export
#include "stats/regression.h"       // IWYU pragma: export
#include "util/macros.h"            // IWYU pragma: export
#include "util/result.h"            // IWYU pragma: export
#include "util/rng.h"               // IWYU pragma: export
#include "util/status.h"            // IWYU pragma: export
#include "util/stringf.h"           // IWYU pragma: export
#include "util/table.h"             // IWYU pragma: export
#include "util/thread_pool.h"       // IWYU pragma: export

#endif  // CROWDPRICE_CROWDPRICE_H_

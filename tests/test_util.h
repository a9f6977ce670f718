// Shared helpers for the test suites.

#ifndef CROWDPRICE_TESTS_TEST_UTIL_H_
#define CROWDPRICE_TESTS_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

#include "market/controller.h"
#include "market/types.h"
#include "util/macros.h"
#include "util/result.h"

namespace crowdprice::test_util {

/// Consults a controller with a single-type request and unwraps the
/// 1-offer sheet -- the sheet-surface spelling of the removed legacy
/// Decide(now, remaining). Errors FailedPrecondition when the controller
/// posts more than one offer.
inline Result<market::Offer> SingleOffer(market::PricingController& controller,
                                         double now_hours,
                                         int64_t remaining_tasks) {
  CP_ASSIGN_OR_RETURN(
      market::OfferSheet sheet,
      controller.Decide(market::DecisionRequest::Single(now_hours,
                                                        remaining_tasks)));
  if (sheet.num_types() != 1) {
    return Status::FailedPrecondition(
        "controller posts a multi-offer sheet; SingleOffer serves "
        "single-type policies only");
  }
  return sheet.offers[0];
}

/// Runs `body`, aborting the test binary if it takes longer than `limit`:
/// a deadlock then fails the test instead of hanging the suite.
inline void RunWithWatchdog(const char* what, std::chrono::seconds limit,
                            const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return finished; })) {
      std::fprintf(stderr, "%s still running after %lld s: deadlock\n", what,
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  });
  body();
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();
}

}  // namespace crowdprice::test_util

#endif  // CROWDPRICE_TESTS_TEST_UTIL_H_

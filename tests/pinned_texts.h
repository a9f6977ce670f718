// Pinned artifact texts, shared by hexfloat_test (which builds the
// artifacts behind them and checks that they serialize to these bytes) and
// serialization_test (which checks that no prefix of them decodes).
//
// Committed artifacts and older wire peers depend on these bytes, so a
// codec change must reproduce them exactly. kPinnedArtifact and
// kPinnedMultiTypeArtifact are the legacy deadline and multitype forms,
// which end with the `opt` (cost-to-go) section older builds wrote; readers
// still decode them. Their *PolicyOnly twins are what the writers produce
// now: the same bytes with the `opt` lines deleted.

#ifndef CROWDPRICE_TESTS_PINNED_TEXTS_H_
#define CROWDPRICE_TESTS_PINNED_TEXTS_H_

namespace crowdprice::pinned {

inline constexpr char kPinnedArtifact[] =
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

inline constexpr char kPinnedArtifactPolicyOnly[] =
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
    "1 -1\n";

inline constexpr char kPinnedBudgetArtifact[] =
    "crowdprice-artifact v1\n"
    "kind budget-static\n"
    "budget-meta 3 0x1.5555555555555p-2 0x1.7e43c8800759cp+996\n"
    "12 30\n"
    "7 123456789012\n"
    "0 1\n";

inline constexpr char kPinnedFixedArtifact[] =
    "crowdprice-artifact v1\n"
    "kind fixed-price\n"
    "fixed 77 0x1.999999999999ap-4 0x0.0000000000001p-1022 -0x0p+0\n";

inline constexpr char kPinnedTradeoffArtifact[] =
    "crowdprice-artifact v1\n"
    "kind tradeoff\n"
    "tradeoff 15 0x1.8p+0 0x1.5555555555555p-2 3\n"
    "inf 0x1p-2 0x1.5555555555555p-1\n";

inline constexpr char kPinnedEmptyTradeoffArtifact[] =
    "crowdprice-artifact v1\n"
    "kind tradeoff\n"
    "tradeoff 15 0x1.8p+0 0x1.5555555555555p-2 0\n";

inline constexpr char kPinnedMultiTypeArtifact[] =
    "crowdprice-artifact v1\n"
    "kind multitype\n"
    "multitype-meta 1 1 2 16 4 0x1.05p+7 0x1.b9p+6 0x1.12e0be826d695p-30\n"
    "lambdas 0x1.58p+4 0x1.999999999999ap-4\n"
    "policy\n"
    "-1 16392\n"
    "4104 20488\n"
    "8200 24584\n"
    "12296 28680\n"
    "opt\n"
    "0x0p+0 0x1.2492492492492p-1 0x1.2492492492492p+0\n"
    "0x1.2492492492492p-3 0x1.6db6db6db6db7p-1 0x1.4924924924925p+0\n"
    "0x1.2492492492492p-2 0x1.b6db6db6db6dbp-1 0x1.6db6db6db6db7p+0\n"
    "0x1.b6db6db6db6dbp-2 0x1p+0 0x1.9249249249249p+0\n";

inline constexpr char kPinnedMultiTypeArtifactPolicyOnly[] =
    "crowdprice-artifact v1\n"
    "kind multitype\n"
    "multitype-meta 1 1 2 16 4 0x1.05p+7 0x1.b9p+6 0x1.12e0be826d695p-30\n"
    "lambdas 0x1.58p+4 0x1.999999999999ap-4\n"
    "policy\n"
    "-1 16392\n"
    "4104 20488\n"
    "8200 24584\n"
    "12296 28680\n";

inline constexpr char kPinnedAdaptiveArtifact[] =
    "crowdprice-artifact v1\n"
    "kind adaptive\n"
    "adaptive-meta 3 2 0x1.19p+7 0x1.4p+0 0x1.12e0be826d695p-30 0x1.4p+3\n"
    "adaptive-options 2 0x1.8p-2 0x1p-1 0x1.8p+1 1 0 3\n"
    "lambdas 0x1.a4p+7 0x1.999999999999ap-4\n"
    "actions 2\n"
    "0x1.4p+3 1 0x1p-3\n"
    "0x1.5555555555555p-2 3 0x1.3333333333333p-2\n";

/// Every pinned artifact text above, legacy forms included.
inline constexpr const char* kEveryPinnedArtifact[] = {
    kPinnedArtifact,          kPinnedArtifactPolicyOnly,
    kPinnedBudgetArtifact,    kPinnedFixedArtifact,
    kPinnedTradeoffArtifact,  kPinnedEmptyTradeoffArtifact,
    kPinnedMultiTypeArtifact, kPinnedMultiTypeArtifactPolicyOnly,
    kPinnedAdaptiveArtifact};

}  // namespace crowdprice::pinned

#endif  // CROWDPRICE_TESTS_PINNED_TEXTS_H_

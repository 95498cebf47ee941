// Statistical property tests for Section 3 of the paper: the majorization
// chain of (k,d)-choice processes. Majorization at x = 1 means the max load
// of the dominated process is stochastically smaller, so its expectation is
// ordered too; we verify the expectation ordering over independent
// repetitions, with a slack margin for sampling noise.
//
//   (ii)  A(k, d+a)  <=mj A(k, d)      (more probes can only help)
//   (iii) A(k-a, d)  <=mj A(k, d)      (fewer balls per round can only help)
//   (iv)  A(ak, ad)  <=mj A(k, d)      (scaling both preserves or helps)
//   (v)   A(k, d)    <=mj A(k+a, d+a)  (the sandwich used for Theorems 1-2)
#include <gtest/gtest.h>

#include <tuple>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "stats/hypothesis.hpp"
#include "theory/bounds.hpp"

namespace {

using kdc::core::experiment_config;
using kdc::core::experiment_result;

constexpr std::uint64_t property_n = 4096;
constexpr std::uint32_t property_reps = 25;

/// `family` at property_n bins on the per-bin reference kernel.
experiment_result perbin_experiment(const char* family, std::uint64_t k,
                                    std::uint64_t d,
                                    const experiment_config& config) {
    return kdc::core::run_scenario_experiment(
        {.family = family, .n = property_n, .k = k, .d = d,
         .kernel = kdc::core::kernel_choice::per_bin},
        config);
}

double mean_max_load(std::uint64_t k, std::uint64_t d, std::uint64_t seed,
                     std::uint64_t balls = property_n) {
    const auto result = perbin_experiment(
        "kd", k, d,
        {.balls = balls - (balls % k), .reps = property_reps, .seed = seed});
    return result.max_load_stats.mean();
}

// Mean-ordering assertions allow this much adverse noise (max loads at this
// scale are integers in a 2..7 band with rep-to-rep variance well under 1).
constexpr double slack = 0.25;

struct pair_params {
    std::uint64_t k_better, d_better; // the majorized (better) process
    std::uint64_t k_worse, d_worse;   // the majorizing (worse) process
};

std::ostream& operator<<(std::ostream& os, const pair_params& p) {
    return os << "A(" << p.k_better << "," << p.d_better << ") <=mj A("
              << p.k_worse << "," << p.d_worse << ")";
}

class MajorizationPair : public testing::TestWithParam<pair_params> {};

TEST_P(MajorizationPair, MeanMaxLoadOrdered) {
    const auto p = GetParam();
    const double better = mean_max_load(p.k_better, p.d_better, 11);
    const double worse = mean_max_load(p.k_worse, p.d_worse, 23);
    EXPECT_LE(better, worse + slack) << GetParam();
}

// Property (ii): increase d with k fixed.
INSTANTIATE_TEST_SUITE_P(
    PropertyII_MoreProbesHelp, MajorizationPair,
    testing::Values(pair_params{1, 3, 1, 2}, pair_params{1, 8, 1, 4},
                    pair_params{2, 6, 2, 3}, pair_params{4, 16, 4, 8},
                    pair_params{8, 32, 8, 16}));

// Property (iii): decrease k with d fixed.
INSTANTIATE_TEST_SUITE_P(
    PropertyIII_FewerBallsHelp, MajorizationPair,
    testing::Values(pair_params{1, 4, 2, 4}, pair_params{1, 4, 3, 4},
                    pair_params{2, 8, 4, 8}, pair_params{2, 16, 8, 16},
                    pair_params{4, 32, 16, 32}));

// Property (iv): scale both by alpha.
INSTANTIATE_TEST_SUITE_P(
    PropertyIV_ScalingHelps, MajorizationPair,
    testing::Values(pair_params{2, 4, 1, 2}, pair_params{4, 8, 1, 2},
                    pair_params{4, 6, 2, 3}, pair_params{8, 16, 2, 4},
                    pair_params{16, 32, 4, 8}));

// Property (v): shift both by alpha (the chain A(1,d-k+1) <= A(k,d)).
INSTANTIATE_TEST_SUITE_P(
    PropertyV_ShiftOrdering, MajorizationPair,
    testing::Values(pair_params{1, 2, 2, 3}, pair_params{1, 2, 4, 5},
                    pair_params{2, 3, 3, 4}, pair_params{1, 5, 4, 8},
                    pair_params{2, 5, 8, 11}));

// The Theorem 2 sandwich A(1, d-k+1) <=mj A(k,d) <=mj A(1, floor(d/k)),
// exercised in the heavily loaded regime (m = 8n) where it is proved.
struct sandwich_params {
    std::uint64_t k, d;
};

std::ostream& operator<<(std::ostream& os, const sandwich_params& p) {
    return os << "(k=" << p.k << ",d=" << p.d << ")";
}

class HeavySandwich : public testing::TestWithParam<sandwich_params> {};

TEST_P(HeavySandwich, MaxLoadBetweenTheTwoDChoiceBrackets) {
    const auto [k, d] = GetParam();
    ASSERT_GE(d, 2 * k) << "Theorem 2 requires d >= 2k";
    const std::uint64_t balls = 8 * property_n;
    const double mid = mean_max_load(k, d, 31, balls);
    const double lower_bracket = mean_max_load(1, d - k + 1, 41, balls);
    const double upper_bracket = mean_max_load(1, d / k, 53, balls);
    EXPECT_GE(mid, lower_bracket - slack) << GetParam();
    EXPECT_LE(mid, upper_bracket + slack) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Theorem2, HeavySandwich,
                         testing::Values(sandwich_params{2, 4},
                                         sandwich_params{2, 6},
                                         sandwich_params{4, 8},
                                         sandwich_params{4, 12},
                                         sandwich_params{8, 16}));

// Round-level invariants across a broad (k,d) grid.
struct grid_params {
    std::uint64_t k, d;
};

std::ostream& operator<<(std::ostream& os, const grid_params& p) {
    return os << "(k=" << p.k << ",d=" << p.d << ")";
}

class KdGrid : public testing::TestWithParam<grid_params> {};

TEST_P(KdGrid, AllBallsPlacedAndEnvelopeRespected) {
    const auto [k, d] = GetParam();
    kdc::core::kd_choice_process process(property_n, k, d, 99);
    const std::uint64_t balls = property_n - (property_n % k);
    process.run_balls(balls);

    const auto metrics = kdc::core::compute_load_metrics(process.loads());
    EXPECT_EQ(metrics.total_balls, balls);

    // Generous w.h.p. envelope: the Theorem 1 prediction plus a wide
    // additive constant. This is a smoke bound, not the tight check (the
    // benchmarks do the tight comparison); it catches gross regressions
    // like ignoring the d probes or the multiplicity rule.
    const auto bound = kdc::theory::theorem1_bound(property_n, k, d);
    EXPECT_LE(static_cast<double>(metrics.max_load), bound.total + 6.0)
        << GetParam();
    // And the trivial lower bound: max load >= ceil(balls / n) = 1.
    EXPECT_GE(metrics.max_load, 1u);
}

TEST_P(KdGrid, MessageCostExact) {
    const auto [k, d] = GetParam();
    kdc::core::kd_choice_process process(property_n, k, d, 7);
    const std::uint64_t balls = property_n - (property_n % k);
    process.run_balls(balls);
    EXPECT_EQ(process.messages(), (balls / k) * d);
}

INSTANTIATE_TEST_SUITE_P(
    BroadGrid, KdGrid,
    testing::Values(grid_params{1, 2}, grid_params{1, 3}, grid_params{1, 9},
                    grid_params{2, 3}, grid_params{2, 5}, grid_params{3, 5},
                    grid_params{4, 5}, grid_params{4, 9}, grid_params{8, 9},
                    grid_params{8, 17}, grid_params{16, 17},
                    grid_params{16, 65}, grid_params{64, 65},
                    grid_params{64, 129}, grid_params{128, 193},
                    grid_params{512, 1024}, grid_params{1024, 2048},
                    grid_params{2048, 4096}));

// The headline special cases the paper calls out in Section 1.1.
TEST(SpecialCases, KdChoiceWithKOneMatchesDChoiceLaw) {
    // (1,d) = classic d-choice: ln ln n / ln d + O(1).
    const double measured = mean_max_load(1, 4, 61);
    const double law = kdc::theory::d_choice_max_load(property_n, 4);
    EXPECT_NEAR(measured, law, 2.5);
}

TEST(SpecialCases, NearDiagonalApproachesSingleChoice) {
    // k = d-1, d large: performance degrades toward single choice, but
    // (64,65)-choice still noticeably beats single choice (the paper's
    // Section 1.2 remark).
    const double near_diag = mean_max_load(64, 65, 71);
    const auto single = perbin_experiment(
        "single", 1, 2,
        {.balls = property_n, .reps = property_reps, .seed = 81});
    EXPECT_LT(near_diag, single.max_load_stats.mean() - slack);
}

TEST(SpecialCases, ConstantLoadRegimeAtDTwiceK) {
    // k = polylog n, d = 2k: Theorem 1(i) promises O(1) max load with 2n
    // messages. At n = 4096, ln^2 n ~ 69; use k = 64, d = 128.
    const auto result = perbin_experiment(
        "kd", 64, 128,
        {.balls = property_n, .reps = property_reps, .seed = 91});
    EXPECT_LE(result.max_load_values.max_value(), 3u);
    for (const auto& rep : result.reps) {
        EXPECT_EQ(rep.messages, 2u * property_n);
    }
}

} // namespace

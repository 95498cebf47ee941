#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/scenario.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "theory/bounds.hpp"

namespace {

using kdc::core::experiment_config;
using kdc::core::experiment_result;
using kdc::core::run_experiment;

/// `family` on the per-bin reference kernel, run through the scenario
/// entry point (balls = 0 selects the policy's default count).
experiment_result perbin_experiment(std::string family, std::uint64_t n,
                                    std::uint64_t k, std::uint64_t d,
                                    const experiment_config& config) {
    return kdc::core::run_scenario_experiment(
        {.family = std::move(family), .n = n, .k = k, .d = d,
         .kernel = kdc::core::kernel_choice::per_bin},
        config);
}

experiment_result kd_experiment(std::uint64_t n, std::uint64_t k,
                                    std::uint64_t d,
                                    const experiment_config& config) {
    return perbin_experiment("kd", n, k, d, config);
}

TEST(Runner, RunsRequestedRepetitions) {
    const auto result =
        kd_experiment(128, 2, 4, {.balls = 128, .reps = 7, .seed = 1});
    EXPECT_EQ(result.reps.size(), 7u);
    EXPECT_EQ(result.max_load_stats.count(), 7u);
    EXPECT_EQ(result.max_load_values.total(), 7u);
}

TEST(Runner, ZeroBallsDefaultsToWholeRoundsWhenNotDivisible) {
    // Regression: n = 100, k = 3 used to pass balls = 100 straight to
    // run_balls, which rejects partial rounds (100 % 3 != 0). The default
    // must round down to 99 balls (33 whole rounds).
    const auto result =
        kd_experiment(100, 3, 7, {.balls = 0, .reps = 3, .seed = 1});
    ASSERT_EQ(result.reps.size(), 3u);
    for (const auto& rep : result.reps) {
        // 99 balls in 100 bins: mean load 0.99, so gap = max - 0.99.
        EXPECT_DOUBLE_EQ(rep.gap, static_cast<double>(rep.max_load) - 0.99);
    }
}

TEST(Runner, WholeRoundsBallsRoundsDown) {
    EXPECT_EQ(kdc::core::whole_rounds_balls(100, 3), 99u);
    EXPECT_EQ(kdc::core::whole_rounds_balls(96, 3), 96u);
    EXPECT_EQ(kdc::core::whole_rounds_balls(5, 5), 5u);
}

TEST(Runner, WholeRoundsBallsRejectsFewerBinsThanK) {
    EXPECT_THROW((void)kdc::core::whole_rounds_balls(2, 3),
                 kdc::contract_violation);
}

TEST(Runner, ZeroBallsDefaultsToN) {
    const auto result =
        kd_experiment(128, 2, 4, {.balls = 0, .reps = 2, .seed = 1});
    // n balls -> mean load exactly 1, so gap = max - 1.
    for (const auto& rep : result.reps) {
        EXPECT_DOUBLE_EQ(rep.gap,
                         static_cast<double>(rep.max_load) - 1.0);
    }
}

TEST(Runner, MessagesMatchTheoryOracle) {
    const auto result =
        kd_experiment(120, 3, 5, {.balls = 120, .reps = 3, .seed = 2});
    for (const auto& rep : result.reps) {
        EXPECT_EQ(rep.messages, kdc::theory::message_cost(120, 3, 5));
    }
}

TEST(Runner, DeterministicUnderMasterSeed) {
    const auto a =
        kd_experiment(256, 2, 4, {.balls = 256, .reps = 5, .seed = 42});
    const auto b =
        kd_experiment(256, 2, 4, {.balls = 256, .reps = 5, .seed = 42});
    ASSERT_EQ(a.reps.size(), b.reps.size());
    for (std::size_t i = 0; i < a.reps.size(); ++i) {
        EXPECT_EQ(a.reps[i].max_load, b.reps[i].max_load);
    }
}

TEST(Runner, RepetitionsAreIndependent) {
    const auto result =
        kd_experiment(512, 1, 2, {.balls = 512, .reps = 20, .seed = 3});
    // With 20 independent reps of (1,2) at n=512 the max load should not be
    // identical in every rep AND equal to a degenerate value like 0/1.
    EXPECT_GE(result.max_load_values.min_value(), 2u);
}

TEST(Runner, MaxLoadSetFormatsLikeTable1) {
    const auto result =
        kd_experiment(512, 1, 2, {.balls = 512, .reps = 10, .seed = 4});
    const std::string set = result.max_load_set();
    EXPECT_FALSE(set.empty());
    // Must be "a" or "a, b" style: digits, commas, spaces only.
    EXPECT_EQ(set.find_first_not_of("0123456789, "), std::string::npos);
}

TEST(Runner, SingleChoiceConvenience) {
    const auto result =
        perbin_experiment("single", 256, 1, 2,
                          {.balls = 256, .reps = 4, .seed = 5});
    EXPECT_EQ(result.reps.size(), 4u);
    for (const auto& rep : result.reps) {
        EXPECT_EQ(rep.messages, 256u);
    }
}

TEST(Runner, DChoiceConvenience) {
    const auto result =
        perbin_experiment("dchoice", 256, 1, 3,
                          {.balls = 256, .reps = 4, .seed = 6});
    for (const auto& rep : result.reps) {
        EXPECT_EQ(rep.messages, 256u * 3u);
    }
}

TEST(Runner, GenericOverCustomFactory) {
    const auto result = run_experiment(
        {.balls = 100, .reps = 3, .seed = 9}, [](std::uint64_t seed) {
            return kdc::core::single_choice_process(50, seed);
        });
    EXPECT_EQ(result.reps.size(), 3u);
}

TEST(Runner, InvalidConfigViolatesContract) {
    EXPECT_THROW((void)kd_experiment(
                     128, 2, 4, {.balls = 128, .reps = 0, .seed = 1}),
                 kdc::contract_violation);
}

TEST(Runner, GapStatsAggregates) {
    const auto result =
        kd_experiment(256, 2, 4, {.balls = 2560, .reps = 5, .seed = 10});
    EXPECT_EQ(result.gap_stats.count(), 5u);
    EXPECT_GE(result.gap_stats.min(), 0.0);
}

} // namespace

// The behavioural contract of the scenario API: cells and experiments
// built from scenarios are BYTE-identical to hand-written factories for
// equivalent settings, and the level-compressed (1+beta) kernel is
// distributionally identical to its per-bin counterpart (two-sample KS at
// n = 10^4).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/level_process.hpp"
#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "stats/hypothesis.hpp"

using namespace kdc::core;

namespace {

bool same_rep(const repetition_result& a, const repetition_result& b) {
    return a.max_load == b.max_load && a.gap == b.gap &&
           a.messages == b.messages && a.empty_bins == b.empty_bins;
}

/// Runs one repetition of a legacy process factory exactly as the sweep
/// layer does.
template <typename Factory>
repetition_result legacy_rep(Factory factory, std::uint64_t seed,
                             std::uint64_t balls) {
    return run_one_repetition(seed, balls, factory);
}

repetition_result scenario_rep(const scenario& sc, std::uint64_t seed,
                               std::uint64_t balls) {
    auto cell = make_scenario_cell("cell", sc,
                                   {.balls = balls, .reps = 1, .seed = 1});
    return cell.run_rep(seed);
}

} // namespace

TEST(ScenarioEquivalence, KdPerBinMatchesLegacyFactoryByteForByte) {
    constexpr std::uint64_t n = 4096;
    auto sc = parse_scenario("kd:n=4096,k=2,d=4,kernel=perbin");
    for (std::uint64_t seed : {1ull, 99ull, 12345ull}) {
        const auto expected = legacy_rep(
            [&](std::uint64_t s) { return kd_choice_process(n, 2, 4, s); },
            seed, n);
        EXPECT_TRUE(same_rep(scenario_rep(sc, seed, n), expected)) << seed;
    }
}

TEST(ScenarioEquivalence, KdLevelMatchesLegacyFactoryByteForByte) {
    constexpr std::uint64_t n = 4096;
    auto sc = parse_scenario("kd:n=4096,k=2,d=4,kernel=level");
    const auto expected = legacy_rep(
        [&](std::uint64_t s) { return kd_choice_level_process(n, 2, 4, s); },
        42, n);
    EXPECT_TRUE(same_rep(scenario_rep(sc, 42, n), expected));
}

TEST(ScenarioEquivalence, EveryBaselinePolicyMatchesItsLegacyProcess) {
    constexpr std::uint64_t n = 2048;
    const std::uint64_t seed = 7;
    EXPECT_TRUE(same_rep(
        scenario_rep(parse_scenario("single:n=2048,kernel=perbin"), seed, n),
        legacy_rep([&](std::uint64_t s) { return single_choice_process(n, s); },
                   seed, n)));
    EXPECT_TRUE(same_rep(
        scenario_rep(parse_scenario("dchoice:n=2048,d=3,kernel=perbin"),
                     seed, n),
        legacy_rep([&](std::uint64_t s) { return d_choice_process(n, 3, s); },
                   seed, n)));
    EXPECT_TRUE(same_rep(
        scenario_rep(parse_scenario(
                         "one_plus_beta:n=2048,beta=0.25,kernel=perbin"),
                     seed, n),
        legacy_rep(
            [&](std::uint64_t s) {
                return one_plus_beta_process(n, 0.25, s);
            },
            seed, n)));
    EXPECT_TRUE(same_rep(
        scenario_rep(parse_scenario("threshold:n=2048,threshold=2,cap=16"),
                     seed, n),
        legacy_rep(
            [&](std::uint64_t s) {
                return adaptive_threshold_process(n, 2, 16, s);
            },
            seed, n)));
    EXPECT_TRUE(same_rep(
        scenario_rep(parse_scenario("greedy:n=2048,k=2,d=4"), seed, n),
        legacy_rep(
            [&](std::uint64_t s) {
                return batched_greedy_process(n, 2, 4, s);
            },
            seed, n)));
    // The Table-1 (1,1) degeneration is single choice by construction.
    EXPECT_TRUE(same_rep(
        scenario_rep(parse_scenario("kd:n=2048,k=1,d=1,kernel=perbin"), seed,
                     n),
        legacy_rep([&](std::uint64_t s) { return single_choice_process(n, s); },
                   seed, n)));
}

TEST(ScenarioEquivalence, ScenarioExperimentMatchesLegacyRunner) {
    constexpr std::uint64_t n = 2048;
    const experiment_config config{.balls = n, .reps = 5, .seed = 11};
    const auto legacy = run_experiment(config, [](std::uint64_t seed) {
        return kd_choice_process(n, 2, 4, seed);
    });
    const auto via_scenario = run_scenario_experiment(
        parse_scenario("kd:n=2048,k=2,d=4,kernel=perbin"), config);
    ASSERT_EQ(legacy.reps.size(), via_scenario.reps.size());
    for (std::size_t i = 0; i < legacy.reps.size(); ++i) {
        EXPECT_TRUE(same_rep(legacy.reps[i], via_scenario.reps[i])) << i;
    }
    EXPECT_EQ(legacy.max_load_set(), via_scenario.max_load_set());
    EXPECT_EQ(legacy.max_load_stats.mean(),
              via_scenario.max_load_stats.mean());
}

TEST(ScenarioEquivalence, WithoutReplacementReachesThePerBinProcess) {
    constexpr std::uint64_t n = 1024;
    auto sc = parse_scenario(
        "kd:n=1024,k=2,d=8,replacement=without,kernel=perbin");
    const auto expected = legacy_rep(
        [&](std::uint64_t s) {
            kd_choice_process process(n, 2, 8, s);
            process.set_probe_mode(probe_mode::without_replacement);
            return process;
        },
        5, n);
    EXPECT_TRUE(same_rep(scenario_rep(sc, 5, n), expected));
}

// ---------------------------------------------------------------------------
// KS equivalence of the (1+beta) level kernel vs per-bin, n = 10^4.
// ---------------------------------------------------------------------------

namespace {

std::vector<double> collect_integer_max(
    const std::function<std::vector<double>(std::uint64_t)>& run, int reps,
    std::uint64_t seed_base) {
    std::vector<double> out;
    for (int rep = 0; rep < reps; ++rep) {
        const auto values = run(
            kdc::rng::derive_seed(seed_base, static_cast<std::uint32_t>(rep)));
        out.insert(out.end(), values.begin(), values.end());
    }
    return out;
}

} // namespace

TEST(OnePlusBetaLevelProcess, KsAgreementWithPerBinKernelAtTenThousandBins) {
    constexpr std::uint64_t n = 10'000;
    constexpr int reps = 120;
    for (const double beta : {0.25, 0.5, 1.0}) {
        auto perbin = collect_integer_max(
            [&](std::uint64_t s) {
                one_plus_beta_process process(n, beta, s);
                process.run_balls(n);
                const auto metrics = observed_load_metrics(process);
                return std::vector<double>{
                    static_cast<double>(metrics.max_load),
                    static_cast<double>(metrics.empty_bins)};
            },
            reps, 2'200);
        auto level = collect_integer_max(
            [&](std::uint64_t s) {
                one_plus_beta_level_process process(n, beta, s);
                process.run_balls(n);
                const auto metrics = observed_load_metrics(process);
                return std::vector<double>{
                    static_cast<double>(metrics.max_load),
                    static_cast<double>(metrics.empty_bins)};
            },
            reps, 64'200);
        // Split the interleaved (max, empty) samples back apart.
        std::vector<double> perbin_max;
        std::vector<double> perbin_empty;
        std::vector<double> level_max;
        std::vector<double> level_empty;
        for (std::size_t i = 0; i < perbin.size(); i += 2) {
            perbin_max.push_back(perbin[i]);
            perbin_empty.push_back(perbin[i + 1]);
            level_max.push_back(level[i]);
            level_empty.push_back(level[i + 1]);
        }
        const auto ks_max = kdc::stats::ks_two_sample(perbin_max, level_max);
        EXPECT_GT(ks_max.p_value, 1e-3)
            << "(1+beta) max mismatch at beta=" << beta
            << " D=" << ks_max.statistic;
        const auto ks_empty =
            kdc::stats::ks_two_sample(perbin_empty, level_empty);
        EXPECT_GT(ks_empty.p_value, 1e-3)
            << "(1+beta) empty-bins mismatch at beta=" << beta
            << " D=" << ks_empty.statistic;
    }
}

TEST(OnePlusBetaLevelProcess, CountsMessagesAndDegenerateBetas) {
    // beta = 0 is single choice: exactly one message per ball.
    one_plus_beta_level_process zero(64, 0.0, 3);
    zero.run_balls(128);
    EXPECT_EQ(zero.balls_placed(), 128u);
    EXPECT_EQ(zero.messages(), 128u);
    EXPECT_EQ(zero.profile().total_balls(), 128u);
    // beta = 1 is two-choice: exactly two messages per ball.
    one_plus_beta_level_process one(64, 1.0, 3);
    one.run_balls(128);
    EXPECT_EQ(one.messages(), 256u);
    EXPECT_EQ(one.profile().total_balls(), 128u);
    // A one-bin instance cannot lose balls to the duplicate-probe path.
    one_plus_beta_level_process tiny(1, 0.7, 9);
    tiny.run_balls(50);
    EXPECT_EQ(tiny.profile().max_level(), 50u);
}

TEST(ScenarioEquivalence, SweepCellMetricFollowsTheScenario) {
    const auto sc = parse_scenario("kd:n=512,k=2,d=4,metric=gap");
    const auto cell = make_scenario_cell("cell", sc, {.reps = 3, .seed = 1});
    EXPECT_EQ(cell.metric, metric_kind::gap);
    EXPECT_EQ(cell.config.balls, 512u); // resolved whole-rounds default
}

TEST(ScenarioEquivalence, ParRoundMatchesParRepByteForByte) {
    // par=round swaps the execution strategy, never the numbers: through
    // the policy table, a sharded repetition is byte-identical to the serial
    // per-bin one at every shard count, with or without a pool.
    const auto serial = parse_scenario("kd:n=10000,k=3,d=8,kernel=perbin");
    const auto base_rep = run_scenario_repetition(serial, 42, 10'000 * 3);
    for (const char* shards : {"auto", "1", "4", "64"}) {
        auto sharded = parse_scenario(
            std::string("kd:n=10000,k=3,d=8,par=round,kernel=perbin,shards=") +
            shards);
        const auto inline_rep =
            run_scenario_repetition(sharded, 42, 10'000 * 3);
        EXPECT_TRUE(same_rep(base_rep, inline_rep)) << "shards=" << shards;
        for (const unsigned threads : {1u, 2u, 8u}) {
            thread_pool pool(threads);
            const auto pooled_rep = run_scenario_repetition(
                sharded, 42, 10'000 * 3, &pool);
            EXPECT_TRUE(same_rep(base_rep, pooled_rep))
                << "shards=" << shards << " threads=" << threads;
        }
    }
}

TEST(ScenarioEquivalence, ParRoundAutoKernelIsThePerBinKernel) {
    // kernel=auto under par=round resolves to perbin, so the round-parallel
    // scenario is byte-identical to the per-bin par=rep one.
    const auto sharded = parse_scenario("kd:n=10000,k=3,d=8,par=round");
    EXPECT_EQ(resolve_kernel(sharded), kernel_choice::per_bin);
    const auto serial =
        parse_scenario("kd:n=10000,k=3,d=8,kernel=perbin,par=rep");
    thread_pool pool(4);
    for (const std::uint64_t seed : {7ull, 42ull}) {
        EXPECT_TRUE(same_rep(
            run_scenario_repetition(serial, seed, 10'000 * 3),
            run_scenario_repetition(sharded, seed, 10'000 * 3, &pool)))
            << seed;
    }
}

TEST(ScenarioEquivalence, ParRoundExperimentMatchesSerialExperiment) {
    // Whole experiments (multiple repetitions, rep-order folds) agree too,
    // on the pool-sharing engine overload.
    const auto serial = parse_scenario("kd:n=4096,k=2,d=4,kernel=perbin");
    auto sharded =
        parse_scenario("kd:n=4096,k=2,d=4,kernel=perbin,par=round,shards=8");
    const experiment_config config{.balls = 8192, .reps = 5, .seed = 9};
    const auto a = run_scenario_experiment(serial, config);
    thread_pool pool(4);
    const auto b = run_scenario_experiment(sharded, config, pool);
    ASSERT_EQ(a.reps.size(), b.reps.size());
    for (std::size_t i = 0; i < a.reps.size(); ++i) {
        EXPECT_TRUE(same_rep(a.reps[i], b.reps[i])) << "rep " << i;
    }
}

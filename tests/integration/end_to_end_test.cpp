// Integration tests: scaled-down versions of the paper's evaluation
// artifacts, run end-to-end through the public API. The full-scale versions
// live in bench/; these guard the same pipelines at test-friendly sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/kdchoice.hpp"
#include "rng/pcg32.hpp"
#include "sched/scheduler.hpp"
#include "stats/hypothesis.hpp"
#include "storage/cluster.hpp"
#include "theory/bounds.hpp"

namespace {

using kdc::core::compute_load_metrics;
using kdc::core::experiment_config;
using kdc::core::experiment_result;
using kdc::core::kd_choice_process;

constexpr std::uint64_t mini_n = 3ULL << 10; // Table 1 at 1/64 scale

/// (k,d)-choice on the per-bin reference kernel, through the scenario API.
experiment_result kd_experiment(std::uint64_t n, std::uint64_t k,
                                std::uint64_t d,
                                const experiment_config& config) {
    return kdc::core::run_scenario_experiment(
        {.n = n, .k = k, .d = d, .kernel = kdc::core::kernel_choice::per_bin},
        config);
}

experiment_result single_choice_experiment(std::uint64_t n,
                                           const experiment_config& config) {
    return kdc::core::run_scenario_experiment(
        {.family = "single", .n = n,
         .kernel = kdc::core::kernel_choice::per_bin},
        config);
}

TEST(Table1Mini, SingleChoiceColumnMagnitude) {
    const auto result = single_choice_experiment(
        mini_n, {.balls = mini_n, .reps = 10, .seed = 1});
    // ln n / ln ln n ~ 3.9 at this n; measured single-choice max load at
    // this scale lands in 5..9.
    EXPECT_GE(result.max_load_values.min_value(), 4u);
    EXPECT_LE(result.max_load_values.max_value(), 10u);
}

TEST(Table1Mini, MaxLoadDecreasesAlongTheDAxis) {
    // Within the k=1 row of Table 1, mean max load is non-increasing in d.
    double prev = 1e9;
    for (const std::uint64_t d : {2ULL, 3ULL, 5ULL, 9ULL, 17ULL}) {
        const auto result = kd_experiment(
            mini_n, 1, d, {.balls = mini_n, .reps = 10, .seed = 2});
        const double mean = result.max_load_stats.mean();
        EXPECT_LE(mean, prev + 0.11) << "d=" << d;
        prev = mean;
    }
}

TEST(Table1Mini, NearDiagonalCellsDegradeGracefully) {
    // Along the diagonal k = d-1, max load grows as k grows (toward the
    // single-choice limit) — the staircase visible in Table 1.
    const auto small = kd_experiment(
        mini_n, 2, 3, {.balls = mini_n, .reps = 10, .seed = 3});
    const auto large = kd_experiment(
        mini_n, 96, 97, {.balls = mini_n, .reps = 10, .seed = 4});
    EXPECT_LE(small.max_load_stats.mean(), large.max_load_stats.mean());
}

TEST(Table1Mini, WideDCellsReachTwo) {
    // Cells with large d and small-to-moderate k all read "2" in Table 1.
    for (const auto& [k, d] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {1, 49}, {2, 49}, {8, 49}, {16, 193}, {64, 193}}) {
        const auto result = kd_experiment(
            mini_n, k, d, {.balls = mini_n - (mini_n % k), .reps = 10,
                           .seed = 5});
        EXPECT_LE(result.max_load_values.max_value(), 3u)
            << "k=" << k << " d=" << d;
        EXPECT_GE(result.max_load_values.min_value(), 2u);
    }
}

TEST(Theorem1Envelope, MeasuredWithinBoundsAcrossRegimes) {
    // dk = O(1) regime and dk -> infinity regime, both sandwiched by the
    // Theorem 1 expressions with an additive constant of 3 (the paper's
    // O(1) slack at this scale).
    for (const auto& [k, d] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {1, 2}, {2, 4}, {8, 16},      // dk small
             {31, 32}, {95, 96}}) {        // dk large
        const auto result = kd_experiment(
            mini_n, k, d,
            {.balls = mini_n - (mini_n % k), .reps = 10, .seed = 6});
        const auto bound = kdc::theory::theorem1_bound(mini_n, k, d);
        EXPECT_LE(result.max_load_stats.mean(), bound.total + 3.0)
            << "k=" << k << " d=" << d;
        EXPECT_GE(result.max_load_stats.mean(), bound.first - 3.0)
            << "k=" << k << " d=" << d;
    }
}

TEST(Figure1Pipeline, SortedLoadVectorWithBeta0Landmark) {
    kd_choice_process process(mini_n, 4, 8, 7);
    process.run_balls(mini_n);
    const auto sorted = kdc::core::sorted_loads_desc(process.loads());
    ASSERT_EQ(sorted.size(), mini_n);
    // Sorted non-increasing.
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        ASSERT_LE(sorted[i], sorted[i - 1]);
    }
    // The landmark beta0 = n/(6 dk) falls inside the vector and the load at
    // beta0 is between 0 and the max.
    const auto beta0 = static_cast<std::size_t>(
        kdc::theory::beta0_landmark(mini_n, 4, 8));
    ASSERT_LT(beta0, sorted.size());
    EXPECT_LE(sorted[beta0], sorted.front());
}

TEST(Figure2Pipeline, LowerBoundLandmarksOrdered) {
    kd_choice_process process(mini_n, 64, 65, 8);
    process.run_balls(mini_n);
    const auto sorted = kdc::core::sorted_loads_desc(process.loads());
    const auto gamma_star = static_cast<std::size_t>(
        kdc::theory::gamma_star_landmark(mini_n, 64, 65));
    const auto gamma0 = static_cast<std::size_t>(
        kdc::theory::gamma0_landmark(mini_n, 65));
    ASSERT_LT(gamma_star, sorted.size());
    ASSERT_LT(gamma0, sorted.size());
    // gamma0 < gamma_star (for dk > ... here 4n/dk vs n/d) and loads at the
    // two ranks are ordered accordingly (B is non-increasing in rank).
    ASSERT_LT(gamma0, gamma_star);
    EXPECT_GE(sorted[gamma0], sorted[gamma_star]);
}

TEST(TradeoffClaim, ConstantLoadWithTwoNMessages) {
    // Section 1.1: k = Theta(polylog n), d = 2k gives O(1) max load at
    // message cost exactly 2n.
    const std::uint64_t k = 96; // ~ ln^2 n at mini_n
    const auto result = kd_experiment(
        mini_n, k, 2 * k, {.balls = mini_n, .reps = 10, .seed = 9});
    EXPECT_LE(result.max_load_values.max_value(), 3u);
    for (const auto& rep : result.reps) {
        EXPECT_EQ(rep.messages, 2 * mini_n);
    }
}

TEST(TradeoffClaim, NearMinimalMessagesStillBeatSingleChoice) {
    // k large, d = k + ln n: message cost (1 + o(1)) n, max load well below
    // single choice.
    const std::uint64_t k = 384;
    const std::uint64_t d = k + 8; // ~ k + ln n
    const auto kd = kd_experiment(
        mini_n, k, d, {.balls = mini_n, .reps = 10, .seed = 10});
    const auto single = single_choice_experiment(
        mini_n, {.balls = mini_n, .reps = 10, .seed = 11});
    EXPECT_LT(kd.max_load_stats.mean(), single.max_load_stats.mean());
    const double cost_ratio =
        static_cast<double>(kd.reps.front().messages) /
        static_cast<double>(mini_n);
    EXPECT_LT(cost_ratio, 1.1);
}

TEST(CrossRng, Pcg32DrivenSamplingAgreesWithXoshiro) {
    // Guard against generator artifacts: the same experiment driven by an
    // independent generator family must produce the same max-load
    // distribution (KS test over repetitions).
    std::vector<double> xoshiro_max;
    std::vector<double> pcg_max;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        kd_choice_process xp(512, 2, 4, 100 + seed);
        xp.run_balls(512);
        xoshiro_max.push_back(static_cast<double>(
            compute_load_metrics(xp.loads()).max_load));

        // Drive the round kernel directly with pcg32.
        kdc::rng::pcg32 gen(200 + seed);
        kdc::core::load_vector loads(512, 0);
        kdc::core::round_scratch scratch;
        std::vector<std::uint32_t> samples(4);
        for (int round = 0; round < 256; ++round) {
            kdc::rng::sample_with_replacement(
                gen, 512, std::span<std::uint32_t>(samples));
            kdc::core::place_round(loads, samples, 2, gen, scratch);
        }
        pcg_max.push_back(static_cast<double>(
            compute_load_metrics(loads).max_load));
    }
    const auto ks = kdc::stats::ks_two_sample(xoshiro_max, pcg_max);
    EXPECT_GT(ks.p_value, 1e-3);
}

TEST(HeavyLoad, GapStabilizesForDChoiceFlavors) {
    // Berenbrink et al.: the two-choice gap is independent of m. Check the
    // gap at m = 4n vs m = 16n stays within a small band for (2,4).
    const auto light = kd_experiment(
        1024, 2, 4, {.balls = 4 * 1024, .reps = 10, .seed = 12});
    const auto heavy = kd_experiment(
        1024, 2, 4, {.balls = 16 * 1024, .reps = 10, .seed = 13});
    EXPECT_NEAR(light.gap_stats.mean(), heavy.gap_stats.mean(), 1.5);
}

TEST(EndToEnd, SchedulerAndStorageShareTheCoreKernel) {
    // Smoke: the two application models run on the same (k,d) kernel and
    // produce sane outputs in one process.
    kdc::sched::scheduler_config sched_config;
    sched_config.workers = 16;
    sched_config.jobs = 64;
    sched_config.tasks_per_job = 2;
    sched_config.probes = 4;
    sched_config.arrival_rate = 2.0;
    sched_config.seed = 14;
    const auto sched_result = kdc::sched::simulate(sched_config);
    EXPECT_EQ(sched_result.tasks_completed, 128u);

    kdc::storage::storage_config storage_config;
    storage_config.servers = 64;
    storage_config.replicas_per_file = 2;
    storage_config.probes = 4;
    storage_config.seed = 15;
    kdc::storage::storage_cluster cluster(storage_config);
    cluster.place_files(256);
    EXPECT_EQ(compute_load_metrics(cluster.server_loads()).total_balls, 512u);
}

} // namespace

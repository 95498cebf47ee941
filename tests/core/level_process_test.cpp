// Distributional-equivalence suite for the level-compressed kernels: the
// level processes must be indistinguishable from their per-bin references —
// exactly (chi-square against core/exact enumeration at tiny n) and
// statistically (two-sample KS on max load / empty bins at n = 10^4).
#include "core/level_process.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "stats/hypothesis.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::core::d_choice_level_process;
using kdc::core::d_choice_process;
using kdc::core::kd_choice_level_process;
using kdc::core::kd_choice_process;
using kdc::core::level_profile;
using kdc::core::single_choice_level_process;
using kdc::core::single_choice_process;

/// Bins over levels [0, max_level]: n whenever no bin is missing.
std::uint64_t bins_in(const level_profile& profile) {
    std::uint64_t bins = 0;
    for (std::uint64_t level = 0; level <= profile.max_level(); ++level) {
        bins += profile.bins_at(level);
    }
    return bins;
}

TEST(KdChoiceLevelProcess, ContractChecks) {
    EXPECT_THROW(kd_choice_level_process(10, 0, 2, 1),
                 kdc::contract_violation);
    EXPECT_THROW(kd_choice_level_process(10, 2, 2, 1),
                 kdc::contract_violation);
    EXPECT_THROW(kd_choice_level_process(3, 2, 4, 1),
                 kdc::contract_violation);
    kd_choice_level_process process(10, 2, 4, 1);
    EXPECT_THROW(process.run_balls(3), kdc::contract_violation);
}

TEST(KdChoiceLevelProcess, CountsBallsRoundsAndMessages) {
    kd_choice_level_process process(64, 3, 7, 5);
    process.run_balls(30);
    EXPECT_EQ(process.balls_placed(), 30u);
    EXPECT_EQ(process.rounds_run(), 10u);
    EXPECT_EQ(process.messages(), 70u);
    EXPECT_EQ(process.n(), 64u);
    EXPECT_EQ(process.k(), 3u);
    EXPECT_EQ(process.d(), 7u);
    EXPECT_EQ(process.profile().total_balls(), 30u);
    EXPECT_EQ(bins_in(process.profile()), 64u);
}

TEST(KdChoiceLevelProcess, SnapshotResumeCountsOnlyNewActivity) {
    auto initial = level_profile::from_loads({5, 5, 0, 0});
    kd_choice_level_process process(std::move(initial), 1, 2, 9);
    EXPECT_EQ(process.balls_placed(), 0u);
    process.run_balls(4);
    EXPECT_EQ(process.balls_placed(), 4u);
    EXPECT_EQ(process.profile().total_balls(), 14u);
}

TEST(KdChoiceLevelProcess, MovedProcessKeepsWorkingIndependently) {
    // The batched probe sampler is plain state (no pointer back into the
    // process), so the compiler-generated move must yield a process that
    // draws from its OWN generator — vector storage and non-elided returns
    // are safe.
    kd_choice_level_process original(64, 2, 4, 5);
    original.run_balls(10);
    kd_choice_level_process moved = std::move(original);
    moved.run_balls(10);
    EXPECT_EQ(moved.balls_placed(), 20u);
    EXPECT_EQ(moved.profile().total_balls(), 20u);
    EXPECT_EQ(bins_in(moved.profile()), 64u);

    std::vector<kd_choice_level_process> stored;
    stored.push_back(kd_choice_level_process(16, 1, 2, 9));
    stored.push_back(kd_choice_level_process(16, 1, 2, 10)); // may realloc
    stored[0].run_balls(4);
    EXPECT_EQ(stored[0].balls_placed(), 4u);
    EXPECT_EQ(stored[0].profile().total_balls(), 4u);
}

TEST(KdChoiceLevelProcess, ExactSmallInstanceDistributionsMatch) {
    // Mirror of exact_test's ExactVsSimulation, but for the level kernel:
    // the collision simulation plus slot selection must reproduce the exact
    // max-load law of the process definition.
    for (const auto& [n, k, d] :
         std::vector<std::tuple<std::uint64_t, std::uint64_t,
                                std::uint64_t>>{
             {2, 1, 2}, {4, 1, 2}, {4, 2, 3}, {6, 2, 3}}) {
        const auto exact = kdc::core::exact_max_load(n, k, d);
        const auto max_value = exact.rbegin()->first;

        std::vector<std::uint64_t> observed(max_value + 1, 0);
        constexpr int trials = 20000;
        for (int t = 0; t < trials; ++t) {
            kd_choice_level_process process(
                n, k, d, 20000 + static_cast<std::uint64_t>(t) * 13 +
                             n * 1000 + d);
            process.run_balls(n);
            const auto max = process.profile().metrics().max_load;
            ASSERT_LE(max, max_value);
            ++observed[max];
        }

        std::vector<double> expected(max_value + 1, 0.0);
        for (const auto& [v, p] : exact) {
            expected[v] = p;
        }
        const auto result = kdc::stats::chi_square_gof(observed, expected);
        EXPECT_GT(result.p_value, 1e-4)
            << "n=" << n << " k=" << k << " d=" << d
            << " chi2=" << result.statistic;
    }
}

/// Runs `reps` repetitions of `process_factory(seed)` for m balls and
/// returns the per-rep (max_load, empty_bins) samples as doubles.
template <typename Factory>
std::pair<std::vector<double>, std::vector<double>>
collect_samples(Factory factory, std::uint64_t balls, int reps,
                std::uint64_t seed_base) {
    std::vector<double> max_loads;
    std::vector<double> empty_bins;
    max_loads.reserve(static_cast<std::size_t>(reps));
    empty_bins.reserve(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) {
        auto process =
            factory(seed_base + static_cast<std::uint64_t>(rep) * 101);
        process.run_balls(balls);
        const auto metrics = kdc::core::observed_load_metrics(process);
        max_loads.push_back(static_cast<double>(metrics.max_load));
        empty_bins.push_back(static_cast<double>(metrics.empty_bins));
    }
    return {std::move(max_loads), std::move(empty_bins)};
}

TEST(KdChoiceLevelProcess, KsAgreementWithPerBinKernelAtTenThousandBins) {
    constexpr std::uint64_t n = 10'000;
    constexpr int reps = 120;
    for (const auto& [k, d] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{{1, 2},
                                                              {2, 4},
                                                              {8, 16}}) {
        const std::uint64_t balls = n - (n % k);
        auto [perbin_max, perbin_empty] = collect_samples(
            [&](std::uint64_t s) { return kd_choice_process(n, k, d, s); },
            balls, reps, 500);
        auto [level_max, level_empty] = collect_samples(
            [&](std::uint64_t s) {
                return kd_choice_level_process(n, k, d, s);
            },
            balls, reps, 77'000);
        const auto ks_max =
            kdc::stats::ks_two_sample(perbin_max, level_max);
        EXPECT_GT(ks_max.p_value, 1e-3)
            << "max load mismatch at k=" << k << " d=" << d
            << " D=" << ks_max.statistic;
        const auto ks_empty =
            kdc::stats::ks_two_sample(perbin_empty, level_empty);
        EXPECT_GT(ks_empty.p_value, 1e-3)
            << "empty bins mismatch at k=" << k << " d=" << d
            << " D=" << ks_empty.statistic;
    }
}

TEST(KdChoiceLevelProcess, HeavyLoadGapAgreesWithPerBinKernel) {
    // The regime the level kernel exists for: m = 16n. Compare the mean gap
    // across repetitions via KS on the per-rep gaps.
    constexpr std::uint64_t n = 2'048;
    constexpr std::uint64_t balls = 16 * n;
    constexpr int reps = 80;
    auto gaps = [&](auto factory, std::uint64_t seed_base) {
        std::vector<double> out;
        for (int rep = 0; rep < reps; ++rep) {
            auto process =
                factory(seed_base + static_cast<std::uint64_t>(rep));
            process.run_balls(balls);
            out.push_back(kdc::core::observed_load_metrics(process).gap);
        }
        return out;
    };
    const auto perbin = gaps(
        [&](std::uint64_t s) { return kd_choice_process(n, 2, 4, s); }, 31);
    const auto level = gaps(
        [&](std::uint64_t s) { return kd_choice_level_process(n, 2, 4, s); },
        9'031);
    const auto ks = kdc::stats::ks_two_sample(perbin, level);
    EXPECT_GT(ks.p_value, 1e-3) << "D=" << ks.statistic;
}

TEST(SingleChoiceLevelProcess, KsAgreementWithPerBinKernel) {
    constexpr std::uint64_t n = 10'000;
    constexpr int reps = 120;
    auto [perbin_max, perbin_empty] = collect_samples(
        [&](std::uint64_t s) { return single_choice_process(n, s); }, n,
        reps, 1'200);
    auto [level_max, level_empty] = collect_samples(
        [&](std::uint64_t s) { return single_choice_level_process(n, s); },
        n, reps, 88'200);
    EXPECT_GT(kdc::stats::ks_two_sample(perbin_max, level_max).p_value,
              1e-3);
    EXPECT_GT(kdc::stats::ks_two_sample(perbin_empty, level_empty).p_value,
              1e-3);
}

TEST(DChoiceLevelProcess, KsAgreementWithPerBinKernel) {
    constexpr std::uint64_t n = 10'000;
    constexpr int reps = 120;
    for (const std::uint64_t d : {2ULL, 4ULL}) {
        auto [perbin_max, perbin_empty] = collect_samples(
            [&](std::uint64_t s) { return d_choice_process(n, d, s); }, n,
            reps, 3'400);
        auto [level_max, level_empty] = collect_samples(
            [&](std::uint64_t s) { return d_choice_level_process(n, d, s); },
            n, reps, 91'400);
        EXPECT_GT(kdc::stats::ks_two_sample(perbin_max, level_max).p_value,
                  1e-3)
            << "d=" << d;
        EXPECT_GT(
            kdc::stats::ks_two_sample(perbin_empty, level_empty).p_value,
            1e-3)
            << "d=" << d;
    }
}

TEST(DChoiceLevelProcess, CountsAndContracts) {
    d_choice_level_process process(32, 3, 7);
    process.run_balls(10);
    EXPECT_EQ(process.balls_placed(), 10u);
    EXPECT_EQ(process.messages(), 30u);
    EXPECT_EQ(process.profile().total_balls(), 10u);
    EXPECT_THROW(d_choice_level_process(2, 3, 1), kdc::contract_violation);
}

TEST(SingleChoiceLevelProcess, Counts) {
    single_choice_level_process process(32, 7);
    process.run_balls(100);
    EXPECT_EQ(process.balls_placed(), 100u);
    EXPECT_EQ(process.messages(), 100u);
    EXPECT_EQ(process.profile().total_balls(), 100u);
    EXPECT_EQ(bins_in(process.profile()), 32u);
}

TEST(LevelKernel, BillionBinSmoke) {
    // O(max-load) state means a billion-bin process constructs instantly
    // and runs rounds without ever touching O(n) memory.
    constexpr std::uint64_t n = 1'000'000'000ULL;
    kd_choice_level_process process(n, 2, 4, 42);
    process.run_balls(2'000);
    EXPECT_EQ(process.balls_placed(), 2'000u);
    EXPECT_EQ(process.n(), n);
    EXPECT_EQ(bins_in(process.profile()), n);
    EXPECT_EQ(process.profile().total_balls(), 2'000u);
    // 2000 balls into 1e9 bins: max load stays tiny, so state stays tiny.
    EXPECT_LE(process.profile().max_level(), 4u);
    EXPECT_LT(process.profile().level_capacity(), 64u);
}

TEST(Runner, LevelKernelExperimentsAggregateLikePerBin) {
    // Same statistics shape through the scenario path, selected by kernel.
    const kdc::core::experiment_config config{
        .balls = 0, .reps = 5, .seed = 17};
    const auto run = [&](const char* text) {
        return kdc::core::run_scenario_experiment(
            kdc::core::parse_scenario(text), config);
    };
    const auto level = run("kd:n=512,k=2,d=4,kernel=level");
    EXPECT_EQ(level.reps.size(), 5u);
    for (const auto& rep : level.reps) {
        EXPECT_EQ(rep.messages, (512 / 2) * 4u);
        EXPECT_GE(rep.max_load, 1u);
    }
    const auto single = run("single:n=256,kernel=level");
    EXPECT_EQ(single.reps.size(), 5u);
    const auto d_choice = run("dchoice:n=256,d=2,kernel=level");
    EXPECT_EQ(d_choice.reps.size(), 5u);
}

} // namespace

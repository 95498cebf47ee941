#include "core/level_profile.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/level_process.hpp"
#include "core/metrics.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/crc32.hpp"

namespace {

using kdc::core::compute_load_metrics;
using kdc::core::level_profile;
using kdc::core::level_state;
using kdc::core::load_vector;

/// Appends the format-v2 CRC trailer to a hand-written snapshot body, so a
/// test can exercise the PARSER's rejections (bad magic, bad sums, ...)
/// without the CRC gate masking them.
std::string with_crc(const std::string& body) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", kdc::crc32(body));
    return body + "crc32 " + hex + "\n";
}

/// Bins over levels [0, max_level]: n whenever no bin is missing.
std::uint64_t bins_in(const level_profile& profile) {
    std::uint64_t bins = 0;
    for (std::uint64_t level = 0; level <= profile.max_level(); ++level) {
        bins += profile.bins_at(level);
    }
    return bins;
}

TEST(LevelProfile, FreshProfileIsAllEmptyBins) {
    level_profile profile(5);
    EXPECT_EQ(profile.n(), 5u);
    EXPECT_EQ(profile.total_balls(), 0u);
    EXPECT_EQ(profile.max_level(), 0u);
    EXPECT_EQ(profile.bins_at(0), 5u);
    EXPECT_EQ(profile.bins_at(1), 0u);
    EXPECT_EQ(profile.bins_at(1u << 20), 0u); // beyond capacity: zero
}

TEST(LevelProfile, RequiresAtLeastOneBin) {
    EXPECT_THROW(level_profile(0), kdc::contract_violation);
    EXPECT_THROW((void)level_profile::from_counts({0, 0}),
                 kdc::contract_violation);
}

TEST(LevelProfile, MoveBinTracksCountsBallsAndMax) {
    // Moving bins between levels of the working state, then flushing it.
    level_state state(level_profile(3));
    state.ensure_headroom(2);
    --state.counts[0];
    ++state.counts[1];
    --state.counts[0];
    ++state.counts[1];
    --state.counts[1];
    ++state.counts[2];
    const auto profile = level_profile::from_counts(state.counts);
    EXPECT_EQ(profile.n(), 3u);
    EXPECT_EQ(profile.bins_at(0), 1u);
    EXPECT_EQ(profile.bins_at(1), 1u);
    EXPECT_EQ(profile.bins_at(2), 1u);
    EXPECT_EQ(profile.total_balls(), 3u);
    EXPECT_EQ(profile.max_level(), 2u);
}

TEST(LevelProfile, MaxLevelShrinksWhenTopBinLeaves) {
    level_state state(level_profile::from_loads({4, 1}));
    EXPECT_EQ(state.top, 4u);
    --state.counts[4];
    ++state.counts[1];
    // The flush finds the highest occupied level, not the stale top.
    const auto profile = level_profile::from_counts(state.counts);
    EXPECT_EQ(profile.max_level(), 1u);
    EXPECT_EQ(profile.bins_at(1), 2u);
    EXPECT_EQ(profile.total_balls(), 2u);
}

TEST(LevelProfile, ExtractInsertRoundTrip) {
    // A working state built from a profile and flushed back equals it,
    // with or without a bin taken out and put back in between.
    const auto profile = level_profile::from_loads({2, 2, 0});
    EXPECT_TRUE(level_profile::from_counts(level_state(profile).counts) ==
                profile);
    level_state state(profile);
    --state.counts[2];
    EXPECT_EQ(state.level_of_rank(1), 2u); // one bin left at level 2
    ++state.counts[2];
    const auto flushed = level_profile::from_counts(state.counts);
    EXPECT_TRUE(flushed == profile);
    EXPECT_EQ(flushed.total_balls(), 4u);
    EXPECT_EQ(flushed.bins_at(2), 2u);
}

TEST(LevelProfile, EnsureLevelsPreservesState) {
    const auto profile = level_profile::from_loads({3, 1, 0, 0});
    level_state state(profile);
    state.ensure_headroom(500);
    EXPECT_GT(state.counts.size(), state.top + 500);
    EXPECT_EQ(state.counts[0], 2u);
    EXPECT_EQ(state.counts[1], 1u);
    EXPECT_EQ(state.counts[2], 0u);
    EXPECT_EQ(state.counts[3], 1u);
    EXPECT_EQ(state.top, 3u);
    EXPECT_TRUE(level_profile::from_counts(state.counts) == profile);
}

TEST(LevelProfile, LevelAtRankWalksLevelsInOrder) {
    // Loads {3,1,1,0}: one bin at level 0, two at level 1, one at level 3.
    // Ranks are laid out level by level: 0 -> l0, 1..2 -> l1, 3 -> l3 (the
    // empty level 2 holds no rank).
    const level_state state(level_profile::from_loads({3, 1, 1, 0}));
    EXPECT_EQ(state.level_of_rank(0), 0u);
    EXPECT_EQ(state.level_of_rank(1), 1u);
    EXPECT_EQ(state.level_of_rank(2), 1u);
    EXPECT_EQ(state.level_of_rank(3), 3u);
}

TEST(LevelProfile, LevelAtRankSeesExtractions) {
    level_state state(level_profile::from_loads({2, 1, 0}));
    --state.counts[0];
    // Remaining: one bin at level 1, one at level 2.
    EXPECT_EQ(state.level_of_rank(0), 1u);
    EXPECT_EQ(state.level_of_rank(1), 2u);
}

TEST(LevelProfile, FromLoadsToSortedLoadsRoundTrips) {
    const load_vector loads{0, 7, 3, 3, 1, 0, 2};
    const auto profile = level_profile::from_loads(loads);
    const load_vector expected{7, 3, 3, 2, 1, 0, 0};
    EXPECT_EQ(profile.to_sorted_loads(), expected);
}

TEST(LevelProfile, MetricsMatchPerBinComputation) {
    const load_vector loads{0, 7, 3, 3, 1, 0, 2};
    const auto profile = level_profile::from_loads(loads);
    const auto expected = compute_load_metrics(loads);
    const auto got = profile.metrics();
    EXPECT_EQ(got.max_load, expected.max_load);
    EXPECT_EQ(got.min_load, expected.min_load);
    EXPECT_EQ(got.total_balls, expected.total_balls);
    EXPECT_EQ(got.empty_bins, expected.empty_bins);
    EXPECT_DOUBLE_EQ(got.mean_load, expected.mean_load);
    EXPECT_DOUBLE_EQ(got.gap, expected.gap);
}

TEST(LevelProfile, MetricsWithNoEmptyBins) {
    const load_vector loads{2, 1, 1};
    const auto profile = level_profile::from_loads(loads);
    const auto got = profile.metrics();
    EXPECT_EQ(got.empty_bins, 0u);
    EXPECT_EQ(got.min_load, 1u);
}

TEST(LevelProfile, BillionBinProfileIsTiny) {
    // The whole point: state scales with max load, not n.
    const auto profile = level_profile::from_counts({999'999'999ULL, 1});
    EXPECT_EQ(profile.n(), 1'000'000'000ULL);
    EXPECT_EQ(profile.bins_at(0), 999'999'999ULL);
    EXPECT_EQ(level_state(profile).level_of_rank(999'999'999ULL), 1u);
    EXPECT_LT(profile.level_capacity(), 64u);
}

TEST(LevelProfileSnapshot, SaveLoadRoundTripsExactly) {
    const load_vector loads{7, 0, 3, 3, 1, 0, 0, 2};
    const auto profile = level_profile::from_loads(loads);
    std::stringstream snapshot;
    profile.save(snapshot);
    const auto restored = level_profile::load(snapshot);
    EXPECT_TRUE(restored == profile);
    EXPECT_EQ(restored.to_sorted_loads(), profile.to_sorted_loads());
    const auto metrics = restored.metrics();
    EXPECT_EQ(metrics.max_load, 7u);
    EXPECT_EQ(metrics.empty_bins, 3u);
    EXPECT_EQ(metrics.total_balls, 16u);
}

TEST(LevelProfileSnapshot, BillionBinSnapshotIsTinyAndRoundTrips) {
    const auto profile = level_profile::from_counts({999'999'998ULL, 1, 1});
    std::stringstream snapshot;
    profile.save(snapshot);
    EXPECT_LT(snapshot.str().size(), 128u); // O(max level) bytes, not O(n)
    EXPECT_TRUE(level_profile::load(snapshot) == profile);
}

TEST(LevelProfileSnapshot, RefusesMalformedInput) {
    auto load_of = [](const std::string& text) {
        std::stringstream in(text);
        return level_profile::load(in);
    };
    // No trailer at all (empty file, or a pre-v2 snapshot).
    EXPECT_THROW((void)load_of(""), kdc::cli_error);
    EXPECT_THROW((void)load_of("kdc-level-profile 1\n4 2\n3 1\n"),
                 kdc::cli_error);
    // Structural errors behind a CORRECT trailer, so the parser (not the
    // CRC gate) is what rejects them.
    EXPECT_THROW((void)load_of(with_crc("not-a-profile 2\n4 1\n4\n")),
                 kdc::cli_error);
    EXPECT_THROW((void)load_of(with_crc("kdc-level-profile 9\n4 1\n4\n")),
                 kdc::cli_error);
    EXPECT_THROW((void)load_of(with_crc("kdc-level-profile 2\n0 1\n")),
                 kdc::cli_error);
    // Truncated count list.
    EXPECT_THROW((void)load_of(with_crc("kdc-level-profile 2\n4 2\n3\n")),
                 kdc::cli_error);
    // Counts that do not sum to n.
    EXPECT_THROW((void)load_of(with_crc("kdc-level-profile 2\n4 2\n1 1\n")),
                 kdc::cli_error);
    // Surplus fields after the declared counts.
    EXPECT_THROW(
        (void)load_of(with_crc("kdc-level-profile 2\n4 2\n3 1 9\n")),
        kdc::cli_error);
    // A declared level count no honest file could hold (caught before it
    // becomes a giant allocation).
    EXPECT_THROW(
        (void)load_of(with_crc("kdc-level-profile 2\n4 999999999999\n3 1\n")),
        kdc::cli_error);
    // A well-formed v2 snapshot loads.
    const auto ok = load_of(with_crc("kdc-level-profile 2\n4 2\n3 1\n"));
    EXPECT_EQ(ok.n(), 4u);
    EXPECT_EQ(ok.bins_at(1), 1u);
    EXPECT_EQ(ok.max_level(), 1u);
}

TEST(LevelProfileSnapshot, ResumesALevelProcessRun) {
    // The resumable-billion-bin-run shape at test scale: run, snapshot,
    // reload, continue — counters on the resumed process start fresh.
    kdc::core::kd_choice_level_process first(512, 2, 4, 99);
    first.run_balls(256);
    std::stringstream snapshot;
    first.profile().save(snapshot);

    kdc::core::kd_choice_level_process resumed(
        level_profile::load(snapshot), 2, 4, 100);
    EXPECT_EQ(resumed.balls_placed(), 0u);
    resumed.run_balls(256);
    EXPECT_EQ(resumed.profile().total_balls(), 512u);
    EXPECT_EQ(bins_in(resumed.profile()), 512u);
}

} // namespace

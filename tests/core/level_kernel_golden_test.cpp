// Exact outputs of the level kernels, pinned. Every other level test is
// distributional, so this file is what catches a change to the RNG
// consumption order, the probe-to-level lookup or the duplicate-round slot
// selection: each case runs one fixed-seed process and compares an FNV-1a
// digest of the final per-level counts with the value the kernels have
// always produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/baselines.hpp"
#include "core/level_process.hpp"
#include "core/level_profile.hpp"

namespace {

using kdc::core::d_choice_level_process;
using kdc::core::kd_choice_level_process;
using kdc::core::level_profile;
using kdc::core::load_vector;
using kdc::core::one_plus_beta_level_process;
using kdc::core::single_choice_level_process;

/// FNV-1a over n, max_level and the counts of levels [0, max_level], each
/// hashed as 8 little-endian bytes.
std::uint64_t digest(const level_profile& profile) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    mix(profile.n());
    mix(profile.max_level());
    for (std::uint64_t level = 0; level <= profile.max_level(); ++level) {
        mix(profile.bins_at(level));
    }
    return h;
}

TEST(LevelKernelGolden, KdLightLoad) {
    kd_choice_level_process process(10'000, 2, 4, 11);
    process.run_balls(10'000);
    EXPECT_EQ(process.profile().max_level(), 3u);
    EXPECT_EQ(digest(process.profile()), 0xd644a43b5f2c3233ULL);
}

TEST(LevelKernelGolden, KdHeavyLoad) {
    kd_choice_level_process process(4'096, 8, 16, 12);
    process.run_balls(8 * 4'096);
    EXPECT_EQ(process.profile().max_level(), 9u);
    EXPECT_EQ(digest(process.profile()), 0x0ab8b4ef5b437a2aULL);
}

TEST(LevelKernelGolden, KdDuplicateTailAtSmallN) {
    // d = n / 2: nearly every round probes some bin twice.
    kd_choice_level_process process(32, 8, 16, 13);
    process.run_balls(32 * 100);
    EXPECT_EQ(process.profile().max_level(), 101u);
    EXPECT_EQ(digest(process.profile()), 0xb38a50451ea9b354ULL);
}

TEST(LevelKernelGolden, KdWideSpanStart) {
    // Loads 0..99 span 100 levels, beyond the narrow-span probe loop.
    load_vector loads(256);
    for (std::size_t bin = 0; bin < loads.size(); ++bin) {
        loads[bin] = static_cast<kdc::core::bin_load>(bin % 100);
    }
    kd_choice_level_process process(level_profile::from_loads(loads), 2, 4,
                                    14);
    process.run_balls(2'048);
    EXPECT_EQ(process.profile().max_level(), 99u);
    EXPECT_EQ(digest(process.profile()), 0x85fd12ef0a7bd7abULL);
}

TEST(LevelKernelGolden, SingleChoiceHeavyLoad) {
    single_choice_level_process process(1'000, 15);
    process.run_balls(10'000);
    EXPECT_EQ(process.profile().max_level(), 25u);
    EXPECT_EQ(digest(process.profile()), 0x839a5b9c8f3bac47ULL);
}

TEST(LevelKernelGolden, DChoiceHeavyLoad) {
    d_choice_level_process process(1'000, 2, 16);
    process.run_balls(10'000);
    EXPECT_EQ(process.profile().max_level(), 12u);
    EXPECT_EQ(digest(process.profile()), 0x92484508f64abcb2ULL);
}

TEST(LevelKernelGolden, OnePlusBetaQuarter) {
    one_plus_beta_level_process process(1'000, 0.25, 17);
    process.run_balls(10'000);
    EXPECT_EQ(process.profile().max_level(), 19u);
    EXPECT_EQ(digest(process.profile()), 0xc2564238eca362b1ULL);
}

TEST(LevelKernelGolden, OnePlusBetaHalf) {
    one_plus_beta_level_process process(1'000, 0.5, 18);
    process.run_balls(10'000);
    EXPECT_EQ(process.profile().max_level(), 15u);
    EXPECT_EQ(digest(process.profile()), 0x9601145975963cb2ULL);
}

TEST(LevelKernelGolden, OnePlusBetaOne) {
    one_plus_beta_level_process process(1'000, 1.0, 19);
    process.run_balls(10'000);
    EXPECT_EQ(process.profile().max_level(), 12u);
    EXPECT_EQ(digest(process.profile()), 0x2364980cfe189694ULL);
}

} // namespace

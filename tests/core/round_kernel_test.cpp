#include "core/round_kernel.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::core::bin_load;
using kdc::core::load_vector;
using kdc::core::place_round;
using kdc::core::placed_ball;
using kdc::core::round_scratch;
using kdc::rng::xoshiro256ss;

std::uint64_t total(const load_vector& loads) {
    return std::accumulate(loads.begin(), loads.end(), std::uint64_t{0});
}

/// Returns the same word on every call, so every slot of a round draws an
/// equal tie key; counts its calls.
struct constant_generator {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() {
        ++calls;
        return 0x5555555555555555ULL;
    }
    std::uint64_t calls = 0;
};

/// Runs one round from `loads` with equal tie keys and returns the placed
/// balls; also checks the kernel drew exactly one key per slot.
std::vector<placed_ball> equal_key_round(load_vector loads,
                                         const std::vector<std::uint32_t>& samples,
                                         std::size_t k) {
    constant_generator gen;
    round_scratch scratch;
    std::vector<placed_ball> placed;
    place_round(loads, samples, k, gen, scratch, &placed);
    EXPECT_EQ(gen.calls, samples.size());
    return placed;
}

TEST(RoundKernel, PlacesExactlyKBalls) {
    load_vector loads(10, 0);
    xoshiro256ss gen(1);
    round_scratch scratch;
    const std::vector<std::uint32_t> samples{0, 1, 2, 3, 4};
    place_round(loads, samples, 3, gen, scratch);
    EXPECT_EQ(total(loads), 3u);
}

TEST(RoundKernel, ChoosesLeastLoadedWhenSamplesDistinct) {
    load_vector loads{5, 0, 3, 1, 9};
    xoshiro256ss gen(2);
    round_scratch scratch;
    const std::vector<std::uint32_t> samples{0, 1, 2, 3, 4};
    place_round(loads, samples, 2, gen, scratch);
    // Least loaded were bins 1 (load 0) and 3 (load 1).
    EXPECT_EQ(loads[1], 1u);
    EXPECT_EQ(loads[3], 2u);
    EXPECT_EQ(loads[0], 5u);
    EXPECT_EQ(loads[2], 3u);
    EXPECT_EQ(loads[4], 9u);
}

TEST(RoundKernel, MultiplicityRuleCapsBallsPerBin) {
    // Scenario (c) of Section 1 shape: only two distinct bins for 3 balls.
    load_vector loads{0, 0};
    xoshiro256ss gen(3);
    round_scratch scratch;
    // Bin 0 sampled twice, bin 1 sampled twice; place 3 balls.
    const std::vector<std::uint32_t> samples{0, 0, 1, 1};
    place_round(loads, samples, 3, gen, scratch);
    EXPECT_EQ(total(loads), 3u);
    EXPECT_LE(loads[0], 2u);
    EXPECT_LE(loads[1], 2u);
}

TEST(RoundKernel, SlotHeightsFollowOccurrenceIndex) {
    // One bin sampled three times with initial load 5: candidate heights
    // must be 6, 7, 8, and with k = 2 the kept heights are 6 and 7.
    load_vector loads{5};
    xoshiro256ss gen(4);
    round_scratch scratch;
    std::vector<placed_ball> placed;
    const std::vector<std::uint32_t> samples{0, 0, 0};
    place_round(loads, samples, 2, gen, scratch, &placed);
    ASSERT_EQ(placed.size(), 2u);
    EXPECT_EQ(placed[0].height, 6u);
    EXPECT_EQ(placed[1].height, 7u);
    EXPECT_EQ(loads[0], 7u);
}

TEST(RoundKernel, PlacedBallsSortedByHeight) {
    load_vector loads{4, 2, 0, 7, 1};
    xoshiro256ss gen(5);
    round_scratch scratch;
    std::vector<placed_ball> placed;
    const std::vector<std::uint32_t> samples{0, 1, 2, 3, 4};
    place_round(loads, samples, 3, gen, scratch, &placed);
    ASSERT_EQ(placed.size(), 3u);
    for (std::size_t i = 1; i < placed.size(); ++i) {
        EXPECT_LE(placed[i - 1].height, placed[i].height);
    }
}

TEST(RoundKernel, HeightEqualsLoadAfterPlacementForDistinctBins) {
    load_vector loads{3, 1, 4};
    xoshiro256ss gen(6);
    round_scratch scratch;
    std::vector<placed_ball> placed;
    const std::vector<std::uint32_t> samples{0, 1, 2};
    place_round(loads, samples, 2, gen, scratch, &placed);
    for (const auto& ball : placed) {
        EXPECT_EQ(ball.height, loads[ball.bin]);
    }
}

TEST(RoundKernel, KeptSlotConsistency) {
    // If a bin receives j balls, they must be the j lowest slots: final load
    // = initial + j, and heights initial+1 .. initial+j. Stress this with
    // heavy duplication.
    xoshiro256ss gen(7);
    round_scratch scratch;
    for (int trial = 0; trial < 200; ++trial) {
        load_vector loads{2, 2, 2};
        std::vector<placed_ball> placed;
        const std::vector<std::uint32_t> samples{0, 0, 0, 1, 1, 2};
        place_round(loads, samples, 4, gen, scratch, &placed);
        std::map<std::uint32_t, std::vector<bin_load>> by_bin;
        for (const auto& ball : placed) {
            by_bin[ball.bin].push_back(ball.height);
        }
        for (auto& [bin, heights] : by_bin) {
            std::sort(heights.begin(), heights.end());
            for (std::size_t j = 0; j < heights.size(); ++j) {
                EXPECT_EQ(heights[j], 2 + j + 1);
            }
            EXPECT_EQ(loads[bin], 2 + heights.size());
        }
    }
}

TEST(RoundKernel, TieBreakIsUniformAcrossBins) {
    // Four empty bins, k = 1: each should win about 1/4 of the time.
    xoshiro256ss gen(8);
    round_scratch scratch;
    std::vector<std::uint64_t> wins(4, 0);
    constexpr int trials = 40000;
    for (int t = 0; t < trials; ++t) {
        load_vector loads(4, 0);
        std::vector<placed_ball> placed;
        const std::vector<std::uint32_t> samples{0, 1, 2, 3};
        place_round(loads, samples, 1, gen, scratch, &placed);
        ++wins[placed[0].bin];
    }
    for (const auto w : wins) {
        EXPECT_NEAR(static_cast<double>(w), trials / 4.0, 500.0);
    }
}

TEST(RoundKernel, DuplicateSlowPathMatchesInvariants) {
    // Duplicates force the sort-and-group path; totals must still add up.
    xoshiro256ss gen(9);
    round_scratch scratch;
    load_vector loads(5, 0);
    std::uint64_t placed_total = 0;
    for (int round = 0; round < 100; ++round) {
        const std::vector<std::uint32_t> samples{0, 0, 1, 2, 2, 3};
        place_round(loads, samples, 4, gen, scratch);
        placed_total += 4;
    }
    EXPECT_EQ(total(loads), placed_total);
    EXPECT_EQ(loads[4], 0u); // never sampled
}

TEST(RoundKernel, KEqualsDTakesEverySlot) {
    load_vector loads{0, 0, 0};
    xoshiro256ss gen(10);
    round_scratch scratch;
    const std::vector<std::uint32_t> samples{0, 1, 2};
    place_round(loads, samples, 3, gen, scratch);
    EXPECT_EQ(loads, (load_vector{1, 1, 1}));
}

TEST(RoundKernel, EqualTieKeysKeepTheFirstSlotsInSampleOrder) {
    // Distinct samples on equal loads: every slot has height 1 and the same
    // key, so the kept slots are the first k samples, in sample order.
    const std::vector<std::uint32_t> samples{7, 2, 9, 0, 5, 3};
    for (std::size_t k = 1; k <= samples.size(); ++k) {
        const auto placed = equal_key_round(load_vector(10, 0), samples, k);
        ASSERT_EQ(placed.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ(placed[i], (placed_ball{samples[i], 1})) << "k=" << k;
        }
    }
    // Unequal loads: height first, then sample order within a height.
    const std::vector<std::uint32_t> probes{0, 1, 2, 3};
    EXPECT_EQ(equal_key_round(load_vector{1, 0, 1, 0}, probes, 3),
              (std::vector<placed_ball>{{1, 1}, {3, 1}, {0, 2}}));
}

TEST(RoundKernel, EqualTieKeysKeepTheFirstSlotsInSortedGroupOrder) {
    // With a duplicate, slots are numbered in sorted-group order (bins
    // ascending, a bin's occurrences consecutive): samples {7,2,7,4,2,9} on
    // equal loads give slots (2,h1) (2,h2) (4,h1) (7,h1) (7,h2) (9,h1).
    // The height-1 slots come first, in slot order, then the height-2 ones.
    const std::vector<std::uint32_t> samples{7, 2, 7, 4, 2, 9};
    const std::vector<placed_ball> order{{2, 1}, {4, 1}, {7, 1},
                                         {9, 1}, {2, 2}, {7, 2}};
    for (std::size_t k = 1; k <= samples.size(); ++k) {
        const auto placed = equal_key_round(load_vector(10, 0), samples, k);
        EXPECT_EQ(placed, std::vector<placed_ball>(
                              order.begin(),
                              order.begin() + static_cast<std::ptrdiff_t>(k)))
            << "k=" << k;
    }
}

TEST(RoundKernel, ContractViolations) {
    load_vector loads(4, 0);
    xoshiro256ss gen(11);
    round_scratch scratch;
    const std::vector<std::uint32_t> samples{0, 1};
    EXPECT_THROW(place_round(loads, samples, 3, gen, scratch),
                 kdc::contract_violation); // k > slots
    EXPECT_THROW(place_round(loads, samples, 0, gen, scratch),
                 kdc::contract_violation); // k == 0
    const std::vector<std::uint32_t> out_of_range{0, 9};
    EXPECT_THROW(place_round(loads, out_of_range, 1, gen, scratch),
                 kdc::contract_violation);
}

TEST(RoundKernel, EpochWrapAroundStillDetectsDuplicates) {
    // Force the ++epoch == 0 clear-and-restart branch. If the wrap left
    // stale stamps behind, the duplicate bin 0 would not be grouped and its
    // two slots would BOTH sit at height 1 — making loads {2, 0} reachable.
    // Correct grouping gives slots (1, bin0), (2, bin0), (1, bin1): the two
    // kept slots are the height-1 pair, so the outcome is always {1, 1}.
    const std::vector<std::uint32_t> samples{0, 0, 1};
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        xoshiro256ss gen(seed);
        round_scratch scratch;
        // Warm the stamps (so the wrap path clears a used array), then
        // position the epoch one increment away from wrapping.
        load_vector warm(2, 0);
        place_round(warm, samples, 2, gen, scratch);
        scratch.epoch = std::numeric_limits<std::uint32_t>::max();

        load_vector loads(2, 0);
        place_round(loads, samples, 2, gen, scratch);
        EXPECT_EQ(scratch.epoch, 1u) << "wrap must restart the epoch at 1";
        EXPECT_EQ(loads[0], 1u) << "seed " << seed;
        EXPECT_EQ(loads[1], 1u) << "seed " << seed;
    }
}

TEST(RoundKernel, RoundsAfterEpochWrapStayCorrect) {
    // The round after a wrap runs with epoch 2 against freshly zeroed
    // stamps; duplicate detection must keep working.
    xoshiro256ss gen(7);
    round_scratch scratch;
    const std::vector<std::uint32_t> samples{0, 0, 1};
    load_vector warm(2, 0);
    place_round(warm, samples, 2, gen, scratch); // size the stamp array
    scratch.epoch = std::numeric_limits<std::uint32_t>::max();
    for (int round = 0; round < 4; ++round) {
        load_vector loads(2, 0);
        place_round(loads, samples, 2, gen, scratch);
        EXPECT_EQ(loads[0], 1u) << "round " << round;
        EXPECT_EQ(loads[1], 1u) << "round " << round;
    }
    EXPECT_EQ(scratch.epoch, 4u);
}

TEST(RoundKernel, ScratchReuseAcrossDifferentSizes) {
    xoshiro256ss gen(12);
    round_scratch scratch;
    load_vector small(3, 0);
    const std::vector<std::uint32_t> s1{0, 1, 2};
    place_round(small, s1, 1, gen, scratch);
    load_vector large(100, 0);
    const std::vector<std::uint32_t> s2{10, 20, 30, 40};
    place_round(large, s2, 2, gen, scratch);
    EXPECT_EQ(total(small), 1u);
    EXPECT_EQ(total(large), 2u);
}

} // namespace

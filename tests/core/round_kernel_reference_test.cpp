// The per-bin round kernel, held bit for bit against a selection reference.
//
// reference_place_round below is the kernel as it stood when selection was
// std::nth_element on (height, tie_key) followed by a sort of the kept
// prefix, with duplicate samples grouped by std::sort. core::place_round
// must reproduce it exactly over randomized rounds: the same loads, the
// same placed (bin, height) sequence in the same order, and the generator
// left at the same word. The cases span n from d/4 (nearly every round
// probes some bin twice) to 2^20 (almost none do), every k from 1 to d,
// d up to 256, with and without a placed log.
#include "core/round_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"

namespace kdc::core {
namespace {

struct reference_scratch {
    struct slot {
        bin_load height = 0;
        std::uint64_t tie_key = 0;
        std::uint32_t bin = 0;
    };
    std::vector<std::uint32_t> sorted_samples;
    std::vector<slot> slots;
};

template <typename G>
void reference_place_round(load_vector& loads,
                           std::span<const std::uint32_t> samples,
                           std::size_t k, G& gen, reference_scratch& scratch,
                           std::vector<placed_ball>* placed) {
    std::vector<std::uint32_t> seen(samples.begin(), samples.end());
    std::sort(seen.begin(), seen.end());
    const bool has_duplicates =
        std::adjacent_find(seen.begin(), seen.end()) != seen.end();

    using slot = reference_scratch::slot;
    auto& slots = scratch.slots;
    slots.clear();
    if (!has_duplicates) {
        for (const std::uint32_t bin : samples) {
            slots.push_back(
                slot{loads[bin] + 1, static_cast<std::uint64_t>(gen()), bin});
        }
    } else {
        auto& sorted = scratch.sorted_samples;
        sorted.assign(samples.begin(), samples.end());
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 0; i < sorted.size();) {
            const std::uint32_t bin = sorted[i];
            bin_load occurrence = 0;
            for (; i < sorted.size() && sorted[i] == bin; ++i) {
                ++occurrence;
                slots.push_back(slot{loads[bin] + occurrence,
                                     static_cast<std::uint64_t>(gen()), bin});
            }
        }
    }

    const auto by_height_then_key = [](const slot& a, const slot& b) {
        if (a.height != b.height) {
            return a.height < b.height;
        }
        return a.tie_key < b.tie_key;
    };
    if (k < slots.size()) {
        std::nth_element(slots.begin(),
                         slots.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         slots.end(), by_height_then_key);
    }
    std::sort(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(k),
              by_height_then_key);

    for (std::size_t i = 0; i < k; ++i) {
        loads[slots[i].bin] += 1;
        if (placed != nullptr) {
            placed->push_back(placed_ball{slots[i].bin, slots[i].height});
        }
    }
}

struct reference_case {
    std::uint64_t n;
    std::uint64_t d;
};

/// Runs `rounds` random rounds of (n, d) through both kernels from equal
/// starting loads and equal generator seeds; k is drawn uniformly in
/// [1, d] each round and the placed log is on in alternate rounds.
void expect_identical_rounds(const reference_case& c, std::uint64_t seed,
                             int rounds) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " d=" << c.d
                                    << " seed=" << seed);
    rng::xoshiro256ss inputs(seed);
    // Small initial loads make equal slot heights common, so selection
    // leans on tie keys and occurrence indices, not just on heights.
    load_vector loads(c.n);
    for (auto& load : loads) {
        load = static_cast<bin_load>(rng::uniform_below(inputs, 4));
    }
    load_vector expected_loads = loads;

    rng::xoshiro256ss gen(seed ^ 0x9e3779b97f4a7c15ULL);
    rng::xoshiro256ss expected_gen = gen;
    round_scratch scratch;
    reference_scratch expected_scratch;
    std::vector<std::uint32_t> samples(c.d);
    std::vector<placed_ball> placed;
    std::vector<placed_ball> expected_placed;
    int duplicate_rounds = 0;

    for (int round = 0; round < rounds; ++round) {
        for (auto& sample : samples) {
            sample = static_cast<std::uint32_t>(
                rng::uniform_below(inputs, c.n));
        }
        std::vector<std::uint32_t> distinct = samples;
        std::sort(distinct.begin(), distinct.end());
        if (std::adjacent_find(distinct.begin(), distinct.end()) !=
            distinct.end()) {
            ++duplicate_rounds;
        }
        const auto k =
            static_cast<std::size_t>(1 + rng::uniform_below(inputs, c.d));
        const bool log = round % 2 == 0;
        placed.clear();
        expected_placed.clear();
        place_round(loads, samples, k, gen, scratch, log ? &placed : nullptr);
        reference_place_round(expected_loads, samples, k, expected_gen,
                              expected_scratch,
                              log ? &expected_placed : nullptr);
        ASSERT_EQ(placed, expected_placed) << "round " << round << " k=" << k;
        for (const std::uint32_t bin : samples) {
            ASSERT_EQ(loads[bin], expected_loads[bin])
                << "round " << round << " k=" << k << " bin " << bin;
        }
        ASSERT_EQ(gen(), expected_gen()) << "round " << round << " k=" << k;
    }
    EXPECT_EQ(loads, expected_loads);
    // Both selection paths must actually have run where n makes them likely.
    if (c.n * 2 <= c.d * c.d && c.d >= 8) {
        EXPECT_GT(duplicate_rounds, 0);
    }
    if (c.n >= c.d * c.d * 8) {
        EXPECT_LT(duplicate_rounds, rounds);
    }
}

std::vector<reference_case> cases_for(std::uint64_t d) {
    std::vector<reference_case> cases;
    for (const std::uint64_t n :
         {std::max<std::uint64_t>(1, d / 4), d, d * d / 2 + 1,
          std::uint64_t{1} << 15, std::uint64_t{1} << 20}) {
        cases.push_back(reference_case{n, d});
    }
    return cases;
}

TEST(RoundKernelReference, SmallD) {
    for (const std::uint64_t d : {1, 2, 3, 4, 5, 8}) {
        for (const auto& c : cases_for(d)) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                expect_identical_rounds(c, seed, 400);
            }
        }
    }
}

TEST(RoundKernelReference, TableOneD) {
    // The d column of the paper's Table 1 (d = k+1 up to 193).
    for (const std::uint64_t d : {16, 33, 64, 97, 193}) {
        for (const auto& c : cases_for(d)) {
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                expect_identical_rounds(c, seed, 200);
            }
        }
    }
}

TEST(RoundKernelReference, LargestD) {
    for (const std::uint64_t d : {255, 256}) {
        for (const auto& c : cases_for(d)) {
            expect_identical_rounds(c, 7, 150);
        }
    }
}

TEST(RoundKernelReference, SingleBinEveryRoundDuplicates) {
    // n = 1: every sample is bin 0, one group of d slots per round.
    for (const std::uint64_t d : {2, 9, 64}) {
        expect_identical_rounds(reference_case{1, d}, 3, 100);
    }
}

} // namespace
} // namespace kdc::core

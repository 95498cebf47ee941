// The per-bin round kernel, held bit for bit against a selection reference.
//
// reference_place_round below is the kernel as it stood when selection was
// std::nth_element on (height, tie_key) followed by a sort of the kept
// prefix, with duplicate samples grouped by std::sort. core::place_round
// must reproduce it exactly over randomized rounds: the same loads, the
// same placed (bin, height) sequence in the same order, and the generator
// left at the same word. The cases span n from d/4 (nearly every round
// probes some bin twice) to 2^20 (almost none do), every k from 1 to d,
// d up to 256, with and without a placed log. The reference orders slots
// by (height, tie_key, slot number), the kernel's documented total order.
//
// Without a placed log the kernel may select through its bucket filter
// (detail::filter_bits). The EveryK cases run every k at the d where that
// matters, and check per round which selection path ran: the filter, plain
// top_k because k or d is outside the filter's range, or plain top_k
// because the round's height spread is wider than the buckets. A
// low-entropy generator makes equal (height, tie_key) pairs common, so the
// slot number decides which of them is kept.
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
        std::uint32_t number = 0; // slot number: the order keys are drawn in
    };
    std::vector<std::uint32_t> sorted_samples;
    std::vector<slot> slots;
};

/// What a reference round saw, for checking which kernel path it needs.
struct reference_round {
    bin_load spread = 0; // highest minus lowest slot height
    /// The k-th kept slot and the smallest dropped one share their height
    /// and tie key, so the slot number decided between them.
    bool slot_number_decided = false;
};

template <typename G>
reference_round reference_place_round(load_vector& loads,
                                      std::span<const std::uint32_t> samples,
                                      std::size_t k, G& gen,
                                      reference_scratch& scratch,
                                      std::vector<placed_ball>* placed) {
    std::vector<std::uint32_t> seen(samples.begin(), samples.end());
    std::sort(seen.begin(), seen.end());
    const bool has_duplicates =
        std::adjacent_find(seen.begin(), seen.end()) != seen.end();

    using slot = reference_scratch::slot;
    auto& slots = scratch.slots;
    slots.clear();
    const auto add_slot = [&](bin_load height, std::uint32_t bin) {
        const auto number = static_cast<std::uint32_t>(slots.size());
        slots.push_back(
            slot{height, static_cast<std::uint64_t>(gen()), bin, number});
    };
    if (!has_duplicates) {
        for (const std::uint32_t bin : samples) {
            add_slot(loads[bin] + 1, bin);
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
                add_slot(loads[bin] + occurrence, bin);
            }
        }
    }

    reference_round round;
    const auto [lowest, highest] = std::minmax_element(
        slots.begin(), slots.end(),
        [](const slot& a, const slot& b) { return a.height < b.height; });
    round.spread = highest->height - lowest->height;

    const auto by_height_then_key = [](const slot& a, const slot& b) {
        if (a.height != b.height) {
            return a.height < b.height;
        }
        if (a.tie_key != b.tie_key) {
            return a.tie_key < b.tie_key;
        }
        return a.number < b.number;
    };
    if (k < slots.size()) {
        std::nth_element(slots.begin(),
                         slots.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         slots.end(), by_height_then_key);
        const slot& last_kept = slots[k - 1];
        const slot& first_dropped = *std::min_element(
            slots.begin() + static_cast<std::ptrdiff_t>(k), slots.end(),
            by_height_then_key);
        round.slot_number_decided =
            last_kept.height == first_dropped.height &&
            last_kept.tie_key == first_dropped.tie_key;
    }
    std::sort(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(k),
              by_height_then_key);

    for (std::size_t i = 0; i < k; ++i) {
        loads[slots[i].bin] += 1;
        if (placed != nullptr) {
            placed->push_back(placed_ball{slots[i].bin, slots[i].height});
        }
    }
    return round;
}

/// xoshiro256** keeping only the top two and the bottom two bits of each
/// word: 16 tie keys, so slots often share their height and key, and keys
/// that agree in their top 32 bits often differ below them.
class low_entropy_generator {
public:
    using result_type = std::uint64_t;
    explicit low_entropy_generator(std::uint64_t seed) : gen_(seed) {}
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return gen_() & ((result_type{3} << 62) | 3); }

private:
    rng::xoshiro256ss gen_;
};

/// The selection path place_round takes for a round without a placed log.
enum class select_path { top_k, filter, spread_fallback };

select_path expected_path(std::size_t k, std::size_t d, bin_load spread) {
    if (k < 2 || d < detail::filter_min_slots ||
        k * detail::filter_slots_per_k < d) {
        return select_path::top_k;
    }
    return spread < detail::filter_buckets ? select_path::filter
                                           : select_path::spread_fallback;
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

/// Path counts over a run of rounds.
struct path_counts {
    int top_k = 0;
    int filter = 0;
    int spread_fallback = 0;
    int slot_number_decided = 0;
};

/// Runs `rounds` rounds of (n, d, k) with the placed log off through both
/// kernels, from initial loads uniform in [0, load_range), checking after
/// every round that the kernel agrees with the reference and took the path
/// expected_path names.
template <typename G>
path_counts expect_identical_unlogged(std::uint64_t n, std::size_t d,
                                      std::size_t k,
                                      std::uint64_t load_range,
                                      std::uint64_t seed, int rounds) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d << " k=" << k
                                    << " load_range=" << load_range);
    rng::xoshiro256ss inputs(seed);
    load_vector loads(n);
    for (auto& load : loads) {
        load = static_cast<bin_load>(rng::uniform_below(inputs, load_range));
    }
    load_vector expected_loads = loads;
    G gen(seed ^ 0x9e3779b97f4a7c15ULL);
    G expected_gen = gen;
    round_scratch scratch;
    reference_scratch expected_scratch;
    std::vector<std::uint32_t> samples(d);
    path_counts counts;
    for (int round = 0; round < rounds; ++round) {
        for (auto& sample : samples) {
            sample = static_cast<std::uint32_t>(rng::uniform_below(inputs, n));
        }
        const std::uint64_t filtered_before = scratch.filtered_rounds;
        place_round(loads, samples, k, gen, scratch);
        const reference_round seen = reference_place_round(
            expected_loads, samples, k, expected_gen, expected_scratch,
            nullptr);
        EXPECT_EQ(loads, expected_loads) << "round " << round;
        EXPECT_EQ(gen(), expected_gen()) << "round " << round;
        const select_path path = expected_path(k, d, seen.spread);
        EXPECT_EQ(scratch.filtered_rounds - filtered_before,
                  path == select_path::filter ? 1u : 0u)
            << "round " << round << " spread " << seen.spread;
        counts.top_k += path == select_path::top_k ? 1 : 0;
        counts.filter += path == select_path::filter ? 1 : 0;
        counts.spread_fallback += path == select_path::spread_fallback ? 1 : 0;
        counts.slot_number_decided += seen.slot_number_decided ? 1 : 0;
    }
    return counts;
}

constexpr std::size_t every_k_d[] = {32, 33, 64, 193};

TEST(RoundKernelReference, EveryKNarrowLoadsSelectThroughTheFilter) {
    // Loads below 4 keep the height spread inside the buckets, so every k
    // the filter takes runs through it, with and without duplicates.
    for (const std::size_t d : every_k_d) {
        for (const std::uint64_t n : {std::uint64_t{d * d / 2 + 1},
                                      std::uint64_t{1} << 15}) {
            path_counts total;
            for (std::size_t k = 1; k <= d; ++k) {
                const path_counts c =
                    expect_identical_unlogged<rng::xoshiro256ss>(n, d, k, 4,
                                                                 k, 6);
                total.top_k += c.top_k;
                total.filter += c.filter;
                total.spread_fallback += c.spread_fallback;
            }
            EXPECT_GT(total.top_k, 0) << "d=" << d << " n=" << n;
            EXPECT_GT(total.filter, 0) << "d=" << d << " n=" << n;
            EXPECT_EQ(total.spread_fallback, 0) << "d=" << d << " n=" << n;
        }
    }
}

TEST(RoundKernelReference, EveryKWideLoadsFallBackToTopK) {
    // Loads spread over [0, 2^20) put the round's heights far wider than
    // the filter's 2^filter_bits levels: every round the filter would take
    // falls back to plain top_k.
    for (const std::size_t d : every_k_d) {
        path_counts total;
        for (std::size_t k = 1; k <= d; ++k) {
            const path_counts c = expect_identical_unlogged<rng::xoshiro256ss>(
                std::uint64_t{1} << 15, d, k, std::uint64_t{1} << 20, k, 4);
            total.filter += c.filter;
            total.spread_fallback += c.spread_fallback;
        }
        EXPECT_EQ(total.filter, 0) << "d=" << d;
        EXPECT_GT(total.spread_fallback, 0) << "d=" << d;
    }
}

TEST(RoundKernelReference, EveryKLowEntropyKeysTieOnTheSlotNumber) {
    // 16 tie keys and loads below 2: many slots share (height, tie_key),
    // and in some rounds the slot number decides which of them is kept,
    // on both the filter and the top_k path.
    for (const std::size_t d : every_k_d) {
        path_counts total;
        for (std::size_t k = 1; k <= d; ++k) {
            const path_counts c = expect_identical_unlogged<
                low_entropy_generator>(std::uint64_t{1} << 15, d, k, 2, k, 6);
            total.top_k += c.top_k;
            total.filter += c.filter;
            total.slot_number_decided += c.slot_number_decided;
        }
        EXPECT_GT(total.top_k, 0) << "d=" << d;
        EXPECT_GT(total.filter, 0) << "d=" << d;
        EXPECT_GT(total.slot_number_decided, 0) << "d=" << d;
    }
}

} // namespace
} // namespace kdc::core

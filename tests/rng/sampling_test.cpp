#include "rng/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"
#include "stats/hypothesis.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::rng::random_permutation;
using kdc::rng::sample_with_replacement;
using kdc::rng::sample_without_replacement;
using kdc::rng::xoshiro256ss;

TEST(SampleWithReplacement, AllInRange) {
    xoshiro256ss gen(1);
    std::vector<std::uint32_t> out(64);
    sample_with_replacement(gen, 100, std::span<std::uint32_t>(out));
    for (const auto v : out) {
        EXPECT_LT(v, 100u);
    }
}

TEST(SampleWithReplacement, ProducesDuplicatesOnTinyDomain) {
    xoshiro256ss gen(2);
    std::vector<std::uint32_t> out(32);
    sample_with_replacement(gen, 2, std::span<std::uint32_t>(out));
    const std::set<std::uint32_t> distinct(out.begin(), out.end());
    EXPECT_LE(distinct.size(), 2u);
    EXPECT_LT(distinct.size(), out.size()); // with-replacement must repeat
}

TEST(SampleWithReplacement, MarginalIsUniform) {
    xoshiro256ss gen(3);
    constexpr std::uint64_t n = 10;
    std::vector<std::uint64_t> counts(n, 0);
    std::vector<std::uint32_t> out(5);
    for (int i = 0; i < 20000; ++i) {
        sample_with_replacement(gen, n, std::span<std::uint32_t>(out));
        for (const auto v : out) {
            ++counts[v];
        }
    }
    const auto result = kdc::stats::chi_square_uniform(counts);
    EXPECT_GT(result.p_value, 1e-4);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
    xoshiro256ss gen(4);
    for (int trial = 0; trial < 100; ++trial) {
        const auto sample = sample_without_replacement(gen, 50, 10);
        ASSERT_EQ(sample.size(), 10u);
        const std::set<std::uint32_t> distinct(sample.begin(), sample.end());
        EXPECT_EQ(distinct.size(), 10u);
        for (const auto v : sample) {
            EXPECT_LT(v, 50u);
        }
    }
}

TEST(SampleWithoutReplacement, FullDomainIsPermutation) {
    xoshiro256ss gen(5);
    auto sample = sample_without_replacement(gen, 8, 8);
    std::sort(sample.begin(), sample.end());
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(sample[i], i);
    }
}

TEST(SampleWithoutReplacement, CountZeroIsEmpty) {
    xoshiro256ss gen(6);
    EXPECT_TRUE(sample_without_replacement(gen, 5, 0).empty());
}

TEST(SampleWithoutReplacement, ScratchOverloadMatchesAllocatingOverload) {
    // The epoch-stamp scratch is an implementation detail: for same-seeded
    // generators both overloads must consume the same RNG stream and return
    // the same sequence.
    xoshiro256ss gen_a(12);
    xoshiro256ss gen_b(12);
    kdc::rng::sample_scratch scratch;
    for (int trial = 0; trial < 50; ++trial) {
        const auto allocated = sample_without_replacement(gen_a, 40, 7);
        std::vector<std::uint32_t> reused(7);
        sample_without_replacement(gen_b, 40, scratch,
                                   std::span<std::uint32_t>(reused));
        EXPECT_EQ(allocated, reused);
    }
}

TEST(SampleWithoutReplacement, SharedScratchStaysDistinctAcrossCalls) {
    // Epochs must isolate calls: stamps from earlier draws may not leak into
    // later ones (which would show up as skipped or repeated indices).
    xoshiro256ss gen(13);
    kdc::rng::sample_scratch scratch;
    std::vector<std::uint32_t> out(30);
    for (int trial = 0; trial < 200; ++trial) {
        sample_without_replacement(gen, 32, scratch,
                                   std::span<std::uint32_t>(out));
        const std::set<std::uint32_t> distinct(out.begin(), out.end());
        ASSERT_EQ(distinct.size(), out.size());
        for (const auto v : out) {
            ASSERT_LT(v, 32u);
        }
    }
}

TEST(SampleWithoutReplacement, ScratchGrowsWithDomain) {
    xoshiro256ss gen(14);
    kdc::rng::sample_scratch scratch;
    std::vector<std::uint32_t> small(4);
    sample_without_replacement(gen, 8, scratch,
                               std::span<std::uint32_t>(small));
    std::vector<std::uint32_t> large(50);
    sample_without_replacement(gen, 1000, scratch,
                               std::span<std::uint32_t>(large));
    const std::set<std::uint32_t> distinct(large.begin(), large.end());
    EXPECT_EQ(distinct.size(), large.size());
    for (const auto v : large) {
        EXPECT_LT(v, 1000u);
    }
}

TEST(SampleWithoutReplacement, EachElementEquallyLikely) {
    xoshiro256ss gen(7);
    constexpr std::uint64_t n = 12;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < 24000; ++i) {
        for (const auto v : sample_without_replacement(gen, n, 3)) {
            ++counts[v];
        }
    }
    const auto result = kdc::stats::chi_square_uniform(counts);
    EXPECT_GT(result.p_value, 1e-4);
}

TEST(Shuffle, PreservesMultiset) {
    xoshiro256ss gen(8);
    std::vector<int> items{1, 2, 2, 3, 5, 8, 13};
    auto shuffled = items;
    kdc::rng::shuffle(gen, std::span<int>(shuffled));
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, items);
}

TEST(Shuffle, SingleAndEmptyAreNoOps) {
    xoshiro256ss gen(9);
    std::vector<int> empty;
    kdc::rng::shuffle(gen, std::span<int>(empty));
    std::vector<int> one{7};
    kdc::rng::shuffle(gen, std::span<int>(one));
    EXPECT_EQ(one[0], 7);
}

TEST(RandomPermutation, IsAPermutation) {
    xoshiro256ss gen(10);
    const auto perm = random_permutation(gen, 100);
    std::vector<bool> seen(100, false);
    for (const auto v : perm) {
        ASSERT_LT(v, 100u);
        ASSERT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(SampleScratch, ShrinkingDomainReusesLargerStampArray) {
    // The scratch sizes its stamp array to the largest n seen; a smaller n
    // must keep working against the oversized array (stale high stamps are
    // simply never read).
    xoshiro256ss gen(20);
    kdc::rng::sample_scratch scratch;
    std::vector<std::uint32_t> big(50);
    sample_without_replacement(gen, 100, scratch,
                               std::span<std::uint32_t>(big));
    const std::size_t stamp_size = scratch.stamps.size();
    EXPECT_GE(stamp_size, 100u);

    std::vector<std::uint32_t> small(10);
    sample_without_replacement(gen, 10, scratch,
                               std::span<std::uint32_t>(small));
    EXPECT_EQ(scratch.stamps.size(), stamp_size) << "shrink must not realloc";
    std::sort(small.begin(), small.end());
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(small[i], i); // count == n: must be exactly {0..9}
    }
}

TEST(SampleScratch, GrowingDomainResizesAndStaysDistinct) {
    xoshiro256ss gen(21);
    kdc::rng::sample_scratch scratch;
    std::vector<std::uint32_t> first(5);
    sample_without_replacement(gen, 8, scratch,
                               std::span<std::uint32_t>(first));
    // Grow: the stamp array is reassigned and the epoch restarts; the draw
    // must still be distinct and in the new range.
    std::vector<std::uint32_t> second(40);
    sample_without_replacement(gen, 200, scratch,
                               std::span<std::uint32_t>(second));
    EXPECT_GE(scratch.stamps.size(), 200u);
    std::set<std::uint32_t> distinct(second.begin(), second.end());
    EXPECT_EQ(distinct.size(), second.size());
    for (const auto v : second) {
        EXPECT_LT(v, 200u);
    }
}

TEST(SampleScratch, EpochWrapAroundClearsStamps) {
    xoshiro256ss gen(22);
    kdc::rng::sample_scratch scratch;
    std::vector<std::uint32_t> out(30);
    sample_without_replacement(gen, 40, scratch,
                               std::span<std::uint32_t>(out)); // warm stamps
    scratch.epoch = std::numeric_limits<std::uint32_t>::max();
    for (int call = 0; call < 3; ++call) {
        sample_without_replacement(gen, 40, scratch,
                                   std::span<std::uint32_t>(out));
        std::set<std::uint32_t> distinct(out.begin(), out.end());
        EXPECT_EQ(distinct.size(), out.size()) << "call " << call;
        for (const auto v : out) {
            EXPECT_LT(v, 40u);
        }
    }
    EXPECT_EQ(scratch.epoch, 3u) << "wrap restarts the epoch at 1";
}

TEST(BatchedUniform, MatchesUniformBelowStream) {
    // The batched sampler consumes generator words in the same order and
    // accepts on the same condition as uniform_below, so for a same-seeded
    // generator the two output streams are bit-identical.
    for (const std::uint64_t bound :
         {1ULL, 2ULL, 193ULL, (1ULL << 16) + 1, (1ULL << 62) + 12345}) {
        xoshiro256ss reference_gen(33);
        xoshiro256ss batched_gen(33);
        kdc::rng::batched_uniform batched(bound);
        for (int draw = 0; draw < 1500; ++draw) {
            EXPECT_EQ(batched.next(batched_gen),
                      kdc::rng::uniform_below(reference_gen, bound))
                << "bound " << bound << " draw " << draw;
        }
    }
}

TEST(BatchedUniform, FillMatchesRepeatedNext) {
    // fill consumes generator words exactly as repeated next() calls do,
    // rejections included: bound 2^63 + 1 rejects about half the words.
    // Spans of varying length cross refill blocks at varying offsets, and
    // the generator is drawn from between spans, as place_round draws tie
    // keys between probe fills.
    for (const std::uint64_t bound :
         {1ULL, 193ULL, (1ULL << 32) - 1, (1ULL << 63) + 1}) {
        xoshiro256ss fill_gen(35);
        xoshiro256ss next_gen(35);
        kdc::rng::batched_uniform filled(bound);
        kdc::rng::batched_uniform stepped(bound);
        std::vector<std::uint64_t> out;
        for (std::size_t length = 0; length < 600; length += 37) {
            out.assign(length, 0);
            filled.fill(fill_gen, std::span<std::uint64_t>(out));
            for (std::size_t i = 0; i < length; ++i) {
                ASSERT_EQ(out[i], stepped.next(next_gen))
                    << "bound " << bound << " length " << length << " i "
                    << i;
            }
            ASSERT_EQ(fill_gen(), next_gen());
            EXPECT_EQ(filled.buffered(), stepped.buffered());
        }
        EXPECT_EQ(filled.rejections(), stepped.rejections());
        if (bound == (1ULL << 63) + 1) {
            EXPECT_GT(filled.rejections(), 0u);
        }
    }
}

TEST(BatchedUniform, FillIntoNarrowTypeNeedsTheBoundToFit) {
    xoshiro256ss gen(36);
    std::vector<std::uint32_t> out(4);
    kdc::rng::batched_uniform fits(std::uint64_t{1} << 32);
    fits.fill(gen, std::span<std::uint32_t>(out));
    kdc::rng::batched_uniform too_wide((std::uint64_t{1} << 32) + 1);
    EXPECT_THROW(too_wide.fill(gen, std::span<std::uint32_t>(out)),
                 kdc::contract_violation);
}

TEST(BatchedUniform, MarginalIsUniform) {
    xoshiro256ss gen(34);
    constexpr std::uint64_t n = 12;
    kdc::rng::batched_uniform batched(n);
    std::vector<std::uint64_t> counts(n, 0);
    for (int draw = 0; draw < 120000; ++draw) {
        ++counts[batched.next(gen)];
    }
    const auto result = kdc::stats::chi_square_uniform(counts);
    EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(BatchedUniform, BufferedDropAndRefillReconstructMidBlockState) {
    // The parallel-replay API: a replica that refills from the right
    // generator position and drops the consumed prefix produces the same
    // stream as the original sampler mid-block.
    constexpr std::uint64_t bound = 1000;
    xoshiro256ss gen(91);
    kdc::rng::batched_uniform live(bound);
    EXPECT_EQ(live.buffered(), 0u); // first next() triggers the refill
    for (int i = 0; i < 100; ++i) {
        (void)live.next(gen);
    }
    ASSERT_EQ(live.rejections(), 0u); // P < 2^-54 per draw at this bound
    EXPECT_EQ(live.buffered(), kdc::rng::batched_uniform::block_size - 100);

    // Replica: same refill block from a same-seeded generator, then skip
    // the 100 words the live sampler already consumed.
    xoshiro256ss replica_gen(91);
    kdc::rng::batched_uniform replica(bound);
    replica.refill(replica_gen);
    replica.drop(100);
    EXPECT_EQ(replica.buffered(), live.buffered());
    for (int i = 0; i < 400; ++i) { // crosses the next refill boundary
        ASSERT_EQ(replica.next(replica_gen), live.next(gen));
    }
}

TEST(BatchedUniform, DropPastBufferedViolatesContract) {
    kdc::rng::batched_uniform batched(7);
    EXPECT_THROW(batched.drop(1), kdc::contract_violation);
}

TEST(BatchedUniform, RejectionCounterSeesForcedRejections) {
    // bound = 2^63 + 1 rejects ~half of all words, so a few hundred draws
    // must record rejections (the sharded kernel's fallback trigger).
    xoshiro256ss gen(5);
    kdc::rng::batched_uniform batched((1ull << 63) + 1);
    for (int i = 0; i < 256; ++i) {
        (void)batched.next(gen);
    }
    EXPECT_GT(batched.rejections(), 0u);
}

TEST(BatchedUniform, BoundZeroViolatesContract) {
    EXPECT_THROW(kdc::rng::batched_uniform(0), kdc::contract_violation);
}

TEST(BatchedUniform, BoundOneAlwaysZero) {
    xoshiro256ss gen(35);
    kdc::rng::batched_uniform batched(1);
    for (int draw = 0; draw < 300; ++draw) {
        EXPECT_EQ(batched.next(gen), 0u);
    }
}

TEST(RandomPermutation, AllOrdersReachableOnThreeElements) {
    xoshiro256ss gen(11);
    std::map<std::vector<std::uint32_t>, int> orders;
    for (int i = 0; i < 6000; ++i) {
        ++orders[random_permutation(gen, 3)];
    }
    EXPECT_EQ(orders.size(), 6u);
    // Every order should appear ~1000 times; 5-sigma band ~ +-150.
    for (const auto& [order, count] : orders) {
        EXPECT_NEAR(count, 1000, 200);
    }
}

} // namespace

// The fully-parallel pipeline's two new degrees of freedom: partitioned
// selection (selection segments + deterministic conflict hand-off) and
// parallel tape pregeneration. Byte-identity against the serial kernel is
// the only acceptance bar — across adversarial conflict densities, every
// segment count, every thread count, and sampler-block misalignments.

#include "core/sharded_kernel.hpp"

#include <cstdint>

#include <gtest/gtest.h>

#include "core/process.hpp"
#include "core/thread_pool.hpp"

namespace kdc::core {
namespace {

TEST(ShardedSelection, ResolveSegmentsClampsAndAutoScales) {
    // Explicit requests are clamped into [1, rounds].
    EXPECT_EQ(resolve_selection_segments(100, 7, 1), 7u);
    EXPECT_EQ(resolve_selection_segments(100, 1000, 8), 100u);
    EXPECT_EQ(resolve_selection_segments(0, 5, 8), 1u);
    // Auto: serial without a second worker.
    EXPECT_EQ(resolve_selection_segments(100000, 0, 1), 1u);
    // Auto: one segment per worker, but >= 64 rounds per segment.
    EXPECT_EQ(resolve_selection_segments(10000, 0, 8), 8u);
    EXPECT_EQ(resolve_selection_segments(100, 0, 8), 1u);
    EXPECT_EQ(resolve_selection_segments(128, 0, 2), 2u);
}

/// Serial reference loads for (n, k, d, seed, balls).
load_vector serial_loads(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                         std::uint64_t seed, std::uint64_t balls) {
    kd_choice_process reference(n, k, d, seed);
    reference.run_balls(balls);
    return reference.loads();
}

// Adversarial partitioned selection: tiny n and large d make nearly every
// bin of a chunk conflicted (and duplicated probes common), and a segment
// per round maximizes cross-segment conflicts — almost everything goes
// through the dirty-round hand-off. The output must not budge.
TEST(ShardedSelection, AdversarialTinyNLargeDManySegments) {
    constexpr std::uint64_t n = 4096;
    constexpr std::uint64_t k = 4;
    constexpr std::uint64_t d = 16;
    constexpr std::uint64_t seed = 77;
    constexpr std::uint64_t balls = 8 * n;

    const load_vector expected = serial_loads(n, k, d, seed, balls);
    thread_pool pool(8);
    for (const std::uint64_t selpar : {2ull, 7ull, 64ull}) {
        sharded_kd_process process(n, k, d, seed, /*shards=*/4, selpar);
        process.use_pool(&pool);
        process.run_balls(balls);
        EXPECT_EQ(process.loads(), expected) << "selpar=" << selpar;
    }
}

// Even tinier: every round is a separate chunk and duplicates are near
// certain (d = n/4), so the dup side table and occurrence heights carry
// the whole selection.
TEST(ShardedSelection, DuplicateSaturatedRoundsStayExact) {
    constexpr std::uint64_t n = 64;
    constexpr std::uint64_t k = 2;
    constexpr std::uint64_t d = 16;
    constexpr std::uint64_t seed = 5;
    constexpr std::uint64_t balls = 400;

    const load_vector expected = serial_loads(n, k, d, seed, balls);
    thread_pool pool(4);
    for (const std::uint64_t selpar : {1ull, 3ull, 64ull}) {
        sharded_kd_process process(n, k, d, seed, /*shards=*/2, selpar);
        process.use_pool(&pool);
        process.run_balls(balls);
        EXPECT_EQ(process.loads(), expected) << "selpar=" << selpar;
    }
}

// The property the ISSUE names: segments {1, 2, 7, 64} x threads {1, 2, 8}
// never change the output of the sharded kernel.
TEST(ShardedSelection, SegmentAndThreadGridNeverChangesPerBinOutput) {
    constexpr std::uint64_t n = 10'000;
    constexpr std::uint64_t k = 3;
    constexpr std::uint64_t d = 8;
    constexpr std::uint64_t seed = 2024;
    constexpr std::uint64_t balls = 3 * n;

    const load_vector expected = serial_loads(n, k, d, seed, balls);
    for (const unsigned threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        for (const std::uint64_t selpar : {1ull, 2ull, 7ull, 64ull}) {
            sharded_kd_process process(n, k, d, seed, /*shards=*/16, selpar);
            process.use_pool(&pool);
            process.run_balls(balls);
            EXPECT_EQ(process.loads(), expected)
                << "threads=" << threads << " selpar=" << selpar;
        }
    }
}

// Parallel tape pregeneration: a d that does not divide the sampler's
// refill block (256) forces the mid-block slice reconstruction on almost
// every slice boundary, across many chunks (the sampler buffer carries
// partial blocks from chunk to chunk).
TEST(ShardedPregen, MisalignedBlockBoundariesReconstructExactly) {
    constexpr std::uint64_t n = 2000;
    constexpr std::uint64_t k = 2;
    constexpr std::uint64_t d = 5;
    constexpr std::uint64_t seed = 99;
    constexpr std::uint64_t balls = 12'000;

    const load_vector expected = serial_loads(n, k, d, seed, balls);
    for (const unsigned threads : {2u, 8u}) {
        thread_pool pool(threads);
        sharded_kd_process process(n, k, d, seed);
        process.use_pool(&pool);
        process.run_balls(balls);
        EXPECT_EQ(process.loads(), expected) << "threads=" << threads;
    }
}

// Split runs flush the sampler mid-buffer between run_balls calls; the
// slice arithmetic must keep reconstructing from that carried state.
TEST(ShardedPregen, SplitRunsWithParallelPregenMatchOneBigRun) {
    constexpr std::uint64_t n = 3000;
    constexpr std::uint64_t k = 1;
    constexpr std::uint64_t d = 3;
    constexpr std::uint64_t seed = 12;

    thread_pool pool(4);
    sharded_kd_process one(n, k, d, seed);
    one.use_pool(&pool);
    one.run_balls(9000);

    sharded_kd_process split(n, k, d, seed);
    split.use_pool(&pool);
    split.run_balls(1);
    split.run_balls(2999);
    split.run_balls(6000);
    EXPECT_EQ(split.loads(), one.loads());
}

TEST(ShardedPregen, PhaseTimesAccumulateAcrossChunks) {
    thread_pool pool(2);
    sharded_kd_process process(10'000, 1, 2, 7);
    process.use_pool(&pool);
    const auto& times = process.phase_times();
    EXPECT_EQ(times.pregen + times.bucket + times.gather + times.select +
                  times.handoff + times.commit,
              0.0);
    process.run_balls(30'000);
    EXPECT_GT(times.pregen, 0.0);
    EXPECT_GT(times.gather, 0.0);
    EXPECT_GT(times.select, 0.0);
    EXPECT_GT(times.commit, 0.0);
    EXPECT_GE(times.bucket, 0.0);
    EXPECT_GE(times.handoff, 0.0);
}

} // namespace
} // namespace kdc::core

// The sharded round-parallel kernel's one non-negotiable contract: output
// byte-identical to the serial kernel at EVERY shard count and EVERY
// thread count. The equivalence suite here is the machine-checked version
// of the exactness argument in core/sharded_kernel.hpp.
#include "core/sharded_kernel.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/process.hpp"
#include "core/thread_pool.hpp"

namespace kdc::core {
namespace {

TEST(ShardLayout, PartitionsBinsContiguouslyAndExactly) {
    for (const std::uint64_t n : {1ull, 7ull, 64ull, 1000ull}) {
        for (std::uint64_t s = 1; s <= n && s <= 9; ++s) {
            const shard_layout layout(n, s);
            EXPECT_EQ(layout.begin(0), 0u);
            EXPECT_EQ(layout.end(s - 1), n);
            std::uint64_t total = 0;
            for (std::uint64_t i = 0; i < s; ++i) {
                EXPECT_EQ(layout.end(i), layout.begin(i) + layout.size(i));
                if (i + 1 < s) {
                    EXPECT_EQ(layout.end(i), layout.begin(i + 1));
                    // Dealing rule: the first n mod S shards get the +1.
                    EXPECT_GE(layout.size(i), layout.size(i + 1));
                }
                total += layout.size(i);
            }
            EXPECT_EQ(total, n);
        }
    }
}

TEST(ShardLayout, ShardOfInvertsBeginEnd) {
    const shard_layout layout(1000, 7);
    for (std::uint64_t bin = 0; bin < 1000; ++bin) {
        const auto s = layout.shard_of(bin);
        EXPECT_GE(bin, layout.begin(s));
        EXPECT_LT(bin, layout.end(s));
    }
}

TEST(ResolveShardCount, AutoScalesWithBinsAndClampsRequests) {
    // Auto is window-relative: one shard per shard_auto_config().window_bins
    // bins, whatever the detected cache topology chose for the window.
    const std::uint64_t window = shard_auto_config().window_bins;
    EXPECT_GE(window, 32768u); // never below the historical constant
    EXPECT_LE(window, std::uint64_t{1} << 20);
    EXPECT_EQ(resolve_shard_count(window - 1, 0), 1u); // below one window
    EXPECT_EQ(resolve_shard_count(32 * window, 0), 32u);
    EXPECT_EQ(resolve_shard_count(std::uint64_t{8192} * window, 0),
              4096u);                                  // capped
    EXPECT_EQ(resolve_shard_count(1000, 64), 64u);     // explicit honoured
    EXPECT_EQ(resolve_shard_count(1000, 5000), 1000u); // clamped to n
    EXPECT_EQ(resolve_shard_count(100000, 100000), 4096u); // global cap
}

// The tentpole equivalence: sharded == serial, byte for byte, across the
// full (threads x shards) grid the ISSUE names, for the per-bin kernel.
TEST(ShardedKernel, PerBinByteIdenticalToSerialAcrossThreadsAndShards) {
    constexpr std::uint64_t n = 10'000;
    constexpr std::uint64_t k = 3;
    constexpr std::uint64_t d = 8;
    constexpr std::uint64_t seed = 2024;
    constexpr std::uint64_t balls = 3 * n; // heavily loaded: conflicts galore

    kd_choice_process reference(n, k, d, seed);
    reference.run_balls(balls);

    for (const unsigned threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        for (const std::uint64_t shards : {1ull, 4ull, 64ull}) {
            sharded_kd_process process(n, k, d, seed, shards);
            process.use_pool(&pool);
            process.run_balls(balls);
            ASSERT_EQ(process.loads(), reference.loads())
                << "threads=" << threads << " shards=" << shards;
            EXPECT_EQ(process.balls_placed(), reference.balls_placed());
            EXPECT_EQ(process.rounds_run(), reference.rounds_run());
            EXPECT_EQ(process.messages(), reference.messages());
        }
    }
}

// Same grid for the second (k,d) point the benches care about.
TEST(ShardedKernel, PerBinByteIdenticalAtK8D16) {
    constexpr std::uint64_t n = 10'000;
    kd_choice_process reference(n, 8, 16, 7);
    reference.run_balls(n - (n % 8));
    thread_pool pool(2);
    for (const std::uint64_t shards : {1ull, 4ull, 64ull}) {
        sharded_kd_process process(n, 8, 16, 7, shards);
        process.use_pool(&pool);
        process.run_balls(n - (n % 8));
        ASSERT_EQ(process.loads(), reference.loads()) << "shards=" << shards;
    }
}

TEST(ShardedKernel, NoPoolRunsInlineWithIdenticalOutput) {
    constexpr std::uint64_t n = 4096;
    kd_choice_process reference(n, 2, 5, 99);
    reference.run_balls(2 * n);
    sharded_kd_process process(n, 2, 5, 99, 16); // pool never attached
    process.run_balls(2 * n);
    EXPECT_EQ(process.loads(), reference.loads());
}

// Chunk boundaries are an internal schedule, not a semantic: splitting the
// run across many run_balls calls must not move a single ball.
TEST(ShardedKernel, SplitRunsMatchOneBigRun) {
    constexpr std::uint64_t n = 2048;
    kd_choice_process reference(n, 4, 9, 5);
    reference.run_balls(4 * n);
    sharded_kd_process process(n, 4, 9, 5, 8);
    for (int i = 0; i < 4; ++i) {
        process.run_balls(n);
    }
    EXPECT_EQ(process.loads(), reference.loads());
}

TEST(ShardedKernel, SnapshotConstructorResumesExactly) {
    constexpr std::uint64_t n = 1024;
    load_vector start(n, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        start[i] = static_cast<bin_load>(i % 5);
    }
    kd_choice_process reference(start, 2, 6, 31);
    reference.run_balls(2 * n);
    sharded_kd_process process(start, 2, 6, 31, 4);
    process.run_balls(2 * n);
    EXPECT_EQ(process.loads(), reference.loads());
    EXPECT_EQ(process.balls_placed(), 2 * n);
}

TEST(ShardedKernel, ContractViolationsThrow) {
    EXPECT_THROW(sharded_kd_process(10, 0, 4, 1), kdc::contract_violation);
    EXPECT_THROW(sharded_kd_process(10, 4, 4, 1), kdc::contract_violation);
    EXPECT_THROW(sharded_kd_process(3, 1, 4, 1), kdc::contract_violation);
    sharded_kd_process process(10, 3, 4, 1);
    EXPECT_THROW(process.run_balls(2), // not a whole round
                 kdc::contract_violation);
}

} // namespace
} // namespace kdc::core

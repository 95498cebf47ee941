// Dispatcher invariants that hold batch by batch: shard-count invariance,
// release bookkeeping, message accounting, and the id-order precondition.
#include "serve/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/thread_pool.hpp"
#include "serve/channel.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {
namespace {

std::vector<request> allocates(std::uint64_t count, std::uint64_t first_id) {
    std::vector<request> batch;
    for (std::uint64_t i = 0; i < count; ++i) {
        request req;
        req.client = i % 3;
        req.id = first_id + i;
        batch.push_back(req);
    }
    return batch;
}

TEST(Dispatcher, AllocateReturnsKBinsInRange) {
    dispatcher_config config;
    config.bins = 64;
    config.k = 3;
    config.d = 7;
    config.seed = 11;
    config.shards = 4;
    dispatcher dispatch(config, nullptr);
    const auto responses = dispatch.process(allocates(10, 0));
    ASSERT_EQ(responses.size(), 10u);
    for (const response& resp : responses) {
        ASSERT_EQ(resp.bins.size(), 3u);
        for (const std::uint32_t bin : resp.bins) {
            EXPECT_LT(bin, 64u);
        }
        EXPECT_EQ(resp.probe_messages, 7u);
    }
    EXPECT_EQ(dispatch.balls_held(), 30u);
    EXPECT_EQ(dispatch.probe_messages(), 70u);
    EXPECT_EQ(dispatch.live_allocations(), 10u);
}

TEST(Dispatcher, ShardCountNeverChangesTheOutcome) {
    std::vector<std::vector<response>> per_shards;
    std::vector<core::load_vector> loads;
    for (const std::uint64_t shards : {1u, 3u, 8u}) {
        dispatcher_config config;
        config.bins = 40;
        config.k = 2;
        config.d = 5;
        config.seed = 7;
        config.shards = shards;
        dispatcher dispatch(config, nullptr);
        std::vector<response> all;
        for (std::uint64_t b = 0; b < 6; ++b) {
            auto responses = dispatch.process(allocates(9, b * 9));
            all.insert(all.end(), responses.begin(), responses.end());
        }
        per_shards.push_back(std::move(all));
        loads.push_back(dispatch.loads());
    }
    for (std::size_t i = 1; i < per_shards.size(); ++i) {
        ASSERT_EQ(per_shards[i].size(), per_shards[0].size());
        for (std::size_t r = 0; r < per_shards[0].size(); ++r) {
            EXPECT_EQ(per_shards[i][r].bins, per_shards[0][r].bins);
        }
        EXPECT_EQ(loads[i], loads[0]);
    }
}

TEST(Dispatcher, BatchingNeverChangesTheOutcome) {
    // One request per batch vs everything in one batch: the overlay must
    // make the big batch see exactly the serial loads.
    dispatcher_config config;
    config.bins = 32;
    config.k = 2;
    config.d = 6;
    config.seed = 19;
    config.shards = 2;
    dispatcher one_by_one(config, nullptr);
    dispatcher all_at_once(config, nullptr);
    std::vector<response> singles;
    for (std::uint64_t i = 0; i < 24; ++i) {
        auto responses = one_by_one.process(allocates(1, i));
        singles.push_back(responses.at(0));
    }
    const auto batched = all_at_once.process(allocates(24, 0));
    ASSERT_EQ(batched.size(), singles.size());
    for (std::size_t i = 0; i < singles.size(); ++i) {
        EXPECT_EQ(batched[i].bins, singles[i].bins);
    }
    EXPECT_EQ(one_by_one.loads(), all_at_once.loads());
}

TEST(Dispatcher, ReleaseUndoesItsAllocate) {
    dispatcher_config config;
    config.bins = 16;
    config.k = 3;
    config.d = 6;
    config.seed = 5;
    config.shards = 2;
    dispatcher dispatch(config, nullptr);
    const auto first = dispatch.process(allocates(4, 0));
    const core::load_vector before = dispatch.loads();

    std::vector<request> batch;
    request extra;
    extra.id = 4;
    batch.push_back(extra); // one more allocate...
    request release;
    release.kind = request_kind::release;
    release.id = 5;
    release.target = 4; // ...released in the SAME batch
    batch.push_back(release);
    const auto responses = dispatch.process(batch);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].bins, responses[0].bins); // echoes the freed bins
    EXPECT_EQ(responses[1].probe_messages, 0u);
    EXPECT_EQ(dispatch.loads(), before);
    EXPECT_EQ(dispatch.live_allocations(), 4u);
    EXPECT_EQ(dispatch.balls_held(), 12u);
    (void)first;
}

TEST(Dispatcher, PerTaskModeSpendsKTimesDMessages) {
    dispatcher_config config;
    config.bins = 64;
    config.k = 3;
    config.d = 4;
    config.mode = probing::per_task;
    config.seed = 23;
    config.shards = 4;
    dispatcher dispatch(config, nullptr);
    const auto responses = dispatch.process(allocates(5, 0));
    for (const response& resp : responses) {
        EXPECT_EQ(resp.probe_messages, 12u);
        EXPECT_EQ(resp.bins.size(), 3u);
    }
    EXPECT_EQ(dispatch.probe_messages(), 60u);
}

TEST(Dispatcher, AcceptDrainsTheChannelFifoUpToTheLimit) {
    dispatcher_config config;
    config.bins = 8;
    dispatcher dispatch(config, nullptr);
    memory_channel<request> inbox;
    for (std::uint64_t i = 0; i < 5; ++i) {
        request req;
        req.id = i;
        inbox.send(req);
    }
    const auto first = dispatch.accept(inbox, 3);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0].id, 0u);
    EXPECT_EQ(first[2].id, 2u);
    const auto rest = dispatch.accept(inbox, 100);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0].id, 3u);
    EXPECT_TRUE(dispatch.accept(inbox, 100).empty());
}

TEST(Dispatcher, RejectsOutOfOrderBatches) {
    dispatcher_config config;
    config.bins = 8;
    dispatcher dispatch(config, nullptr);
    std::vector<request> batch = allocates(2, 0);
    std::swap(batch[0].id, batch[1].id);
    EXPECT_THROW((void)dispatch.process(batch), contract_violation);
}

TEST(Dispatcher, RejectsBatchModeWithKAboveD) {
    dispatcher_config config;
    config.bins = 8;
    config.k = 5;
    config.d = 3;
    EXPECT_THROW(dispatcher(config, nullptr), contract_violation);
}

TEST(Dispatcher, PoolBackedPhasesMatchSerial) {
    dispatcher_config config;
    config.bins = 96;
    config.k = 4;
    config.d = 9;
    config.seed = 29;
    config.shards = 6;
    dispatcher serial(config, nullptr);
    core::thread_pool pool(4);
    dispatcher parallel(config, &pool);
    for (std::uint64_t b = 0; b < 5; ++b) {
        const auto a = serial.process(allocates(11, b * 11));
        const auto c = parallel.process(allocates(11, b * 11));
        ASSERT_EQ(a.size(), c.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].bins, c[i].bins);
        }
    }
    EXPECT_EQ(serial.loads(), parallel.loads());
    EXPECT_EQ(serial.balls_held(), parallel.balls_held());
}

} // namespace
} // namespace kdc::serve

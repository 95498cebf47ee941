// Dispatcher invariants that hold batch by batch: batching invariance,
// release bookkeeping, message accounting, and the id-order precondition.
#include "serve/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
    dispatcher dispatch(config);
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

TEST(Dispatcher, BatchingNeverChangesTheOutcome) {
    // One request per batch vs everything in one batch: every request of
    // the big batch must see exactly the serial loads.
    dispatcher_config config;
    config.bins = 32;
    config.k = 2;
    config.d = 6;
    config.seed = 19;
    dispatcher one_by_one(config);
    dispatcher all_at_once(config);
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
    dispatcher dispatch(config);
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
    dispatcher dispatch(config);
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
    dispatcher dispatch(config);
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
    dispatcher dispatch(config);
    std::vector<request> batch = allocates(2, 0);
    std::swap(batch[0].id, batch[1].id);
    EXPECT_THROW((void)dispatch.process(batch), contract_violation);
}

TEST(Dispatcher, RejectsBatchModeWithKAboveD) {
    dispatcher_config config;
    config.bins = 8;
    config.k = 5;
    config.d = 3;
    EXPECT_THROW((void)dispatcher(config), contract_violation);
}

TEST(Dispatcher, RejectsReleaseOfANonLiveId) {
    dispatcher_config config;
    config.bins = 8;
    dispatcher dispatch(config);
    (void)dispatch.process(allocates(1, 0));
    request release;
    release.kind = request_kind::release;
    release.id = 1;
    release.target = 7; // never allocated
    EXPECT_THROW((void)dispatch.process({release}), contract_violation);
    release.target = 0;
    (void)dispatch.process({release});
    release.id = 2; // the same allocation a second time
    EXPECT_THROW((void)dispatch.process({release}), contract_violation);
}

} // namespace
} // namespace kdc::serve

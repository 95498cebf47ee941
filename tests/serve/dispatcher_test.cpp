// Dispatcher invariants that hold batch by batch: batching invariance,
// release bookkeeping, message accounting, the id-order precondition, and
// the dense live table's growth and id checks.
#include "serve/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

TEST(Dispatcher, TakeLoadsMovesTheLoadsOutAndSpendsTheDispatcher) {
    dispatcher_config config;
    config.bins = 64;
    config.k = 3;
    config.d = 7;
    config.seed = 11;
    dispatcher dispatch(config);
    (void)dispatch.process(allocates(10, 0));
    const core::load_vector expected = dispatch.loads();
    const core::load_vector taken = dispatch.take_loads();
    EXPECT_EQ(taken, expected);
    EXPECT_TRUE(dispatch.loads().empty());
    EXPECT_EQ(dispatch.balls_held(), 0u);
    EXPECT_THROW((void)dispatch.process(allocates(1, 10)),
                 contract_violation);
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

/// A mixed stream of allocates and releases: every third request releases
/// one of the allocations still live, picked by a fixed stride.
std::vector<request> mixed_requests(std::uint64_t count) {
    std::vector<request> requests;
    std::vector<std::uint64_t> live;
    for (std::uint64_t id = 0; id < count; ++id) {
        request req;
        req.client = id % 4;
        req.id = id;
        if (id % 3 == 2 && !live.empty()) {
            const std::size_t pick = (id * 5) % live.size();
            req.kind = request_kind::release;
            req.target = live[pick];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
            live.push_back(id);
        }
        requests.push_back(req);
    }
    return requests;
}

TEST(Dispatcher, MixedBatchAtTinyBinsMatchesOneRequestAtATime) {
    // Four bins and six probes: every allocate of a batch probes bins that
    // the batch's earlier allocates and releases already changed, so each
    // selection must see the live loads, not the loads at batch start.
    for (const probing mode : {probing::batch, probing::per_task}) {
        SCOPED_TRACE(probing_name(mode));
        dispatcher_config config;
        config.bins = 4;
        config.k = 2;
        config.d = 6;
        config.mode = mode;
        config.seed = 29;
        dispatcher serial(config);
        dispatcher batched(config);
        const std::vector<request> requests = mixed_requests(30);
        std::vector<response> singles;
        for (const request& req : requests) {
            singles.push_back(serial.process({req}).at(0));
        }
        std::vector<response> merged;
        std::size_t first = 0;
        for (const std::size_t size : {7, 11, 1, 11}) {
            const std::vector<request> batch(
                requests.begin() + static_cast<std::ptrdiff_t>(first),
                requests.begin() + static_cast<std::ptrdiff_t>(first + size));
            for (const response& resp : batched.process(batch)) {
                merged.push_back(resp);
            }
            first += size;
        }
        ASSERT_EQ(first, requests.size());
        ASSERT_EQ(merged.size(), singles.size());
        for (std::size_t i = 0; i < singles.size(); ++i) {
            EXPECT_EQ(merged[i].client, singles[i].client);
            EXPECT_EQ(merged[i].id, singles[i].id);
            EXPECT_EQ(merged[i].bins, singles[i].bins);
            EXPECT_EQ(merged[i].probe_messages, singles[i].probe_messages);
        }
        EXPECT_EQ(batched.loads(), serial.loads());
        EXPECT_EQ(batched.live_allocations(), serial.live_allocations());
        EXPECT_EQ(batched.probe_messages(), serial.probe_messages());
    }
}

TEST(Dispatcher, ServingIntoAReusedBufferEqualsFreshResponses) {
    // 6, then 2, then 6 requests into one buffer that starts with stale
    // junk: each call must leave exactly the fresh-vector responses, with
    // no stale bins or message counts from an earlier occupant of a slot.
    for (const probing mode : {probing::batch, probing::per_task}) {
        SCOPED_TRACE(probing_name(mode));
        dispatcher_config config;
        config.bins = 16;
        config.k = 3;
        config.d = 5;
        config.mode = mode;
        config.seed = 37;
        dispatcher fresh(config);
        dispatcher reused(config);
        response junk;
        junk.client = 99;
        junk.id = 99;
        junk.bins = {7, 7, 7, 7, 7};
        junk.probe_messages = 99;
        std::vector<response> out(9, junk);
        const std::vector<request> requests = mixed_requests(14);
        std::size_t first = 0;
        for (const std::size_t size : {6, 2, 6}) {
            const std::vector<request> batch(
                requests.begin() + static_cast<std::ptrdiff_t>(first),
                requests.begin() + static_cast<std::ptrdiff_t>(first + size));
            const std::vector<response> expected = fresh.process(batch);
            reused.process(batch, out);
            ASSERT_EQ(out.size(), size);
            for (std::size_t i = 0; i < size; ++i) {
                EXPECT_EQ(out[i].client, expected[i].client);
                EXPECT_EQ(out[i].id, expected[i].id);
                EXPECT_EQ(out[i].bins, expected[i].bins);
                EXPECT_EQ(out[i].probe_messages, expected[i].probe_messages);
            }
            first += size;
        }
        EXPECT_EQ(reused.loads(), fresh.loads());
        reused.process({}, out);
        EXPECT_TRUE(out.empty());
    }
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

TEST(Dispatcher, RejectsASecondAllocateOfTheSameId) {
    dispatcher_config config;
    config.bins = 16;
    config.k = 3;
    config.d = 6;
    config.seed = 7;
    dispatcher dispatch(config);
    (void)dispatch.process(allocates(1, 0));
    const core::load_vector loads = dispatch.loads();
    EXPECT_THROW((void)dispatch.process(allocates(1, 0)), contract_violation);
    EXPECT_EQ(dispatch.loads(), loads);
    EXPECT_EQ(dispatch.balls_held(), 3u);
    EXPECT_EQ(dispatch.live_allocations(), 1u);
    EXPECT_EQ(dispatch.probe_messages(), 6u);

    // Once released, the id stays spent.
    request release;
    release.kind = request_kind::release;
    release.id = 1;
    release.target = 0;
    (void)dispatch.process({release});
    EXPECT_THROW((void)dispatch.process(allocates(1, 0)), contract_violation);
    EXPECT_EQ(dispatch.balls_held(), 0u);
    EXPECT_EQ(dispatch.live_allocations(), 0u);
}

TEST(Dispatcher, ReleaseFarBeyondEveryAllocateDoesNotGrowTheTable) {
    dispatcher_config config;
    config.bins = 8;
    dispatcher dispatch(config);
    (void)dispatch.process(allocates(3, 0));
    const std::uint64_t ids = dispatch.table_ids();
    EXPECT_GE(ids, 3u);
    request release;
    release.kind = request_kind::release;
    release.id = 3;
    release.target = std::uint64_t{1} << 40;
    EXPECT_THROW((void)dispatch.process({release}), contract_violation);
    EXPECT_EQ(dispatch.table_ids(), ids);
    EXPECT_EQ(dispatch.live_allocations(), 3u);
}

TEST(Dispatcher, ReleaseEchoesBinsAllocatedBeforeTheTableGrew) {
    dispatcher_config config;
    config.bins = 64;
    config.k = 4;
    config.d = 8;
    config.seed = 31;
    dispatcher dispatch(config);
    const auto early = dispatch.process(allocates(3, 0));
    // Each allocate lands far past the table's end, forcing a growth step.
    std::uint64_t steps = 0;
    for (std::uint64_t id = 10; id < 100000; id *= 7) {
        const std::uint64_t before = dispatch.table_ids();
        (void)dispatch.process(allocates(1, id));
        steps += dispatch.table_ids() > before ? 1 : 0;
    }
    EXPECT_GE(steps, 5u);
    std::vector<request> releases;
    for (std::uint64_t i = 0; i < early.size(); ++i) {
        request release;
        release.kind = request_kind::release;
        release.id = 200000 + i;
        release.target = i;
        releases.push_back(release);
    }
    const auto freed = dispatch.process(releases);
    ASSERT_EQ(freed.size(), early.size());
    for (std::size_t i = 0; i < early.size(); ++i) {
        EXPECT_EQ(freed[i].bins, early[i].bins);
    }
}

TEST(Dispatcher, LiveAllocationsCountAllocatesMinusReleases) {
    dispatcher_config config;
    config.bins = 128;
    config.k = 2;
    config.d = 5;
    config.seed = 43;
    dispatcher dispatch(config);
    std::vector<std::uint64_t> live; // ids allocated and not yet released
    std::uint64_t allocated = 0;
    std::uint64_t released = 0;
    std::uint64_t next_id = 0;
    for (std::uint64_t b = 0; b < 50; ++b) {
        std::vector<request> batch;
        for (std::uint64_t i = 0; i < 1 + b % 7; ++i) {
            request req;
            req.id = next_id++;
            // Release the oldest live allocation on every third request.
            if (req.id % 3 == 2 && !live.empty()) {
                req.kind = request_kind::release;
                req.target = live.front();
                live.erase(live.begin());
                released += 1;
            } else {
                live.push_back(req.id);
                allocated += 1;
            }
            batch.push_back(req);
        }
        (void)dispatch.process(batch);
        ASSERT_EQ(dispatch.live_allocations(), allocated - released);
        ASSERT_EQ(dispatch.balls_held(), 2 * (allocated - released));
    }
    EXPECT_GT(released, 0u);
}

} // namespace
} // namespace kdc::serve

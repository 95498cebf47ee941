// The channel contract: strict FIFO delivery, accurate pending counts,
// lifetime counters — the properties the dispatcher's id-order processing
// (and therefore the whole determinism contract) leans on.
#include "serve/channel.hpp"

#include <gtest/gtest.h>

#include <string>

#include "serve/message.hpp"

namespace kdc::serve {
namespace {

TEST(MemoryChannel, DeliversInSendOrder) {
    memory_channel<int> chan;
    for (int i = 0; i < 100; ++i) {
        chan.send(i);
    }
    int out = -1;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(chan.try_receive(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(chan.try_receive(out));
}

TEST(MemoryChannel, InterleavedSendsStayFifo) {
    memory_channel<std::string> chan;
    chan.send("a");
    chan.send("b");
    std::string out;
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(out, "a");
    chan.send("c");
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(out, "b");
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(out, "c");
    EXPECT_FALSE(chan.try_receive(out));
}

TEST(MemoryChannel, PendingTracksQueueDepth) {
    memory_channel<int> chan;
    EXPECT_EQ(chan.pending(), 0u);
    chan.send(1);
    chan.send(2);
    EXPECT_EQ(chan.pending(), 2u);
    int out = 0;
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(chan.pending(), 1u);
}

TEST(MemoryChannel, LifetimeCountersAreMonotone) {
    memory_channel<int> chan;
    int out = 0;
    EXPECT_FALSE(chan.try_receive(out)); // failed receive does not count
    chan.send(7);
    chan.send(8);
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(chan.total_sent(), 2u);
    EXPECT_EQ(chan.total_received(), 1u);
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(chan.total_received(), 2u);
    EXPECT_EQ(chan.pending(), 0u);
}

TEST(MemoryChannel, CarriesRequestMessages) {
    memory_channel<request> chan;
    request req;
    req.kind = request_kind::release;
    req.client = 3;
    req.id = 41;
    req.target = 17;
    chan.send(req);
    request out;
    ASSERT_TRUE(chan.try_receive(out));
    EXPECT_EQ(out.kind, request_kind::release);
    EXPECT_EQ(out.client, 3u);
    EXPECT_EQ(out.id, 41u);
    EXPECT_EQ(out.target, 17u);
}

} // namespace
} // namespace kdc::serve

// The session's in-flight bookkeeping: a FIFO of sent requests, ids
// increasing from send to send, responses consumed in send order and never
// before their send. Each rejection names its cause. Also the client
// schedule draw, held against the erase-based draw it replaced.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "rng/splitmix64.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/message.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {
namespace {

response answer(std::uint64_t id) {
    response resp;
    resp.id = id;
    return resp;
}

/// The contract_violation message `call` throws, or "" when it returns.
std::string violation_of(const std::function<void()>& call) {
    try {
        call();
    } catch (const contract_violation& e) {
        return e.what();
    }
    return "";
}

void expect_violation(const std::function<void()>& call,
                      const std::string& cause) {
    const std::string what = violation_of(call);
    EXPECT_NE(what.find(cause), std::string::npos)
        << "expected '" << cause << "', got '" << what << "'";
}

TEST(Session, InFlightCountsSendsMinusResponses) {
    session s;
    EXPECT_EQ(s.in_flight(), 0u);
    s.on_send(2, 0.5);
    s.on_send(5, 1.0);
    s.on_send(9, 1.5);
    EXPECT_EQ(s.in_flight(), 3u);
    s.on_response(answer(2), 2.0);
    EXPECT_EQ(s.in_flight(), 2u);
    s.on_send(11, 2.5);
    s.on_response(answer(5), 3.0);
    s.on_response(answer(9), 3.0);
    s.on_response(answer(11), 3.5);
    EXPECT_EQ(s.in_flight(), 0u);
}

TEST(Session, OnResponseReturnsTheMatchedSendTime) {
    session s;
    s.on_send(3, 0.25);
    s.on_send(8, 1.75);
    EXPECT_EQ(s.on_response(answer(3), 2.0), 0.25);
    s.on_send(12, 2.5);
    EXPECT_EQ(s.on_response(answer(8), 2.0), 1.75);
    EXPECT_EQ(s.on_response(answer(12), 2.5), 2.5);
    EXPECT_EQ(s.in_flight(), 0u);
}

TEST(Session, RejectsANonIncreasingId) {
    session s;
    s.on_send(4, 0.0);
    expect_violation([&] { s.on_send(4, 1.0); },
                     "request ids must increase from send to send");
    expect_violation([&] { s.on_send(3, 1.0); },
                     "request ids must increase from send to send");
    // Still increasing after the in-flight set drains.
    s.on_response(answer(4), 2.0);
    expect_violation([&] { s.on_send(4, 3.0); },
                     "request ids must increase from send to send");
    EXPECT_EQ(s.in_flight(), 0u);
}

TEST(Session, RejectsAResponseForAnUnsentId) {
    session s;
    expect_violation([&] { s.on_response(answer(0), 1.0); },
                     "response to a request this session never sent");
    s.on_send(1, 0.0);
    s.on_send(3, 0.0);
    expect_violation([&] { s.on_response(answer(2), 1.0); },
                     "response to a request this session never sent");
    expect_violation([&] { s.on_response(answer(7), 1.0); },
                     "response to a request this session never sent");
    s.on_response(answer(1), 1.0);
    // An answered id is no longer in flight.
    expect_violation([&] { s.on_response(answer(1), 1.0); },
                     "response to a request this session never sent");
    EXPECT_EQ(s.in_flight(), 1u);
}

TEST(Session, RejectsAResponseOutOfSendOrder) {
    session s;
    s.on_send(1, 0.0);
    s.on_send(2, 0.0);
    s.on_send(6, 0.0);
    expect_violation([&] { s.on_response(answer(6), 1.0); },
                     "response out of send order");
    expect_violation([&] { s.on_response(answer(2), 1.0); },
                     "response out of send order");
    EXPECT_EQ(s.in_flight(), 3u);
    s.on_response(answer(1), 1.0);
    s.on_response(answer(2), 1.0);
    s.on_response(answer(6), 1.0);
    EXPECT_EQ(s.in_flight(), 0u);
}

TEST(Session, RejectsAResponseDeliveredBeforeItsSend) {
    session s;
    s.on_send(0, 2.0);
    expect_violation([&] { s.on_response(answer(0), 1.5); },
                     "response delivered before its request was sent");
    EXPECT_EQ(s.in_flight(), 1u);
    s.on_response(answer(0), 2.0); // delivery at the send time is allowed
    EXPECT_EQ(s.in_flight(), 0u);
}

/// The erase-based draw draw_arrivals used before its Fenwick tree: the
/// outstanding seqs in a sorted vector, erased at the picked index.
std::vector<client_arrival> reference_arrivals(const session_config& config) {
    rng::xoshiro256ss gen(rng::derive_seed(
        rng::derive_seed(config.seed, 0x5e551025ULL), config.client));
    std::vector<client_arrival> schedule;
    std::vector<std::uint64_t> outstanding;
    double at = 0.0;
    for (std::uint64_t seq = 0; seq < config.arrivals; ++seq) {
        at += rng::exponential(gen, 1.0 / config.rate);
        client_arrival arrival;
        arrival.at = at;
        arrival.client = config.client;
        arrival.seq = seq;
        if (rng::bernoulli(gen, config.churn) && !outstanding.empty()) {
            const auto pick = static_cast<std::size_t>(
                rng::uniform_below(gen, outstanding.size()));
            arrival.kind = request_kind::release;
            arrival.target_seq = outstanding[pick];
            outstanding.erase(outstanding.begin() +
                              static_cast<std::ptrdiff_t>(pick));
        } else {
            outstanding.push_back(seq);
        }
        schedule.push_back(arrival);
    }
    return schedule;
}

TEST(DrawArrivals, MatchesTheEraseBasedDraw) {
    for (const double churn : {0.0, 0.2, 0.5, 0.9}) {
        for (std::uint64_t client = 0; client < 4; ++client) {
            session_config config;
            config.client = client;
            config.seed = 17;
            config.rate = 2.5;
            config.arrivals = 4000;
            config.churn = churn;
            const auto expected = reference_arrivals(config);
            const auto drawn = draw_arrivals(config);
            ASSERT_EQ(drawn.size(), expected.size());
            for (std::size_t i = 0; i < drawn.size(); ++i) {
                ASSERT_EQ(drawn[i].at, expected[i].at);
                ASSERT_EQ(drawn[i].client, expected[i].client);
                ASSERT_EQ(drawn[i].seq, expected[i].seq);
                ASSERT_EQ(drawn[i].kind, expected[i].kind);
                ASSERT_EQ(drawn[i].target_seq, expected[i].target_seq)
                    << "churn " << churn << ", client " << client
                    << ", arrival " << i;
            }
        }
    }
}

TEST(ArrivalStream, AnEmptyStreamIsDoneAndRefusesToDraw) {
    session_config config;
    config.arrivals = 0;
    arrival_stream stream(config);
    EXPECT_TRUE(stream.done());
    expect_violation([&] { (void)stream.next(); },
                     "arrival stream is exhausted");
}

TEST(ArrivalStream, InterleavedStreamsDrawTheirOwnSchedules) {
    // Streams of different clients share no state, so drawing them in
    // turns yields each client's draw_arrivals schedule.
    session_config a;
    a.client = 0;
    a.seed = 5;
    a.rate = 1.5;
    a.arrivals = 300;
    a.churn = 0.4;
    session_config b = a;
    b.client = 1;
    b.arrivals = 200;
    arrival_stream sa(a);
    arrival_stream sb(b);
    std::vector<client_arrival> drawn_a;
    std::vector<client_arrival> drawn_b;
    while (!sa.done() || !sb.done()) {
        if (!sa.done()) {
            drawn_a.push_back(sa.next());
        }
        if (!sb.done()) {
            drawn_b.push_back(sb.next());
        }
    }
    for (const auto& [config, drawn] :
         {std::pair{a, drawn_a}, std::pair{b, drawn_b}}) {
        const auto expected = draw_arrivals(config);
        ASSERT_EQ(drawn.size(), expected.size());
        for (std::size_t i = 0; i < drawn.size(); ++i) {
            ASSERT_EQ(drawn[i].at, expected[i].at);
            ASSERT_EQ(drawn[i].kind, expected[i].kind);
            ASSERT_EQ(drawn[i].target_seq, expected[i].target_seq);
        }
    }
}

TEST(DrawArrivals, MillionArrivalSmoke) {
    // An O(live) removal per release makes this draw quadratic: seconds,
    // not a fraction of one.
    session_config config;
    config.seed = 3;
    config.rate = 1.0;
    config.arrivals = 1000000;
    config.churn = 0.2;
    const auto schedule = draw_arrivals(config);
    ASSERT_EQ(schedule.size(), config.arrivals);
    // Every release frees an earlier allocate that is still outstanding.
    std::vector<bool> live(config.arrivals, false);
    std::uint64_t releases = 0;
    for (const client_arrival& arrival : schedule) {
        if (arrival.kind == request_kind::release) {
            ASSERT_LT(arrival.target_seq, arrival.seq);
            ASSERT_TRUE(live[arrival.target_seq]);
            live[arrival.target_seq] = false;
            releases += 1;
        } else {
            live[arrival.seq] = true;
        }
    }
    EXPECT_GT(releases, 150000u);
    EXPECT_LT(releases, 250000u);
}

} // namespace
} // namespace kdc::serve

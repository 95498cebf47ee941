// The session's in-flight bookkeeping: a FIFO of sent requests, ids
// increasing from send to send, responses consumed in send order and never
// before their send. Each rejection names its cause.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

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

} // namespace
} // namespace kdc::serve

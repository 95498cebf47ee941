// The channel between sessions and the dispatcher: a socket-shaped, FIFO,
// typed message queue.
//
// memory_channel offers the non-blocking half of a socket — send /
// try_receive / pending — and is deterministic by construction: messages
// come out in exactly the order they went in (one queue, no reordering).
// The service sends deliveries in id order, so the dispatcher drains ids
// in increasing order, which gives the service its determinism contract
// (docs/service.md). There is one transport, so there is no abstract
// interface; a second transport brings its own.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

namespace kdc::serve {

/// The deterministic in-memory channel: an unbounded FIFO with send /
/// receive counters. "Delivery latency" is not modeled here — the service
/// computes each delivery's time itself (serve/service.cpp), so one
/// channel class serves both directions.
template <typename M>
class memory_channel {
public:
    /// Enqueues a message (takes ownership).
    void send(M message) {
        queue_.push_back(std::move(message));
        ++sent_;
    }

    /// Dequeues the oldest pending message into `out`; false when empty.
    [[nodiscard]] bool try_receive(M& out) {
        if (queue_.empty()) {
            return false;
        }
        out = std::move(queue_.front());
        queue_.pop_front();
        ++received_;
        return true;
    }

    /// Messages sent but not yet received.
    [[nodiscard]] std::size_t pending() const noexcept {
        return queue_.size();
    }

    /// Lifetime counters (monotone), for tests and stats.
    [[nodiscard]] std::uint64_t total_sent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t total_received() const noexcept {
        return received_;
    }

private:
    std::deque<M> queue_;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
};

} // namespace kdc::serve

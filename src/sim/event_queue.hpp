// Discrete-event simulation substrate: a time-ordered event queue with
// deterministic FIFO tie-breaking. The cluster-scheduling model of the
// paper's Section 1.3 (sched/) runs on top of this.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "support/contracts.hpp"

namespace kdc::sim {

using sim_time = double;
using event_handler = std::function<void()>;

/// Priority queue of (time, sequence)-ordered events. Events scheduled for
/// the same time fire in scheduling order (sequence number), which keeps
/// simulations deterministic.
class event_queue {
public:
    /// Schedules `handler` at absolute time `when` (>= 0).
    void schedule_at(sim_time when, event_handler handler) {
        KD_EXPECTS(when >= 0.0);
        KD_EXPECTS(static_cast<bool>(handler));
        events_.push(event{when, next_sequence_++, std::move(handler)});
    }

    [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

    /// Time of the earliest pending event. Requires a non-empty queue.
    [[nodiscard]] sim_time next_time() const {
        KD_EXPECTS(!events_.empty());
        return events_.top().when;
    }

    /// Removes and returns the earliest event's handler, exposing its time
    /// via `when_out`.
    [[nodiscard]] event_handler pop(sim_time& when_out) {
        KD_EXPECTS(!events_.empty());
        // std::priority_queue::top() is const; moving the handler out
        // requires the const_cast idiom or re-wrapping. Copy-free pop:
        event top = std::move(const_cast<event&>(events_.top()));
        events_.pop();
        when_out = top.when;
        return std::move(top.handler);
    }

private:
    struct event {
        sim_time when = 0.0;
        std::uint64_t sequence = 0;
        event_handler handler;
    };
    struct later_first {
        bool operator()(const event& a, const event& b) const noexcept {
            if (a.when != b.when) {
                return a.when > b.when;
            }
            return a.sequence > b.sequence;
        }
    };

    std::priority_queue<event, std::vector<event>, later_first> events_;
    std::uint64_t next_sequence_ = 0;
};

/// A simulation clock plus event queue. Handlers may schedule more events.
class simulator {
public:
    [[nodiscard]] sim_time now() const noexcept { return now_; }

    /// Schedules `handler` to run `delay >= 0` after the current time.
    void schedule_after(sim_time delay, event_handler handler) {
        KD_EXPECTS(delay >= 0.0);
        queue_.schedule_at(now_ + delay, std::move(handler));
    }

    void schedule_at(sim_time when, event_handler handler) {
        KD_EXPECTS_MSG(when >= now_, "cannot schedule into the past");
        queue_.schedule_at(when, std::move(handler));
    }

    /// Runs events until the queue drains. Returns events processed.
    std::uint64_t run() {
        std::uint64_t processed = 0;
        while (!queue_.empty()) {
            step();
            ++processed;
        }
        return processed;
    }

    /// Runs events with time <= `until`. Events beyond stay queued; the
    /// clock advances to `until`. Returns events processed.
    std::uint64_t run_until(sim_time until) {
        KD_EXPECTS(until >= now_);
        std::uint64_t processed = 0;
        while (!queue_.empty() && queue_.next_time() <= until) {
            step();
            ++processed;
        }
        now_ = until;
        return processed;
    }

    [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
    [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

private:
    void step() {
        sim_time when = 0.0;
        auto handler = queue_.pop(when);
        KD_ASSERT_MSG(when >= now_, "event queue went back in time");
        now_ = when;
        handler();
    }

    sim_time now_ = 0.0;
    event_queue queue_;
};

} // namespace kdc::sim

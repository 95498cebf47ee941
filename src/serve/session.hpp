// Client sessions of the allocation service: open-loop arrival generation
// and per-client response aggregation.
//
// Arrivals are OPEN-LOOP Poisson: each client draws its arrival schedule
// (times, allocate/release decisions, release targets) from its own seeded
// stream, one arrival at a time, and nothing the service does feeds back
// into the draw, so the request sequence is a pure function of (seed,
// clients, rate, churn) — never of service timing, batching or thread
// count. That is the client half of the determinism contract
// (docs/service.md): the server half is the dispatcher's id-order
// processing.
//
// Churn is client-local: a release frees one of the CLIENT'S OWN still
// outstanding allocations, chosen uniformly from the arrivals drawn so
// far. The client tracks outstanding allocations by its own arrival
// sequence numbers — it never needs a response to issue a release (the
// dispatcher resolves the target id to bins server-side), which is what
// keeps an open-loop schedule well-defined. They sit in a Fenwick tree
// over seqs, so drawing and removing a release target costs
// O(log arrivals).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/fenwick.hpp"
#include "rng/splitmix64.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/message.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {

/// One client's schedule parameters.
struct session_config {
    std::uint64_t client = 0;
    std::uint64_t seed = 1;      ///< service master seed (not yet derived)
    double rate = 1.0;           ///< this client's Poisson arrival rate
    std::uint64_t arrivals = 0;  ///< arrivals this client generates
    double churn = 0.0;          ///< P(arrival is a release | target live)
};

/// One drawn arrival. `seq` numbers the client's own arrivals;
/// `target_seq` (releases only) names the client-local seq of the allocate
/// being freed. Global request ids are assigned later, in merged arrival
/// order across all clients (serve/service.cpp).
struct client_arrival {
    double at = 0.0;
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    request_kind kind = request_kind::allocate;
    std::uint64_t target_seq = 0;
};

/// Draws one client's arrivals one next() at a time. Stream: the arrival
/// master seed is derive_seed(seed, 0x5e551025) — a different branch than
/// the dispatcher's per-request tapes, so client schedules and probe tapes
/// never share a stream — then derive_seed(master, client) per client.
/// Per arrival the draw order is fixed: inter-arrival gap, churn coin,
/// then (for a release with a live target) the target index.
class arrival_stream {
public:
    explicit arrival_stream(const session_config& config)
        : config_(config),
          gen_(rng::derive_seed(rng::derive_seed(config.seed, 0x5e551025ULL),
                                config.client)),
          outstanding_(config.arrivals) {
        KD_EXPECTS(config.rate > 0.0);
    }

    /// True once all `arrivals` have been drawn.
    [[nodiscard]] bool done() const noexcept {
        return seq_ == config_.arrivals;
    }

    /// Draws the next arrival (requires !done()).
    [[nodiscard]] client_arrival next() {
        KD_EXPECTS_MSG(!done(), "arrival stream is exhausted");
        at_ += rng::exponential(gen_, 1.0 / config_.rate);
        client_arrival arrival;
        arrival.at = at_;
        arrival.client = config_.client;
        arrival.seq = seq_;
        const bool release = rng::bernoulli(gen_, config_.churn) && live_ > 0;
        if (release) {
            const std::uint64_t pick = rng::uniform_below(gen_, live_);
            arrival.kind = request_kind::release;
            arrival.target_seq = outstanding_.find_kth(pick);
            outstanding_.add(arrival.target_seq, -1);
            live_ -= 1;
        } else {
            outstanding_.add(seq_, 1);
            live_ += 1;
        }
        seq_ += 1;
        return arrival;
    }

private:
    session_config config_;
    rng::xoshiro256ss gen_;
    // One count per unreleased allocate, indexed by seq: the pick-th
    // outstanding allocate in seq order is find_kth(pick), in O(log n).
    core::fenwick_tree outstanding_;
    std::uint64_t live_ = 0; // allocates not yet released
    std::uint64_t seq_ = 0;  // seq of the next arrival
    double at_ = 0.0;        // time of the latest arrival
};

/// Draws a client's full arrival schedule: arrival_stream, drawn to the end.
[[nodiscard]] inline std::vector<client_arrival>
draw_arrivals(const session_config& config) {
    arrival_stream stream(config);
    std::vector<client_arrival> schedule;
    schedule.reserve(config.arrivals);
    while (!stream.done()) {
        schedule.push_back(stream.next());
    }
    return schedule;
}

/// The bookkeeping half: records when each request left the client and
/// matches each response to it. One session per client; the service owns
/// the map from response.client to session and checks that every session
/// ends with nothing in flight.
///
/// The in-flight set is a FIFO of (id, sent_at): a client sends its
/// requests in increasing id order, and the id-order server answers them
/// in that order, so a response always matches the oldest request in
/// flight.
class session {
public:
    /// Records that request `id` left the client at `at`. Ids must
    /// increase from send to send, which also rules out a duplicate.
    void on_send(std::uint64_t id, double at) {
        KD_EXPECTS_MSG(id >= next_id_,
                       "request ids must increase from send to send");
        next_id_ = id + 1;
        sent_.push_back({id, at});
    }

    /// Consumes the response to the oldest request in flight, delivered at
    /// `at` (no earlier than the send), and returns that request's send
    /// time.
    double on_response(const response& resp, double at) {
        const bool oldest = !sent_.empty() && sent_.front().id == resp.id;
        KD_EXPECTS_MSG(oldest || !is_in_flight(resp.id),
                       "response out of send order");
        KD_EXPECTS_MSG(oldest,
                       "response to a request this session never sent");
        const double sent_at = sent_.front().at;
        KD_EXPECTS_MSG(at >= sent_at,
                       "response delivered before its request was sent");
        sent_.pop_front();
        return sent_at;
    }

    /// Requests sent but not yet answered.
    [[nodiscard]] std::size_t in_flight() const noexcept {
        return sent_.size();
    }

private:
    struct sent_request {
        std::uint64_t id = 0;
        double at = 0.0;
    };

    [[nodiscard]] bool is_in_flight(std::uint64_t id) const {
        const auto it = std::lower_bound(
            sent_.begin(), sent_.end(), id,
            [](const sent_request& r, std::uint64_t v) { return r.id < v; });
        return it != sent_.end() && it->id == id;
    }

    std::deque<sent_request> sent_; // ascending id, oldest first
    std::uint64_t next_id_ = 0;     // lowest id the next send may use
};

} // namespace kdc::serve

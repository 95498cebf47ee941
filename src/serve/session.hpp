// Client sessions of the allocation service: open-loop arrival generation
// and per-client response aggregation.
//
// Arrivals are OPEN-LOOP Poisson: each client draws its whole arrival
// schedule (times, allocate/release decisions, release targets) from its
// own seeded stream BEFORE the service runs, so the request sequence
// is a pure function of (seed, clients, rate, churn) — never of service
// timing, batching or thread count. That is the client half of the
// determinism contract (docs/service.md): the server half is the
// dispatcher's id-order processing.
//
// Churn is client-local: a release frees one of the CLIENT'S OWN still
// outstanding allocations, chosen uniformly from the schedule built so
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

/// One pre-drawn arrival. `seq` numbers the client's own arrivals;
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

/// Draws a client's full arrival schedule. Stream: the arrival master seed
/// is derive_seed(seed, 0x5e551025) — a different branch than the
/// dispatcher's per-request tapes, so client schedules and probe tapes
/// never share a stream — then derive_seed(master, client) per client.
/// Per arrival the draw order is fixed: inter-arrival gap, churn coin,
/// then (for a release with a live target) the target index.
[[nodiscard]] inline std::vector<client_arrival>
draw_arrivals(const session_config& config) {
    KD_EXPECTS(config.rate > 0.0);
    rng::xoshiro256ss gen(rng::derive_seed(
        rng::derive_seed(config.seed, 0x5e551025ULL), config.client));
    std::vector<client_arrival> schedule;
    schedule.reserve(config.arrivals);
    // One count per unreleased allocate, indexed by seq: the pick-th
    // outstanding allocate in seq order is find_kth(pick), in O(log n).
    core::fenwick_tree outstanding(config.arrivals);
    std::uint64_t live = 0;
    double at = 0.0;
    for (std::uint64_t seq = 0; seq < config.arrivals; ++seq) {
        at += rng::exponential(gen, 1.0 / config.rate);
        client_arrival arrival;
        arrival.at = at;
        arrival.client = config.client;
        arrival.seq = seq;
        const bool release = rng::bernoulli(gen, config.churn) && live > 0;
        if (release) {
            const std::uint64_t pick = rng::uniform_below(gen, live);
            arrival.kind = request_kind::release;
            arrival.target_seq = outstanding.find_kth(pick);
            outstanding.add(arrival.target_seq, -1);
            live -= 1;
        } else {
            outstanding.add(seq, 1);
            live += 1;
        }
        schedule.push_back(arrival);
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
    /// `at` (no earlier than the send).
    void on_response(const response& resp, double at) {
        const bool oldest = !sent_.empty() && sent_.front().id == resp.id;
        KD_EXPECTS_MSG(oldest || !is_in_flight(resp.id),
                       "response out of send order");
        KD_EXPECTS_MSG(oldest,
                       "response to a request this session never sent");
        KD_EXPECTS_MSG(at >= sent_.front().at,
                       "response delivered before its request was sent");
        sent_.pop_front();
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

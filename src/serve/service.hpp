// The allocation service: sessions, a channel and the dispatcher driven by
// one straight-line scan of the request deliveries — plus the serial
// oracle the whole serve layer is checked against.
//
// run_service drives an open-loop Poisson workload (serve/session.hpp)
// through a memory_channel into the dispatcher and measures what the paper
// cares about — probe messages per placed ball — alongside what an
// operator cares about: allocate latency quantiles (p50/p99/p999) under a
// sweepable load. Timing model, all in simulated time — a single batching
// server, one batch at a time (docs/service.md, "Timing model"):
//
//   client --(channel_delay)--> dispatcher inbox
//   dispatcher: a batch is triggered by the first delivery into an empty
//     inbox or by the previous batch leaving requests behind (then at that
//     batch's start); it starts batch_window after the trigger but never
//     while the dispatcher is busy, takes up to max_batch of the requests
//     delivered by then, and keeps the dispatcher busy for
//     service_time * batch size;
//   dispatcher --(channel_delay)--> client, latency = response - arrival.
//
// service_time is charged per request whatever its probe count, so the
// latencies do not depend on the probing mode.
//
// Determinism contract (docs/service.md): the served ALLOCATION LOG — the
// id-ordered sequence "which bins did request i get" — is a pure function
// of the config. run_serial_oracle replays the same request sequence with
// no batching and an independent straight-line implementation of the
// selection rules; service_result::allocation_log is byte-identical
// between the two. tests/serve/service_test.cpp holds that equality;
// service_latency --guard re-checks it.
#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "serve/message.hpp"

namespace kdc::serve {

struct service_config {
    std::uint64_t bins = 1024;
    std::uint64_t k = 4;            ///< balls per allocate
    std::uint64_t d = 8;            ///< probe budget (batch mode: k <= d)
    probing mode = probing::batch;
    std::uint64_t seed = 1;
    std::uint64_t clients = 8;
    std::uint64_t requests = 1024;  ///< total arrivals across all clients
    double arrival_rate = 8.0;      ///< total Poisson rate (requests/time)
    double churn = 0.0;             ///< P(arrival releases | target live)
    double channel_delay = 0.5;     ///< one-way client<->dispatcher delay
    double batch_window = 1.0;      ///< dispatcher batching window
    double service_time = 0.05;     ///< dispatcher busy time per request
    std::uint64_t max_batch = 64;   ///< dispatcher drain limit per batch
    std::uint64_t shards = 1;       ///< unread; perfbench/main.cpp sets it
    unsigned threads = 1;           ///< unread; perfbench/main.cpp reads it
};

struct service_result {
    std::uint64_t allocations = 0;   ///< allocate requests served
    std::uint64_t releases = 0;      ///< release requests served
    std::uint64_t batches = 0;       ///< dispatcher batches processed
    std::uint64_t probe_messages = 0;
    /// probe_messages / allocations: d in batch mode, k*d in per-task mode
    /// (releases cost no probes) — the paper's message-cost axis.
    double messages_per_request = 0.0;
    double messages_per_ball = 0.0;  ///< messages_per_request / k
    double latency_mean = 0.0;       ///< allocates only, simulated time
    double latency_p50 = 0.0;
    double latency_p99 = 0.0;
    double latency_p999 = 0.0;
    double latency_max = 0.0;
    double completed_at = 0.0;        ///< last response delivery time
    std::uint64_t balls_held = 0;     ///< k*allocations - released balls
    std::uint64_t max_load = 0;       ///< highest final bin load
    /// One line per request in id order: "<id> a <bin> <bin> ..." or
    /// "<id> r <bin> ...". The byte-compare artifact of the determinism
    /// contract.
    std::string allocation_log;
    core::load_vector final_loads;
};

/// Runs the full service. Latency fields are 0 when the config yields no
/// allocate (requires requests >= 1, clients >= 1).
[[nodiscard]] service_result run_service(const service_config& config);

/// The oracle: same request sequence, served one request at a time at zero
/// latency by an independent serial implementation. Latency/batch fields
/// are not meaningful (batches == requests, latencies 0); everything
/// else — allocation_log above all — must match run_service exactly.
[[nodiscard]] service_result run_serial_oracle(const service_config& config);

} // namespace kdc::serve

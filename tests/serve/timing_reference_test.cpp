// The service's timing model, held bit for bit against an event-driven
// reference.
//
// event_driven_reference below serves the same request sequence through
// the same memory_channel and dispatcher calls, but as events on
// sim::simulator: one delivery event per request scheduled upfront in id
// order, one dispatch event in flight at a time (batch_window after the
// first pending request, never before the dispatcher is free), and one
// event per response. run_service must reproduce its latency summary,
// completion time, batch count and allocation log exactly — the same
// doubles, not merely close ones — across saturated, zero-window,
// zero-delay, per-task and single-client cells.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "serve/channel.hpp"
#include "serve/dispatcher.hpp"
#include "serve/message.hpp"
#include "serve/session.hpp"
#include "sim/event_queue.hpp"
#include "stats/summary.hpp"

namespace kdc::serve {
namespace {

struct request_sequence {
    std::vector<request> requests; // index == id
    std::vector<double> at;        // arrival time per id
};

/// The service's request sequence, rebuilt from the public schedule API:
/// per-client draw_arrivals, merged by (time, client, seq), ids in merged
/// order, release targets resolved to global ids.
request_sequence build_sequence(const service_config& config) {
    std::vector<client_arrival> merged;
    const std::uint64_t base = config.requests / config.clients;
    const std::uint64_t extra = config.requests % config.clients;
    for (std::uint64_t c = 0; c < config.clients; ++c) {
        session_config sc;
        sc.client = c;
        sc.seed = config.seed;
        sc.rate = config.arrival_rate / static_cast<double>(config.clients);
        sc.arrivals = base + (c < extra ? 1 : 0);
        sc.churn = config.churn;
        const auto schedule = draw_arrivals(sc);
        merged.insert(merged.end(), schedule.begin(), schedule.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const client_arrival& a, const client_arrival& b) {
                  return std::tuple{a.at, a.client, a.seq} <
                         std::tuple{b.at, b.client, b.seq};
              });
    request_sequence seq;
    std::unordered_map<std::uint64_t, std::uint64_t> id_of;
    for (std::size_t id = 0; id < merged.size(); ++id) {
        const client_arrival& arrival = merged[id];
        request req;
        req.client = arrival.client;
        req.id = id;
        const std::uint64_t key = arrival.client << 32;
        if (arrival.kind == request_kind::release) {
            req.kind = request_kind::release;
            req.target = id_of.at(key | arrival.target_seq);
        } else {
            id_of.emplace(key | arrival.seq, id);
        }
        seq.requests.push_back(req);
        seq.at.push_back(arrival.at);
    }
    return seq;
}

struct reference_result {
    service_result timing;    ///< latency fields, completed_at, batches, log
    std::uint64_t carried = 0; ///< dispatches a full batch left work for
};

reference_result event_driven_reference(const service_config& config) {
    const request_sequence seq = build_sequence(config);
    dispatcher_config dc;
    dc.bins = config.bins;
    dc.k = config.k;
    dc.d = config.d;
    dc.mode = config.mode;
    dc.seed = config.seed;
    dispatcher dispatcher(dc);

    sim::simulator sim;
    memory_channel<request> inbox;
    reference_result out;
    service_result& result = out.timing;
    std::vector<double> latencies;

    bool dispatch_pending = false;
    double busy_until = 0.0;
    std::function<void()> maybe_dispatch;
    const auto do_dispatch = [&] {
        dispatch_pending = false;
        const std::vector<request> batch =
            dispatcher.accept(inbox, config.max_batch);
        const std::vector<response> responses = dispatcher.process(batch);
        busy_until = sim.now() + config.service_time *
                                     static_cast<double>(batch.size());
        result.batches += 1;
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const request& req = batch[i];
            result.allocation_log += std::to_string(responses[i].id);
            result.allocation_log +=
                req.kind == request_kind::release ? " r" : " a";
            for (const std::uint32_t bin : responses[i].bins) {
                result.allocation_log += ' ' + std::to_string(bin);
            }
            result.allocation_log += '\n';
            sim.schedule_at(busy_until + config.channel_delay,
                            [&, kind = req.kind, arrived = seq.at[req.id]] {
                                if (kind == request_kind::allocate) {
                                    latencies.push_back(sim.now() - arrived);
                                }
                                result.completed_at = std::max(
                                    result.completed_at, sim.now());
                            });
        }
        out.carried += inbox.pending() > 0 ? 1 : 0;
        maybe_dispatch();
    };
    maybe_dispatch = [&] {
        if (dispatch_pending || inbox.pending() == 0) {
            return;
        }
        dispatch_pending = true;
        sim.schedule_at(std::max(sim.now() + config.batch_window, busy_until),
                        do_dispatch);
    };
    // Deliveries are scheduled first, in id order, so the queue's FIFO
    // tie-breaking hands every delivery due at a dispatch's time to the
    // inbox before that dispatch fires.
    for (std::size_t id = 0; id < seq.requests.size(); ++id) {
        sim.schedule_at(seq.at[id] + config.channel_delay, [&, id] {
            inbox.send(seq.requests[id]);
            maybe_dispatch();
        });
    }
    sim.run();

    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (const double s : latencies) {
        sum += s;
    }
    result.latency_mean = sum / static_cast<double>(latencies.size());
    result.latency_p50 = stats::sorted_quantile(latencies, 0.5);
    result.latency_p99 = stats::sorted_quantile(latencies, 0.99);
    result.latency_p999 = stats::sorted_quantile(latencies, 0.999);
    result.latency_max = latencies.back();
    return out;
}

void expect_same_bits(double served, double reference, const char* field) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(served),
              std::bit_cast<std::uint64_t>(reference))
        << field << ": served " << std::hexfloat << served << " vs reference "
        << reference;
}

/// Runs `config` both ways and returns how many reference dispatches left
/// requests in the inbox (the carry-over path).
std::uint64_t expect_matches_reference(const service_config& config) {
    const service_result served = run_service(config);
    const reference_result ref = event_driven_reference(config);
    const service_result& want = ref.timing;
    expect_same_bits(served.latency_mean, want.latency_mean, "latency_mean");
    expect_same_bits(served.latency_p50, want.latency_p50, "latency_p50");
    expect_same_bits(served.latency_p99, want.latency_p99, "latency_p99");
    expect_same_bits(served.latency_p999, want.latency_p999, "latency_p999");
    expect_same_bits(served.latency_max, want.latency_max, "latency_max");
    expect_same_bits(served.completed_at, want.completed_at, "completed_at");
    EXPECT_EQ(served.batches, want.batches);
    EXPECT_EQ(served.allocation_log, want.allocation_log);
    return ref.carried;
}

service_config timing_config(std::uint64_t seed) {
    service_config config;
    config.bins = 256;
    config.k = 2;
    config.d = 4;
    config.seed = seed;
    config.clients = 6;
    config.requests = 400;
    config.service_time = 0.05;
    config.arrival_rate = 0.6 / config.service_time; // utilization 0.6
    config.churn = 0.2;
    config.channel_delay = 0.5;
    config.batch_window = 1.0;
    config.max_batch = 16;
    return config;
}

constexpr std::uint64_t seeds[] = {3, 11, 29};

TEST(ServiceTiming, SaturatedServerCarriesRequestsOver) {
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.arrival_rate = 1.5 / config.service_time; // utilization 1.5
        config.max_batch = 8;
        config.churn = 0.35;
        EXPECT_GT(expect_matches_reference(config), 0u)
            << "saturated cell never left requests in the inbox";
    }
}

TEST(ServiceTiming, ZeroBatchWindow) {
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.batch_window = 0.0;
        expect_matches_reference(config);
    }
}

TEST(ServiceTiming, ZeroChannelDelay) {
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.channel_delay = 0.0;
        expect_matches_reference(config);
    }
}

TEST(ServiceTiming, PerTaskMode) {
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.mode = probing::per_task;
        expect_matches_reference(config);
    }
}

TEST(ServiceTiming, SingleClientOneRequestPerBatch) {
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.clients = 1;
        config.max_batch = 1;
        EXPECT_GT(expect_matches_reference(config), 0u)
            << "max_batch 1 never left requests in the inbox";
    }
}

TEST(ServiceTiming, SomeClientsSendNothing) {
    // 3 requests over 8 clients: clients 3 to 7 have empty schedules.
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.clients = 8;
        config.requests = 3;
        expect_matches_reference(config);
    }
}

TEST(ServiceTiming, RequestsNotAMultipleOfClients) {
    // 403 = 7 * 57 + 4: four clients send one request more than the rest.
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        service_config config = timing_config(seed);
        config.clients = 7;
        config.requests = 403;
        expect_matches_reference(config);
    }
}

TEST(ServiceTiming, LightLoadBaseline) {
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        expect_matches_reference(timing_config(seed));
    }
}

} // namespace
} // namespace kdc::serve

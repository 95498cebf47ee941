#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <queue>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/channel.hpp"
#include "serve/dispatcher.hpp"
#include "serve/session.hpp"
#include "stats/summary.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {

namespace {

/// The merged, id-ordered request sequence, drawn lazily. run_service and
/// run_serial_oracle both read it: per-client arrival streams
/// (serve/session.hpp), merged by (time, client, seq), ids assigned in
/// merged order, release targets resolved from client-local seqs to global
/// ids. It holds one pending arrival per client, not a request per id.
class request_source {
public:
    explicit request_source(const service_config& config) {
        KD_EXPECTS_MSG(config.clients >= 1 && config.requests >= 1,
                       "service needs clients >= 1 and requests >= 1");
        KD_EXPECTS(config.arrival_rate > 0.0);
        // run_service drains at most max_batch requests per batch; 0 would
        // never drain the inbox.
        KD_EXPECTS_MSG(config.max_batch >= 1, "service needs max_batch >= 1");
        streams_.reserve(config.clients);
        id_of_.resize(config.clients);
        const std::uint64_t base = config.requests / config.clients;
        const std::uint64_t extra = config.requests % config.clients;
        for (std::uint64_t c = 0; c < config.clients; ++c) {
            session_config sc;
            sc.client = c;
            sc.seed = config.seed;
            sc.rate = config.arrival_rate / static_cast<double>(config.clients);
            sc.arrivals = base + (c < extra ? 1 : 0);
            sc.churn = config.churn;
            streams_.emplace_back(sc);
            id_of_[c].resize(sc.arrivals);
            if (!streams_[c].done()) {
                pending_.push(streams_[c].next());
            }
        }
    }

    /// True once every request has been handed out.
    [[nodiscard]] bool done() const noexcept { return pending_.empty(); }

    /// Arrival time of the request next() hands out (requires !done()).
    [[nodiscard]] double next_at() const { return pending_.top().at; }

    /// The next request in id order (requires !done()).
    [[nodiscard]] request next() {
        // Each stream is in time order, so a min-heap on (time, client)
        // over the clients' pending arrivals yields the (time, client, seq)
        // order.
        const client_arrival arrival = pending_.top();
        pending_.pop();
        const std::uint64_t c = arrival.client;
        if (!streams_[c].done()) {
            pending_.push(streams_[c].next());
        }
        request req;
        req.client = c;
        req.id = next_id_++;
        if (arrival.kind == request_kind::release) {
            KD_ASSERT_MSG(arrival.target_seq < arrival.seq,
                          "release target precedes its allocate");
            req.kind = request_kind::release;
            req.target = id_of_[c][arrival.target_seq];
        } else {
            id_of_[c][arrival.seq] = req.id;
        }
        return req;
    }

private:
    struct later {
        bool operator()(const client_arrival& a,
                        const client_arrival& b) const noexcept {
            return std::tie(a.at, a.client) > std::tie(b.at, b.client);
        }
    };

    std::vector<arrival_stream> streams_;
    std::priority_queue<client_arrival, std::vector<client_arrival>, later>
        pending_;
    // id_of_[client][client seq] -> global id, filled as ids are assigned.
    // A release's target always precedes it within one client, so next()
    // never reads an unassigned entry.
    std::vector<std::vector<std::uint64_t>> id_of_;
    std::uint64_t next_id_ = 0;
};

std::uint64_t decimal_digits(std::uint64_t value) {
    std::uint64_t digits = 1;
    for (; value >= 10; value /= 10) {
        ++digits;
    }
    return digits;
}

/// Reserves the allocation log once. A line is an id, " a" or " r", k bins
/// each after a space, and a newline, so
/// requests * (digits(requests) + 3 + k * (1 + digits(bins))) bounds it.
void reserve_log(std::string& log, const service_config& config) {
    log.reserve(config.requests *
                (decimal_digits(config.requests) + 3 +
                 config.k * (1 + decimal_digits(config.bins))));
}

/// Appends "<id> a|r <bin> ...\n". The line is formatted in a stack buffer
/// and appended at once; a line too long for the buffer goes in pieces.
void append_log_line(std::string& log, const response& resp,
                     request_kind kind) {
    std::array<char, 256> line;
    char* const end = line.data() + line.size();
    // Past this point " <bin>" (at most 11 chars) and '\n' may not fit.
    char* const flush_at = end - 12;
    char* out = std::to_chars(line.data(), end, resp.id).ptr;
    *out++ = ' ';
    *out++ = kind == request_kind::release ? 'r' : 'a';
    for (const std::uint32_t bin : resp.bins) {
        if (out > flush_at) {
            log.append(line.data(), out);
            out = line.data();
        }
        *out++ = ' ';
        out = std::to_chars(out, end, bin).ptr;
    }
    *out++ = '\n';
    log.append(line.data(), out);
}

void fill_latency_summary(service_result& result,
                          std::vector<double> samples) {
    if (samples.empty()) {
        return;
    }
    std::sort(samples.begin(), samples.end());
    double sum = 0.0;
    for (const double s : samples) {
        sum += s;
    }
    result.latency_mean = sum / static_cast<double>(samples.size());
    result.latency_p50 = stats::sorted_quantile(samples, 0.5);
    result.latency_p99 = stats::sorted_quantile(samples, 0.99);
    result.latency_p999 = stats::sorted_quantile(samples, 0.999);
    result.latency_max = samples.back();
}

void fill_message_rates(service_result& result, std::uint64_t k) {
    if (result.allocations == 0) {
        return;
    }
    result.messages_per_request =
        static_cast<double>(result.probe_messages) /
        static_cast<double>(result.allocations);
    result.messages_per_ball =
        result.messages_per_request / static_cast<double>(k);
}

} // namespace

service_result run_service(const service_config& config) {
    request_source source(config);

    dispatcher_config dc;
    dc.bins = config.bins;
    dc.k = config.k;
    dc.d = config.d;
    dc.mode = config.mode;
    dc.seed = config.seed;
    dispatcher dispatcher(dc);

    memory_channel<request> inbox;
    std::vector<session> sessions(config.clients);
    service_result result;
    reserve_log(result.allocation_log, config);
    std::vector<double> allocate_latencies;
    allocate_latencies.reserve(config.requests);
    std::vector<response> responses; // reused by every batch

    // One pass over the deliveries in id order (docs/service.md, "Timing
    // model"). A request reaches the inbox channel_delay after its arrival;
    // arrival times rise with the id, so the source yields deliveries in
    // time order.
    const auto delivery_time = [&] {
        return source.next_at() + config.channel_delay;
    };
    const auto deliver = [&] {
        const double at = source.next_at();
        const request req = source.next();
        sessions[req.client].on_send(req.id, at);
        inbox.send(req);
    };
    double start = 0.0; // start of the latest batch
    double busy_until = 0.0;
    while (!source.done() || inbox.pending() > 0) {
        // Trigger: the first delivery into an empty inbox, or else the
        // previous batch's start, which left requests in the inbox.
        double trigger = start;
        if (inbox.pending() == 0) {
            trigger = delivery_time();
            deliver();
        }
        start = std::max(trigger + config.batch_window, busy_until);
        // Deliveries due by the start win the tie and join the inbox
        // before the batch is drained.
        while (!source.done() && delivery_time() <= start) {
            deliver();
        }
        const std::vector<request> batch =
            dispatcher.accept(inbox, config.max_batch);
        dispatcher.process(batch, responses);
        busy_until = start + config.service_time *
                                 static_cast<double>(batch.size());
        const double delivered = busy_until + config.channel_delay;
        result.batches += 1;
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const request& req = batch[i];
            append_log_line(result.allocation_log, responses[i], req.kind);
            const double sent_at =
                sessions[req.client].on_response(responses[i], delivered);
            if (req.kind == request_kind::allocate) {
                result.allocations += 1;
                allocate_latencies.push_back(delivered - sent_at);
            } else {
                result.releases += 1;
            }
        }
        result.completed_at = std::max(result.completed_at, delivered);
    }

    KD_ENSURES_MSG(inbox.pending() == 0, "service drained its inbox");
    KD_ENSURES_MSG(std::all_of(sessions.begin(), sessions.end(),
                               [](const session& s) {
                                   return s.in_flight() == 0;
                               }),
                   "every request got its response");
    result.probe_messages = dispatcher.probe_messages();
    result.balls_held = dispatcher.balls_held();
    result.final_loads = dispatcher.take_loads();
    for (const core::bin_load load : result.final_loads) {
        result.max_load = std::max<std::uint64_t>(result.max_load, load);
    }
    fill_message_rates(result, config.k);
    fill_latency_summary(result, std::move(allocate_latencies));
    return result;
}

service_result run_serial_oracle(const service_config& config) {
    request_source source(config);
    KD_EXPECTS_MSG(config.mode != probing::batch || config.k <= config.d,
                   "batch (k,d)-choice needs k <= d");

    // Independent straight-line server: plain per-bin loads, one request
    // at a time in id order, drawing each tape exactly per the contract
    // (derive_seed(seed, id); probes then keys per pool).
    std::vector<std::int64_t> loads(config.bins, 0);
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> live;
    service_result result;
    reserve_log(result.allocation_log, config);
    std::vector<std::uint32_t> probes(config.d);
    std::vector<std::uint64_t> keys(config.d);
    while (!source.done()) {
        const request req = source.next();
        result.batches += 1;
        response resp;
        resp.client = req.client;
        resp.id = req.id;
        if (req.kind == request_kind::release) {
            const auto it = live.find(req.target);
            KD_ASSERT_MSG(it != live.end(), "oracle: target not live");
            resp.bins = std::move(it->second);
            live.erase(it);
            for (const std::uint32_t bin : resp.bins) {
                KD_ASSERT_MSG(loads[bin] > 0, "oracle: empty-bin release");
                loads[bin] -= 1;
            }
            result.releases += 1;
        } else {
            rng::xoshiro256ss gen(rng::derive_seed(config.seed, req.id));
            if (config.mode == probing::batch) {
                rng::sample_with_replacement(
                    gen, config.bins, std::span<std::uint32_t>(probes));
                for (auto& tie_key : keys) {
                    tie_key = gen();
                }
                std::vector<std::tuple<std::int64_t, std::uint64_t,
                                       std::uint32_t>>
                    cands(config.d);
                for (std::uint64_t j = 0; j < config.d; ++j) {
                    std::int64_t occ = 0;
                    for (std::uint64_t e = 0; e < j; ++e) {
                        occ += probes[e] == probes[j] ? 1 : 0;
                    }
                    cands[j] = {loads[probes[j]] + occ, keys[j],
                                static_cast<std::uint32_t>(j)};
                }
                std::sort(cands.begin(), cands.end());
                for (std::uint64_t j = 0; j < config.k; ++j) {
                    const std::uint32_t bin = probes[std::get<2>(cands[j])];
                    resp.bins.push_back(bin);
                }
                for (const std::uint32_t bin : resp.bins) {
                    loads[bin] += 1;
                }
                resp.probe_messages = config.d;
            } else {
                for (std::uint64_t t = 0; t < config.k; ++t) {
                    rng::sample_with_replacement(
                        gen, config.bins,
                        std::span<std::uint32_t>(probes));
                    for (auto& tie_key : keys) {
                        tie_key = gen();
                    }
                    std::size_t best = 0;
                    for (std::uint64_t j = 1; j < config.d; ++j) {
                        const auto a = std::tuple{loads[probes[j]],
                                                  keys[j], j};
                        const auto b =
                            std::tuple{loads[probes[best]], keys[best],
                                       static_cast<std::uint64_t>(best)};
                        if (a < b) {
                            best = static_cast<std::size_t>(j);
                        }
                    }
                    resp.bins.push_back(probes[best]);
                    loads[probes[best]] += 1;
                }
                resp.probe_messages = config.k * config.d;
            }
            result.probe_messages += resp.probe_messages;
            live.emplace(req.id, resp.bins);
            result.allocations += 1;
        }
        append_log_line(result.allocation_log, resp, req.kind);
    }

    result.final_loads.reserve(config.bins);
    for (const std::int64_t load : loads) {
        result.balls_held += static_cast<std::uint64_t>(load);
        result.max_load =
            std::max(result.max_load, static_cast<std::uint64_t>(load));
        result.final_loads.push_back(static_cast<core::bin_load>(load));
    }
    fill_message_rates(result, config.k);
    return result;
}

} // namespace kdc::serve

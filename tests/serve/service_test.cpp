// The service determinism contract, held end to end: the served allocation
// log is byte-identical to the serial oracle's, with and without churn, in
// both probing modes — and the
// measured message cost lands exactly on the closed form the scheduler
// model predicts (d per request batched, k*d per-task).
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "support/contracts.hpp"

namespace kdc::serve {
namespace {

service_config base_config() {
    service_config config;
    config.bins = 128;
    config.k = 2;
    config.d = 4;
    config.seed = 42;
    config.clients = 4;
    config.requests = 96;
    config.arrival_rate = 6.0;
    config.churn = 0.0;
    config.channel_delay = 0.5;
    config.batch_window = 1.0;
    config.service_time = 0.05;
    config.max_batch = 16;
    return config;
}

void expect_matches_oracle(const service_config& config) {
    const service_result oracle = run_serial_oracle(config);
    const service_result served = run_service(config);
    ASSERT_FALSE(oracle.allocation_log.empty());
    EXPECT_EQ(served.allocation_log, oracle.allocation_log)
        << "served sequence diverged from the serial oracle";
    EXPECT_EQ(served.final_loads, oracle.final_loads);
    EXPECT_EQ(served.balls_held, oracle.balls_held);
    EXPECT_EQ(served.max_load, oracle.max_load);
    EXPECT_EQ(served.probe_messages, oracle.probe_messages);
    EXPECT_EQ(served.allocations, oracle.allocations);
    EXPECT_EQ(served.releases, oracle.releases);
}

TEST(Service, MatchesOracleAtEveryThreadCount) {
    // The acceptance matrix: two (k,d) configs. The server is serial, so
    // there is no thread count left to vary; any thread count is this one.
    expect_matches_oracle(base_config());

    service_config kd410 = base_config();
    kd410.k = 4;
    kd410.d = 10;
    kd410.seed = 7;
    expect_matches_oracle(kd410);
}

TEST(Service, MatchesOracleUnderChurn) {
    // Both probing modes: releases undo batch and per-task placements.
    for (const probing mode : {probing::batch, probing::per_task}) {
        service_config config = base_config();
        config.mode = mode;
        config.churn = 0.35;
        config.requests = 120;
        const service_result oracle = run_serial_oracle(config);
        ASSERT_GT(oracle.releases, 0u) << "churn config produced no releases";
        expect_matches_oracle(config);
    }
}

TEST(Service, MatchesOracleInPerTaskMode) {
    service_config config = base_config();
    config.mode = probing::per_task;
    expect_matches_oracle(config);
}

TEST(Service, MatchesOracleWhenSomeClientsSendNothing) {
    // 3 requests over 8 clients: clients 3 to 7 have empty schedules.
    for (const probing mode : {probing::batch, probing::per_task}) {
        service_config config = base_config();
        config.mode = mode;
        config.clients = 8;
        config.requests = 3;
        config.churn = 0.5;
        expect_matches_oracle(config);
        const service_result served = run_service(config);
        EXPECT_EQ(served.allocations + served.releases, 3u);
    }
}

TEST(Service, MatchesOracleWhenRequestsDoNotDivideAmongClients) {
    // 103 = 5 * 20 + 3: clients 0 to 2 send 21 requests, clients 3 and 4
    // send 20.
    for (const probing mode : {probing::batch, probing::per_task}) {
        service_config config = base_config();
        config.mode = mode;
        config.clients = 5;
        config.requests = 103;
        config.churn = 0.3;
        expect_matches_oracle(config);
        const service_result served = run_service(config);
        EXPECT_EQ(served.allocations + served.releases, 103u);
    }
}

TEST(Service, BatchModeSpendsExactlyDMessagesPerRequest) {
    const service_result result = run_service(base_config());
    ASSERT_GT(result.allocations, 0u);
    EXPECT_EQ(result.probe_messages, result.allocations * 4);
    EXPECT_DOUBLE_EQ(result.messages_per_request, 4.0);
    EXPECT_DOUBLE_EQ(result.messages_per_ball, 2.0); // d / k
}

TEST(Service, PerTaskModeSpendsKTimesDMessagesPerRequest) {
    service_config config = base_config();
    config.mode = probing::per_task;
    const service_result result = run_service(config);
    EXPECT_EQ(result.probe_messages, result.allocations * 2 * 4);
    EXPECT_DOUBLE_EQ(result.messages_per_request, 8.0);
    EXPECT_DOUBLE_EQ(result.messages_per_ball, 4.0); // d
}

TEST(Service, LatencyQuantilesAreOrderedAndPhysical) {
    const service_config config = base_config();
    const service_result result = run_service(config);
    // Floor: two channel hops plus one request's service time.
    const double floor =
        2 * config.channel_delay + config.service_time;
    EXPECT_GE(result.latency_p50, floor);
    EXPECT_LE(result.latency_p50, result.latency_p99);
    EXPECT_LE(result.latency_p99, result.latency_p999);
    EXPECT_LE(result.latency_p999, result.latency_max);
    EXPECT_GT(result.latency_mean, 0.0);
    EXPECT_GT(result.completed_at, 0.0);
}

TEST(Service, ServesEveryRequestInBatches) {
    const service_result result = run_service(base_config());
    EXPECT_EQ(result.allocations + result.releases, 96u);
    EXPECT_GE(result.batches, 1u);
    EXPECT_LT(result.batches, 96u) // the window actually coalesces
        << "batching window formed no multi-request batch";
}

TEST(Service, RepeatedRunsAreByteIdentical) {
    const service_result a = run_service(base_config());
    const service_result b = run_service(base_config());
    EXPECT_EQ(a.allocation_log, b.allocation_log);
    EXPECT_EQ(a.final_loads, b.final_loads);
    EXPECT_DOUBLE_EQ(a.latency_p99, b.latency_p99);
}

TEST(Service, DifferentSeedsServeDifferentSequences) {
    service_config other = base_config();
    other.seed = 43;
    EXPECT_NE(run_service(base_config()).allocation_log,
              run_service(other).allocation_log);
}

TEST(Service, LogHasOneLinePerRequestInIdOrder) {
    const service_result result = run_service(base_config());
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < result.allocation_log.size()) {
        const std::size_t end = result.allocation_log.find('\n', start);
        lines.push_back(result.allocation_log.substr(start, end - start));
        start = end + 1;
    }
    ASSERT_EQ(lines.size(), 96u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].substr(0, lines[i].find(' ')),
                  std::to_string(i));
    }
}

TEST(Service, LongLogLinesReplayToTheFinalLoads) {
    // 40 bins of six or seven digits make each line longer than the
    // 256-byte buffer a line is formatted in. Replaying the log must
    // rebuild every load.
    service_config config = base_config();
    config.bins = 1u << 20;
    config.k = 40;
    config.d = 48;
    config.churn = 0.3;
    config.requests = 200;
    const service_result result = run_service(config);
    std::vector<std::int64_t> loads(config.bins, 0);
    std::istringstream log(result.allocation_log);
    std::string line;
    std::uint64_t lines = 0;
    std::size_t longest = 0;
    while (std::getline(log, line)) {
        longest = std::max(longest, line.size() + 1);
        std::istringstream fields(line);
        std::uint64_t id = 0;
        std::string kind;
        ASSERT_TRUE(fields >> id >> kind);
        EXPECT_EQ(id, lines);
        ASSERT_TRUE(kind == "a" || kind == "r") << line;
        std::uint64_t bins = 0;
        std::uint64_t bin = 0;
        while (fields >> bin) {
            ASSERT_LT(bin, config.bins);
            loads[bin] += kind == "a" ? 1 : -1;
            bins += 1;
        }
        EXPECT_TRUE(fields.eof()) << line;
        EXPECT_EQ(bins, config.k) << line;
        lines += 1;
    }
    EXPECT_EQ(lines, config.requests);
    EXPECT_GT(longest, 256u);
    ASSERT_GT(result.releases, 0u);
    for (std::uint64_t b = 0; b < config.bins; ++b) {
        ASSERT_EQ(loads[b], static_cast<std::int64_t>(result.final_loads[b]))
            << "bin " << b;
    }
}

TEST(Service, RejectsAZeroMaxBatch) {
    // A drain limit of 0 would never empty the inbox.
    service_config config = base_config();
    config.max_batch = 0;
    EXPECT_THROW((void)run_service(config), contract_violation);
    EXPECT_THROW((void)run_serial_oracle(config), contract_violation);
    config.max_batch = 1;
    expect_matches_oracle(config);
}

} // namespace
} // namespace kdc::serve

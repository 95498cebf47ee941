// Allocation-as-a-service latency/throughput sweep: the serve/ subsystem
// (sessions -> channel -> serial dispatcher) driven by open-loop Poisson
// arrivals across a utilization sweep, in both probing modes.
//
// The measurement marries the paper's message-cost axis to an operator's
// latency axis: batch (k,d)-choice spends exactly d probe messages per
// request where per-task d-choice spends k*d (the closed form
// sched/scheduler.hpp predicts), and this bench reports the allocate
// latency quantiles (p50/p99/p999, simulated time) batch mode achieves at
// each offered load. Per-task cells report no latency: the timing model
// charges service_time per request whatever its probe count, so their
// latencies would repeat the batch cells' (docs/service.md). All timing is
// simulated, so every number here is byte-deterministic.
//
//   ./service_latency [--bins=4096] [--k=4] [--d=8] [--clients=16]
//                     [--requests=20000] [--churn=0.2] [--seed=17]
//                     [--mode=both] [--scenario "kd:n=4096,k=4,d=8"]
//
// --scenario maps n -> bins plus k and d, overriding the legacy flags key
// by key (core/scenario.hpp). Modes:
//
//   * default      — human-readable sweep table;
//   * --log        — print the base config's allocation log in the mode
//                    --mode names (batch for both) and exit;
//   * --json       — write BENCH_service.json (schema
//                    kdchoice-bench-service/v2), the recorded
//                    latency/throughput trajectory;
//   * --guard      — with --json: fail (exit 1) if any batch cell's p99 is
//                    vacuous (<= 0 or ordered wrong), if a cell's message
//                    cost misses the closed form, or if the served
//                    sequence diverges from the serial oracle.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

namespace {

using kdc::serve::probing;
using kdc::serve::service_config;
using kdc::serve::service_result;

struct sweep_cell {
    probing mode = probing::batch;
    double utilization = 0.0;
    service_config config;
    service_result result;
};

service_config base_config(const kdc::arg_parser& args) {
    kdc::core::scenario base;
    base.n = args.get_positive_int("bins");
    base.k = args.get_positive_int("k");
    base.d = args.get_positive_int("d");
    const auto merged = kdc::core::scenario_from_cli(args, base);

    service_config config;
    config.bins = merged.n;
    config.k = merged.k;
    config.d = merged.d;
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.clients = args.get_positive_int("clients");
    config.requests = args.get_positive_int("requests");
    config.churn = args.get_double("churn");
    if (!(config.churn >= 0.0 && config.churn <= 1.0)) {
        throw kdc::cli_error("option --churn must be in [0, 1], got '" +
                             args.get_string("churn") + "'");
    }
    config.channel_delay = args.get_positive_double("delay");
    config.batch_window = args.get_positive_double("window");
    config.service_time = args.get_positive_double("service-time");
    config.max_batch = args.get_positive_int("max-batch");
    return config;
}

std::vector<probing> modes_from_cli(const kdc::arg_parser& args) {
    const std::string mode = args.get_string("mode");
    if (mode == "batch") {
        return {probing::batch};
    }
    if (mode == "per_task") {
        return {probing::per_task};
    }
    if (mode == "both") {
        return {probing::batch, probing::per_task};
    }
    throw kdc::cli_error("--mode must be batch, per_task or both, got '" +
                         mode + "'");
}

std::vector<sweep_cell> run_sweep(const service_config& base,
                                  const std::vector<probing>& modes) {
    const std::vector<double> utilizations{0.3, 0.5, 0.7, 0.85};
    std::vector<sweep_cell> cells;
    for (const probing mode : modes) {
        for (const double util : utilizations) {
            sweep_cell cell;
            cell.mode = mode;
            cell.utilization = util;
            cell.config = base;
            cell.config.mode = mode;
            cell.config.arrival_rate = util / base.service_time;
            cell.result = kdc::serve::run_service(cell.config);
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

double throughput(const sweep_cell& cell) {
    const auto served = static_cast<double>(cell.result.allocations +
                                            cell.result.releases);
    return cell.result.completed_at > 0.0
               ? served / cell.result.completed_at
               : 0.0;
}

void write_json(const std::string& path, const service_config& base,
                const std::vector<sweep_cell>& cells) {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot open --json-out path: " + path);
    }
    out << "{\n"
        << "  \"bench\": \"service_latency\",\n"
        << "  \"schema\": \"kdchoice-bench-service/v2\",\n"
        << "  \"bins\": " << base.bins << ",\n"
        << "  \"k\": " << base.k << ",\n"
        << "  \"d\": " << base.d << ",\n"
        << "  \"clients\": " << base.clients << ",\n"
        << "  \"requests\": " << base.requests << ",\n"
        << "  \"churn\": " << base.churn << ",\n"
        << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sweep_cell& cell = cells[i];
        const service_result& r = cell.result;
        out << "    {\"mode\": \"" << probing_name(cell.mode)
            << "\", \"util\": " << cell.utilization
            << ", \"messages_per_request\": " << r.messages_per_request
            << ", \"messages_per_ball\": " << r.messages_per_ball;
        if (cell.mode == probing::batch) {
            out << ", \"latency_p50\": " << r.latency_p50
                << ", \"latency_p99\": " << r.latency_p99
                << ", \"latency_p999\": " << r.latency_p999
                << ", \"latency_mean\": " << r.latency_mean;
        }
        out << ", \"batches\": " << r.batches
            << ", \"max_load\": " << r.max_load
            << ", \"throughput\": " << throughput(cell) << "}"
            << (i + 1 < cells.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
}

/// The --guard arms. Returns the number of failed checks (0 = pass); every
/// failure prints its own diagnostic. A guard that checked nothing fails.
int run_guard(const service_config& base,
              const std::vector<sweep_cell>& cells) {
    int failures = 0;
    if (cells.empty()) {
        std::cerr << "guard: no cells to check — vacuous pass refused\n";
        return 1;
    }
    for (const sweep_cell& cell : cells) {
        const service_result& r = cell.result;
        const char* name = probing_name(cell.mode);
        // Arm 1: a batch cell's latency quantiles must be real
        // measurements. An empty sample would leave p99 at 0.0 — the
        // vacuous cell this guard exists to catch. Per-task cells report
        // no latency, so there is nothing to check.
        if (cell.mode == probing::batch &&
            !(r.latency_p50 > 0.0 && r.latency_p99 >= r.latency_p50 &&
              r.latency_p999 >= r.latency_p99)) {
            std::cerr << "guard FAIL: vacuous/unordered latency cell ("
                      << name << ", util " << cell.utilization
                      << "): p50=" << r.latency_p50
                      << " p99=" << r.latency_p99
                      << " p999=" << r.latency_p999 << '\n';
            ++failures;
        }
        // Arm 2: the paper's message cost, exactly — d per request batched,
        // k*d per-task (deterministic counts, so equality, no tolerance).
        const auto expected = cell.mode == probing::batch
                                  ? base.d
                                  : base.k * base.d;
        if (r.probe_messages != r.allocations * expected) {
            std::cerr << "guard FAIL: message cost off closed form ("
                      << name << ", util " << cell.utilization
                      << "): " << r.probe_messages << " != "
                      << r.allocations << " * " << expected << '\n';
            ++failures;
        }
    }
    // Arm 3: the determinism contract itself — the served allocation
    // sequence must equal the serial oracle's byte for byte.
    service_config oracle_config = base;
    oracle_config.arrival_rate = 0.7 / base.service_time;
    const service_result served = kdc::serve::run_service(oracle_config);
    const service_result oracle =
        kdc::serve::run_serial_oracle(oracle_config);
    if (served.allocation_log != oracle.allocation_log) {
        std::cerr << "guard FAIL: served sequence diverged from the serial "
                     "oracle\n";
        ++failures;
    }
    if (failures == 0) {
        std::cerr << "guard OK: " << cells.size()
                  << " cells checked, batch latency non-vacuous, message "
                     "closed form exact, oracle log identical\n";
    }
    return failures;
}

int run(int argc, char** argv) {
    try {
        kdc::arg_parser args;
        args.add_option("bins", "4096", "bins behind the service");
        args.add_option("k", "4", "balls per allocate request");
        args.add_option("d", "8", "probe budget per request");
        args.add_option("clients", "16", "concurrent client sessions");
        args.add_option("requests", "20000", "total arrivals");
        args.add_option("churn", "0.2",
                        "P(an arrival releases an earlier allocation)");
        args.add_option("seed", "17", "master seed");
        args.add_option("mode", "both", "batch, per_task or both");
        args.add_option("delay", "0.5", "one-way channel delay");
        args.add_option("window", "1.0", "dispatcher batching window");
        args.add_option("service-time", "0.05",
                        "dispatcher busy time per request");
        args.add_option("max-batch", "64", "dispatcher drain limit");
        args.add_scenario_option();
        args.add_flag("log", "print the allocation log and exit");
        args.add_flag("json", "write the JSON trajectory instead of a table");
        args.add_option("json-out", "BENCH_service.json", "output path");
        args.add_flag("guard", "with --json: fail on vacuous batch "
                               "latency cells, off-closed-form message "
                               "costs or oracle divergence");
        if (!args.parse(argc, argv)) {
            return 0;
        }
        const service_config base = base_config(args);

        if (args.get_flag("log")) {
            // One mode per log: --mode=both logs batch.
            service_config config = base;
            config.mode = modes_from_cli(args).front();
            config.arrival_rate = 0.7 / base.service_time;
            std::cout << kdc::serve::run_service(config).allocation_log;
            return 0;
        }

        const auto cells = run_sweep(base, modes_from_cli(args));

        if (args.get_flag("json")) {
            const std::string path = args.get_string("json-out");
            write_json(path, base, cells);
            std::cerr << "wrote " << path << " (" << cells.size()
                      << " cells)\n";
            return args.get_flag("guard") ? run_guard(base, cells) : 0;
        }

        std::cout << "Allocation service: " << base.bins << " bins, (k="
                  << base.k << ", d=" << base.d << "), " << base.clients
                  << " clients, " << base.requests
                  << " requests, churn " << base.churn
                  << ", simulated time units\n\n";
        kdc::text_table table;
        table.set_header({"util", "mode", "p50", "p99", "p999",
                          "msgs/req", "msgs/ball", "batches", "thrpt"});
        table.set_align(1, kdc::table_align::left);
        for (const sweep_cell& cell : cells) {
            const service_result& r = cell.result;
            // Per-task latency is not modeled (see the header comment).
            const auto latency = [&](double value) {
                return cell.mode == probing::batch
                           ? kdc::format_fixed(value, 2)
                           : std::string("-");
            };
            table.add_row({kdc::format_fixed(cell.utilization, 2),
                           probing_name(cell.mode), latency(r.latency_p50),
                           latency(r.latency_p99), latency(r.latency_p999),
                           kdc::format_fixed(r.messages_per_request, 1),
                           kdc::format_fixed(r.messages_per_ball, 2),
                           std::to_string(r.batches),
                           kdc::format_fixed(throughput(cell), 2)});
        }
        std::cout << table << '\n'
                  << "Shapes to verify: batch mode holds msgs/req = d = "
                  << base.d << " (msgs/ball = d/k) while per_task spends "
                     "k*d = "
                  << base.k * base.d
                  << "; batch latency rises with utilization.\n";
        return 0;
    } catch (const kdc::cli_error&) {
        throw; // cli_main reports it with exit 2
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

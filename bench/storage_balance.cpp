// The distributed storage application (Section 1.3): replica/chunk placement
// with (k, k+1)-choice vs per-replica two-choice vs random.
//
// Paper claims reproduced:
//   * with d = k+1, (k,d)-choice gives (asymptotically) the same max server
//     load as two-choice at about HALF the placement message cost;
//   * retrieving all k chunks costs k+1 probes vs 2k for two-choice;
//   * availability: replication vs chunking under server failures.
//
//   ./storage_balance [--servers=4096] [--files=100000] [--k=3] [--seed=10]
//                     [--scenario "kd:n=4096,k=3"]
//
// --scenario (core/scenario.hpp) maps onto the cluster: n = servers,
// k = replicas per file — equivalent settings print byte-identical output
// to the legacy flags.
#include <iostream>
#include <vector>

#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "storage/cluster.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

namespace {

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("servers", "4096", "number of storage servers");
    args.add_option("files", "100000", "files to place");
    args.add_option("k", "3", "replicas (or chunks) per file");
    args.add_option("fail", "0.05", "per-server failure probability");
    args.add_option("seed", "10", "master seed");
    args.add_scenario_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto files = static_cast<std::uint64_t>(args.get_int("files"));
    const double fail = args.get_double("fail");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    // Scenario mapping: n = servers, k = replicas per file.
    kdc::core::scenario base;
    base.n = args.get_positive_int("servers");
    base.k = args.get_positive_int("k");
    base.d = base.k + 1;
    const auto merged = kdc::core::scenario_from_cli(args, base);
    const auto servers = merged.n;
    const auto k = merged.k;

    using kdc::storage::placement_policy;

    struct scheme {
        const char* name;
        placement_policy policy;
        std::uint64_t probes;
    };
    const std::vector<scheme> schemes{
        {"(k,k+1)-choice", placement_policy::kd_choice, k + 1},
        {"(k,2k)-choice", placement_policy::kd_choice, 2 * k},
        {"per-replica 2-choice", placement_policy::per_replica_d_choice, 2},
        {"random", placement_policy::random, 1},
        {"batch greedy d=k+1", placement_policy::batch_greedy, k + 1},
    };

    std::cout << "Distributed storage placement: " << files << " files x "
              << k << " replicas onto " << servers << " servers\n\n";

    kdc::text_table table;
    table.set_header({"scheme", "max srv load", "mean load", "msgs/file",
                      "search msgs", "avail repl", "avail chunk"});
    table.set_align(0, kdc::table_align::left);

    std::uint64_t scheme_seed = seed;
    for (const auto& s : schemes) {
        kdc::storage::storage_config config;
        config.servers = servers;
        config.replicas_per_file = k;
        config.probes = s.probes;
        config.policy = s.policy;
        config.seed = ++scheme_seed;
        kdc::storage::storage_cluster cluster(config);
        cluster.place_files(files);

        const auto metrics =
            kdc::core::compute_load_metrics(cluster.server_loads());
        const double msgs_per_file =
            static_cast<double>(cluster.placement_messages()) /
            static_cast<double>(files);
        const double avail_repl =
            cluster.estimate_availability(fail, /*need_all=*/false, 20,
                                          seed + 100);
        const double avail_chunk =
            cluster.estimate_availability(fail, /*need_all=*/true, 20,
                                          seed + 100);
        table.add_row({s.name, std::to_string(metrics.max_load),
                       kdc::format_fixed(metrics.mean_load, 2),
                       kdc::format_fixed(msgs_per_file, 1),
                       std::to_string(cluster.search_cost(0)),
                       kdc::format_fixed(avail_repl, 4),
                       kdc::format_fixed(avail_chunk, 4)});
    }
    std::cout << table << '\n'
              << "Claims to verify (Section 1.3):\n"
                 "  * (k,k+1) max load ~ per-replica 2-choice max load, at "
                 "(k+1)/(2k) ~ half the msgs/file;\n"
                 "  * search cost k+1 = "
              << k + 1 << " vs 2k = " << 2 * k
              << " for per-replica 2-choice;\n"
                 "  * availability: replication >> chunking at the same "
                 "failure rate.\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

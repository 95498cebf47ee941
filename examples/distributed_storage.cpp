// Distributed storage placement (Section 1.3 of the paper): place k replicas
// (or chunks) of each file on the k least-loaded of d randomly probed
// servers — one (k,d)-choice round per file.
//
//   $ ./distributed_storage --servers=2048 --files=50000 --k=3
//   $ ./distributed_storage --scenario="kd:n=2048,k=3" --files=50000
//
// Prints load balance, placement message cost, chunk-retrieval cost and a
// failure-injection availability estimate, for (k,k+1)-choice vs per-replica
// two-choice vs random placement. The scenario string (core/scenario.hpp)
// maps onto the cluster: n = servers, k = replicas per file.
#include <iostream>

#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "storage/cluster.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

int main(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("servers", "2048", "number of storage servers");
    args.add_option("files", "50000", "files to place");
    args.add_option("k", "3", "replicas (or chunks) per file");
    args.add_option("fail", "0.05", "per-server failure probability");
    args.add_option("seed", "1", "placement seed");
    args.add_scenario_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto files = static_cast<std::uint64_t>(args.get_int("files"));
    const double fail = args.get_double("fail");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario base;
    base.n = args.get_positive_int("servers");
    base.k = args.get_positive_int("k");
    base.d = base.k + 1;
    const auto merged = kdc::core::scenario_from_cli(args, base);
    const auto servers = merged.n;
    const auto k = merged.k;

    using kdc::storage::placement_policy;

    std::cout << "Placing " << files << " files x " << k << " replicas on "
              << servers << " servers\n\n";

    kdc::text_table table;
    table.set_header({"policy", "max load", "msgs/file", "search msgs",
                      "avail (repl)", "avail (chunk)"});
    table.set_align(0, kdc::table_align::left);

    struct policy_case {
        const char* label;
        placement_policy policy;
        std::uint64_t probes;
    };
    const policy_case cases[] = {
        {"(k,k+1)-choice", placement_policy::kd_choice, k + 1},
        {"per-replica 2-choice", placement_policy::per_replica_d_choice, 2},
        {"random", placement_policy::random, 1},
    };
    for (const auto& c : cases) {
        kdc::storage::storage_config config;
        config.servers = servers;
        config.replicas_per_file = k;
        config.probes = c.probes;
        config.policy = c.policy;
        config.seed = seed;
        kdc::storage::storage_cluster cluster(config);
        cluster.place_files(files);

        const auto metrics =
            kdc::core::compute_load_metrics(cluster.server_loads());
        table.add_row(
            {c.label, std::to_string(metrics.max_load),
             kdc::format_fixed(static_cast<double>(
                                   cluster.placement_messages()) /
                                   static_cast<double>(files), 1),
             std::to_string(cluster.search_cost(0)),
             kdc::format_fixed(
                 cluster.estimate_availability(fail, false, 20, seed + 9), 4),
             kdc::format_fixed(
                 cluster.estimate_availability(fail, true, 20, seed + 9),
                 4)});
    }
    std::cout << table << '\n'
              << "The paper's claim: (k,k+1)-choice matches two-choice "
                 "balance at roughly half the\n"
                 "placement messages, and chunk search costs k+1 = "
              << k + 1 << " probes vs 2k = " << 2 * k << ".\n";
    return 0;
}

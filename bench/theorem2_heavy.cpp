// Theorem 2 reproduction (heavily loaded case): for m > n balls and d >= 2k,
//   ln ln n / ln(d-k+1) - O(1)  <=  M(k,d,m,n) - m/n  <=  ln ln n /
//   ln floor(d/k) + O(1)
// via the majorization sandwich A(1, d-k+1) <=mj A(k,d) <=mj A(1, floor(d/k)).
//
// The harness sweeps m/n and prints, per configuration, the measured gap
// (max load minus mean load m/n) for the (k,d)-choice process and for both
// d-choice brackets, plus the Theorem 2 bound values. The shape to verify:
// the (k,d) gap sits between the two brackets and stays flat in m
// (Berenbrink et al.'s m-independence, which the paper's proof leans on).
//
// Every (config, m/n, role) triple is one cell of a single sweep on the
// shared thread pool (core/engine.hpp scheduling); numbers are
// bit-identical at any --threads value. This is exactly the regime the
// level-compressed kernel exists for — `--kernel=level` runs the whole
// sweep in O(max-load) state per repetition, so m/n and n can be pushed
// orders of magnitude beyond the per-bin kernel's memory reach.
//
//   ./theorem2_heavy [--n=65536] [--reps=5] [--seed=4] [--threads=0]
//                    [--max-factor=32] [--csv] [--kernel=perbin|level|auto]
//                    [--scenario "kd:n=...,kernel=auto,metric=gap"]
//                    [--adaptive --ci-width=0.4 --min-reps=3 --max-reps=40]
//
// Cells are declarative scenarios (core/scenario.hpp): the (k,d) process
// is the "kd" family, the two majorization brackets are "dchoice", and
// --scenario overrides the legacy flags key by key (byte-identical output
// for equivalent settings).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/kdchoice.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

namespace {

struct config {
    std::uint64_t k, d;
};

struct cell_meta {
    std::size_t config_index = 0;
    std::uint64_t load_factor = 0;
    const char* role = ""; // "lo" | "mid" | "hi"
};

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "65536", "number of bins");
    args.add_option("reps", "5", "repetitions per point");
    args.add_option("seed", "4", "master seed");
    args.add_option("max-factor", "32",
                    "largest m/n load factor (doubling from 1)");
    args.add_threads_option();
    args.add_kernel_option();
    args.add_scenario_option();
    args.add_adaptive_options();
    args.add_snapshot_options();
    args.add_fault_options();
    args.add_option("warmup", "full",
                    "'ff' fast-forwards each run to the steady state "
                    "(see docs/scenario-grammar.md)");
    args.add_flag("csv", "also emit CSV rows (k, d, m/n, role, gap mean)");
    if (!args.parse(argc, argv)) {
        return 0;
    }
    kdc::core::arm_faults_from_cli(args);
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const auto max_factor =
        static_cast<std::uint64_t>(args.get_int("max-factor"));

    kdc::core::scenario base;
    base.n = args.get_positive_int("n");
    base.kernel = kdc::core::kernel_from_name(args.get_string("kernel"));
    base.warmup = kdc::core::warmup_from_name(args.get_string("warmup"));
    const auto merged = kdc::core::scenario_from_cli(args, base);
    const auto n = merged.n;
    const auto kernel = kdc::core::resolve_kernel(merged);

    // --snapshot-out / --resume turn the invocation into one stage of a
    // resumable heavy campaign instead of the full sandwich sweep.
    if (kdc::core::run_snapshot_stage(args, merged, seed, std::cout)) {
        return 0;
    }

    const std::vector<config> configs{{2, 4}, {2, 6}, {4, 8}, {8, 16}};
    std::vector<std::uint64_t> load_factors;
    for (std::uint64_t factor = 1; factor <= max_factor; factor *= 2) {
        load_factors.push_back(factor);
    }

    // One sweep over every (config, factor) point; the lo/mid/hi seeds
    // reproduce the original serial loop exactly (point_seed, +7000, +9000).
    std::vector<kdc::core::sweep_cell> cells;
    std::vector<cell_meta> meta;
    std::uint64_t point_seed = seed;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto& cfg = configs[c];
        for (const auto factor : load_factors) {
            ++point_seed;
            const std::uint64_t m = factor * n;
            const std::string point = "(" + std::to_string(cfg.k) + "," +
                                      std::to_string(cfg.d) +
                                      ") m/n=" + std::to_string(factor);
            auto bracket = merged;
            bracket.family = "dchoice";
            bracket.k = 1;
            bracket.d = cfg.d - cfg.k + 1;
            cells.push_back(kdc::core::make_scenario_cell(
                point + " lo", bracket,
                {.balls = m, .reps = reps, .seed = point_seed + 7000}));
            meta.push_back({c, factor, "lo"});
            auto mid = merged;
            mid.k = cfg.k;
            mid.d = cfg.d;
            cells.push_back(kdc::core::make_scenario_cell(
                point + " mid", mid,
                {.balls = m, .reps = reps, .seed = point_seed}));
            meta.push_back({c, factor, "mid"});
            bracket.d = cfg.d / cfg.k;
            cells.push_back(kdc::core::make_scenario_cell(
                point + " hi", bracket,
                {.balls = m, .reps = reps, .seed = point_seed + 9000}));
            meta.push_back({c, factor, "hi"});
        }
    }

    kdc::core::sweep_options options;
    options.threads = args.get_threads();
    options.stopping = kdc::core::stopping_rule_from_cli(args);
    const auto outcomes = kdc::core::run_sweep(cells, options);

    std::cout << "Theorem 2: heavily loaded (k,d)-choice for d >= 2k, n = "
              << n << ", kernel = " << kdc::core::kernel_choice_name(kernel)
              << "\n"
              << "gap = measured max load - m/n; brackets are the d-choice "
                 "processes of the majorization sandwich\n\n";

    std::size_t cursor = 0;
    for (const auto& cfg : configs) {
        const auto bound = kdc::theory::theorem2_bound(n, cfg.k, cfg.d);
        std::cout << "(k,d) = (" << cfg.k << "," << cfg.d
                  << "): Theorem 2 bounds: lower ~ "
                  << kdc::format_fixed(bound.lower, 2) << " - O(1), upper ~ "
                  << kdc::format_fixed(bound.upper, 2) << " + O(1)\n";
        kdc::text_table table;
        table.set_header({"m/n", "gap A(1," +
                              std::to_string(cfg.d - cfg.k + 1) + ") [lo]",
                          "gap (k,d)", "gap A(1," +
                              std::to_string(cfg.d / cfg.k) + ") [hi]"});
        for (const auto factor : load_factors) {
            const auto& lo = outcomes[cursor++].result;
            const auto& mid = outcomes[cursor++].result;
            const auto& hi = outcomes[cursor++].result;
            table.add_row({std::to_string(factor),
                           kdc::format_fixed(lo.gap_stats.mean(), 2),
                           kdc::format_fixed(mid.gap_stats.mean(), 2),
                           kdc::format_fixed(hi.gap_stats.mean(), 2)});
        }
        std::cout << table << '\n';
    }
    std::cout << "Expected shape: middle column between the brackets, all "
                 "three flat in m/n.\n";

    if (args.get_flag("csv")) {
        kdc::core::sweep_emitter emitter;
        emitter
            .add_column("k",
                        [&](const kdc::core::sweep_outcome&, std::size_t row) {
                            return std::to_string(
                                configs[meta[row].config_index].k);
                        })
            .add_column("d",
                        [&](const kdc::core::sweep_outcome&, std::size_t row) {
                            return std::to_string(
                                configs[meta[row].config_index].d);
                        })
            .add_column("m_over_n",
                        [&](const kdc::core::sweep_outcome&, std::size_t row) {
                            return std::to_string(meta[row].load_factor);
                        })
            .add_column("role",
                        [&](const kdc::core::sweep_outcome&, std::size_t row) {
                            return std::string(meta[row].role);
                        })
            .add_reps_column()
            .add_stat_column("gap_mean",
                             [](const kdc::core::sweep_outcome& outcome) {
                                 return outcome.result.gap_stats.mean();
                             });
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, outcomes);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

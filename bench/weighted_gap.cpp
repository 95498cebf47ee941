// Extension bench: weighted (k,d)-choice (the Talwar-Wieder axis cited in
// Section 1 of the paper). Compares the weighted gap (max weight load minus
// average) across weight distributions and (k,d) configurations.
//
// Shape to verify: the (k,d) ordering of the unweighted process survives
// weighting — more probes / smaller k still shrink the gap — and
// heavy-tailed weights (Pareto) inflate every scheme's gap toward the
// single-ball dominance regime where the placement policy stops mattering.
//
// Weighted observations are doubles, so this bench sits on the execution
// engine's run_engine_grid (core/engine.hpp) rather than repetition_result
// cells: every (cell, rep) pair still runs on the process-wide persistent
// pool and folds in repetition order, so output is bit-identical at any
// --threads value. Under --adaptive the confidence_width rule monitors the
// per-repetition weighted max load.
//
//   ./weighted_gap [--n=65536] [--rounds-factor=4] [--reps=5] [--threads=0]
//                  [--csv] [--adaptive --ci-width=0.4 --max-reps=40]
//                  [--scenario "weighted:n=...,metric=gap"]
//
// --scenario (core/scenario.hpp) must stay in the weighted family (write
// `weighted:` or no prefix) and sets the shared knobs: n and the monitored
// metric for --adaptive (metric=gap suits this bench; the default is the
// weighted max load). The family has one kernel, the per-bin
// weighted_kd_process, so kernel=perbin and kernel=auto print the same
// bytes and kernel=level is refused. The weight-distribution grid itself
// stays richer than the scenario skew knob on purpose.
#include <cstddef>
#include <iostream>
#include <vector>

#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/weighted.hpp"
#include "stats/running_stats.hpp"
#include "support/cli.hpp"
#include "support/row_emitter.hpp"
#include "support/text_table.hpp"

namespace {

struct rep_observation {
    double gap = 0.0;
    double max_load = 0.0;
    std::uint64_t messages = 0;
};

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "65536", "number of bins");
    args.add_option("rounds-factor", "4",
                    "rounds = factor * n / k (total balls = factor * n)");
    args.add_option("reps", "5", "repetitions per cell");
    args.add_option("seed", "11", "master seed");
    args.add_threads_option();
    args.add_scenario_option();
    args.add_adaptive_options();
    args.add_flag("csv", "also emit CSV rows (weights, k, d, gap, max)");
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto factor =
        static_cast<std::uint64_t>(args.get_int("rounds-factor"));
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario base;
    base.n = args.get_positive_int("n");
    base.family = "weighted";
    base.kernel = kdc::core::kernel_choice::per_bin; // legacy default
    const auto merged = kdc::core::scenario_from_cli(args, base);
    if (merged.family != "weighted") {
        throw kdc::cli_error("weighted_gap runs the 'weighted' family only; "
                             "--scenario named family '" +
                             merged.family +
                             "' (write weighted:... or omit the prefix)");
    }
    const auto n = merged.n;
    const auto metric = merged.metric;

    struct weight_case {
        const char* name;
        kdc::core::weight_distribution dist;
    };
    const std::vector<weight_case> weight_cases{
        {"unit", kdc::core::unit_weights()},
        {"uniform[0.5,1.5]", kdc::core::uniform_weights(0.5, 1.5)},
        {"exponential(1)", kdc::core::exponential_weights(1.0)},
        {"pareto(2.5)", kdc::core::pareto_weights(2.5, 0.6)},
    };
    struct kd_case {
        std::uint64_t k, d;
    };
    const std::vector<kd_case> kd_cases{{1, 2}, {2, 4}, {8, 16}, {31, 32}};

    // Flatten the weights x (k,d) grid into cells. The original serial bench
    // advanced the master seed once per *repetition* (derive_seed(++cell_seed,
    // rep)); precompute the identical per-rep master seeds so the sweep
    // reproduces its numbers byte-for-byte. Seeds are laid out up to the
    // stopping rule's repetition CAP, so an adaptive run with
    // --max-reps > --reps never indexes past the precomputed masters (and a
    // fixed run, where the cap equals --reps, keeps the legacy seed stream).
    const auto stopping = kdc::core::stopping_rule_from_cli(args);
    const std::uint32_t rep_cap =
        kdc::core::resolve_cell_plan(stopping, reps).max_reps;
    struct grid_cell {
        const weight_case* weights;
        kd_case kd;
        std::vector<std::uint64_t> rep_masters;
    };
    std::vector<grid_cell> grid_cells;
    std::uint64_t cell_seed = seed;
    for (const auto& w : weight_cases) {
        for (const auto& kd : kd_cases) {
            grid_cell cell{&w, kd, {}};
            cell.rep_masters.reserve(rep_cap);
            for (std::uint32_t rep = 0; rep < rep_cap; ++rep) {
                cell.rep_masters.push_back(++cell_seed);
            }
            grid_cells.push_back(std::move(cell));
        }
    }

    const std::vector<std::uint32_t> reps_per_cell(grid_cells.size(), reps);
    auto& pool = kdc::core::persistent_pool(args.get_threads());
    const auto grid = kdc::core::run_engine_grid<rep_observation>(
        pool, reps_per_cell,
        [&grid_cells, n, factor](std::size_t c, std::uint32_t rep) {
            const auto& cell = grid_cells[c];
            const auto rep_seed =
                kdc::rng::derive_seed(cell.rep_masters[rep], rep);
            kdc::core::weighted_kd_process process(
                n, cell.kd.k, cell.kd.d, rep_seed, cell.weights->dist);
            process.run_rounds(factor * n / cell.kd.k);
            return rep_observation{process.gap(), process.max_load(),
                                   process.messages()};
        },
        // Adaptive mode monitors the scenario's metric per repetition
        // (default: the weighted max load).
        [metric](std::size_t, const rep_observation& obs) {
            switch (metric) {
            case kdc::core::metric_kind::gap:
                return obs.gap;
            case kdc::core::metric_kind::messages:
                return static_cast<double>(obs.messages);
            case kdc::core::metric_kind::max_load:
                break;
            }
            return obs.max_load;
        },
        stopping);

    std::cout << "Weighted (k,d)-choice gap, n = " << n << ", "
              << factor << "n total weight-1-mean balls, " << reps
              << " reps\n\n";

    // Fold each cell in repetition order, then emit table and CSV through
    // one shared column declaration (support/row_emitter.hpp).
    struct cell_row {
        const grid_cell* cell;
        std::size_t reps_used = 0;
        double mean_gap = 0.0;
        double mean_max = 0.0;
    };
    std::vector<cell_row> rows;
    rows.reserve(grid_cells.size());
    for (std::size_t c = 0; c < grid_cells.size(); ++c) {
        kdc::stats::running_stats gap_stats;
        kdc::stats::running_stats max_stats;
        for (const auto& obs : grid[c]) { // fold in repetition order
            gap_stats.push(obs.gap);
            max_stats.push(obs.max_load);
        }
        rows.push_back({&grid_cells[c], grid[c].size(), gap_stats.mean(),
                        max_stats.mean()});
    }
    kdc::row_emitter<cell_row> emitter;
    emitter
        .add_column("weights",
                    [](const cell_row& row, std::size_t) {
                        return std::string(row.cell->weights->name);
                    },
                    kdc::table_align::left)
        .add_column("(k,d)",
                    [](const cell_row& row, std::size_t) {
                        return std::string("(")
                            .append(std::to_string(row.cell->kd.k))
                            .append(",")
                            .append(std::to_string(row.cell->kd.d))
                            .append(")");
                    })
        .add_column("reps",
                    [](const cell_row& row, std::size_t) {
                        return std::to_string(row.reps_used);
                    })
        .add_stat_column("mean gap",
                         [](const cell_row& row) { return row.mean_gap; }, 3)
        .add_stat_column("mean max load",
                         [](const cell_row& row) { return row.mean_max; }, 3);
    emitter.write_table(std::cout, rows);
    std::cout << "Shapes: within each weight family the gap shrinks with "
                 "more probes per ball\n"
                 "(smaller k/d ratio); heavier tails raise all gaps.\n";

    if (args.get_flag("csv")) {
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, rows);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

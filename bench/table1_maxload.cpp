// Reproduces Table 1 of the paper: the maximum bin load of (k,d)-choice
// after n = 3 * 2^16 balls are placed into n bins, over the exact k x d grid
// the paper uses, with ten runs per cell. Each cell lists the distinct
// maximum loads observed across the runs (the paper's "7, 8, 9" format).
//
// The d = 1 column is the classical single-choice process; the k = 1 row is
// the classical d-choice of Azar et al.
//
// The whole grid runs as ONE sweep on a shared thread pool
// (core/sweep.hpp): every (cell, rep) pair is a pool job, so --threads=16
// stays busy even at --reps=3. Results are bit-identical to a serial run at
// any thread count because per-rep seeds and the per-cell fold order are
// fixed.
//
//   ./table1_maxload [--n=196608] [--reps=10] [--seed=1] [--threads=0]
//                    [--csv] [--progress] [--kernel=perbin|level|auto]
//                    [--scenario "kd:n=...,kernel=auto,metric=gap"]
//                    [--adaptive --ci-width=0.4 --min-reps=3 --max-reps=40]
//                    [--inject-faults=<plan>]
//
// A fault plan, from --inject-faults or the KDC_FAULTS environment
// variable, is armed before the sweep (docs/robustness.md).
//
// Every cell is a declarative scenario (core/scenario.hpp): the grid
// stamps k and d onto one merged base scenario, and `--scenario` overrides
// the legacy flags key by key (--n, --kernel are thin aliases for its n
// and kernel keys — equivalent settings produce byte-identical output).
//
// kernel=level runs every cell on the level-compressed kernel
// (O(max-load) state, core/level_process.hpp): distributionally identical
// numbers from a different RNG stream — the switch for n far beyond the
// per-bin kernel's memory reach. kernel=auto picks it whenever the policy
// supports it.
//
// --adaptive switches the engine's stopping rule to confidence_width: each
// cell runs repetitions until the 95% Student-t CI half-width of its mean
// max load drops below --ci-width (or --max-reps is hit). Low-variance
// cells stop at --min-reps; the executed counts are part of the
// deterministic output (same at any --threads value).
#include <iostream>
#include <vector>

#include "core/kdchoice.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

namespace {

const std::vector<std::uint64_t> k_values{1, 2,  3,  4,  6,  8,  12, 16,
                                          24, 32, 48, 64, 96, 128, 192};
const std::vector<std::uint64_t> d_values{1, 2, 3, 5, 9, 17, 25, 49, 65, 193};

struct cell_meta {
    std::uint64_t k = 0;
    std::uint64_t d = 0;
};

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "196608", "number of bins and balls (3 * 2^16)");
    args.add_option("reps", "10", "simulation runs per cell (paper: 10)");
    args.add_option("seed", "1", "master seed");
    args.add_threads_option();
    args.add_kernel_option();
    args.add_scenario_option();
    args.add_adaptive_options();
    args.add_fault_options();
    args.add_flag("csv", "also emit CSV rows (k, d, max-load set, mean)");
    args.add_flag("progress", "report sweep progress on stderr");
    if (!args.parse(argc, argv)) {
        return 0;
    }
    kdc::core::arm_faults_from_cli(args);
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    // Legacy flags become the base scenario; --scenario overrides it key by
    // key. All knobs below come from the merged value.
    kdc::core::scenario base;
    base.n = args.get_positive_int("n");
    base.kernel = kdc::core::kernel_from_name(args.get_string("kernel"));
    const auto merged = kdc::core::scenario_from_cli(args, base);
    const auto n = merged.n;
    const auto kernel = kdc::core::resolve_kernel(merged);

    // One cell per valid grid entry, seeded exactly as the original nested
    // loop did (the counter also advances over invalid '-' cells).
    std::vector<kdc::core::sweep_cell> cells;
    std::vector<cell_meta> meta;
    std::uint64_t cell_seed = seed;
    for (const auto k : k_values) {
        for (const auto d : d_values) {
            ++cell_seed;
            const std::string name =
                "k=" + std::to_string(k) + ",d=" + std::to_string(d);
            if (k >= d && !(d == 1 && k == 1)) {
                // d = 1, k = 1 is the single-choice column; everything else
                // with k >= d is undefined for (k,d)-choice.
                continue;
            }
            auto cell_sc = merged;
            cell_sc.k = k;
            cell_sc.d = d; // d = 1 degenerates to single choice in "kd"
            cells.push_back(kdc::core::make_scenario_cell(
                name, cell_sc,
                {.balls = kdc::core::resolved_balls(cell_sc), .reps = reps,
                 .seed = cell_seed}));
            meta.push_back({k, d});
        }
    }

    kdc::core::sweep_options options;
    options.threads = args.get_threads();
    options.stopping = kdc::core::stopping_rule_from_cli(args);
    if (args.get_flag("progress")) {
        options.progress = [](std::size_t done, std::size_t total) {
            std::cerr << "\r" << done << "/" << total << " reps done";
            if (done == total) {
                std::cerr << '\n';
            }
        };
    }
    const auto outcomes = kdc::core::run_sweep(cells, options);

    std::cout << "Table 1: maximum bin load for (k,d)-choice, n = " << n
              << ", " << reps << " runs per cell, kernel = "
              << kdc::core::kernel_choice_name(kernel) << "\n"
              << "(cells list the distinct max loads seen across runs; '-' "
                 "marks invalid cells with k >= d)\n\n";

    // Pivot the flat outcomes back into the paper's k x d layout.
    kdc::text_table table;
    std::vector<std::string> header{"k \\ d"};
    for (const auto d : d_values) {
        header.push_back("d=" + std::to_string(d));
    }
    table.set_header(header);

    // meta is the single source of which (k,d) cells were computed: a grid
    // position with no matching meta entry renders as '-'.
    std::size_t cursor = 0;
    for (const auto k : k_values) {
        std::vector<std::string> row{"k=" + std::to_string(k)};
        for (const auto d : d_values) {
            if (cursor < outcomes.size() && meta[cursor].k == k &&
                meta[cursor].d == d) {
                row.push_back(outcomes[cursor].result.max_load_set());
                ++cursor;
            } else {
                row.push_back("-");
            }
        }
        table.add_row(std::move(row));
    }
    std::cout << table << '\n';

    std::cout << "Paper reference points (Table 1):\n"
                 "  single choice (k=1,d=1): 7, 8, 9      two-choice "
                 "(k=1,d=2): 3, 4\n"
                 "  (2,3): 4    (8,9): 4    (128,193): 2    (192,193): 5, 6\n";

    if (args.get_flag("csv")) {
        kdc::core::sweep_emitter emitter;
        emitter
            .add_column("k",
                        [&meta](const kdc::core::sweep_outcome&,
                                std::size_t row) {
                            return std::to_string(meta[row].k);
                        })
            .add_column("d",
                        [&meta](const kdc::core::sweep_outcome&,
                                std::size_t row) {
                            return std::to_string(meta[row].d);
                        })
            .add_reps_column()
            .add_max_load_set_column("max_load_set")
            .add_stat_column("max_load_mean",
                             [](const kdc::core::sweep_outcome& outcome) {
                                 return outcome.result.max_load_stats.mean();
                             });
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, outcomes);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

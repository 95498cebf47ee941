// The max-load / message-cost tradeoff frontier of Section 1.1.
//
// Headline claims reproduced here, all at the same n:
//   * single choice: n messages, Theta(ln n / ln ln n) max load;
//   * classic d-choice: d*n messages, ln ln n / ln d + O(1);
//   * (k, 2k) with k = Theta(polylog n): 2n messages, O(1) max load —
//     "a constant maximum load and O(n) messages", which no previously
//     known non-adaptive scheme achieved;
//   * k >= Theta(ln^2 n), d-k = Theta(ln n): (1+o(1))n messages, o(ln ln n)
//     max load;
//   * the adaptive threshold baseline (Czumaj-Stemann flavor) for context.
//
// All schemes run as one cross-cell sweep on a shared thread pool
// (core/sweep.hpp); aggregates are bit-identical to a serial run at any
// --threads value.
//
//   ./tradeoff_frontier [--n=196608] [--reps=10] [--seed=5] [--threads=0]
//                       [--csv] [--scenario "kd:n=...,kernel=auto"]
//                       [--adaptive --ci-width=0.4 --min-reps=3 --max-reps=40]
//
// Every scheme on the frontier is a declarative scenario
// (core/scenario.hpp): single choice, d-choice, the (1+beta) mixture and
// the adaptive threshold baseline are all scenario families, so one
// make_scenario_cell call constructs each of them. --scenario overrides
// the legacy flags key by key (kernel=level/auto applies to every cell
// whose policy has a level kernel; the threshold baseline is per-bin
// only, so asking it for kernel=level is an error by design).
#include <cmath>
#include <iostream>
#include <vector>

#include "core/kdchoice.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

namespace {

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "196608", "number of bins and balls");
    args.add_option("reps", "10", "repetitions per scheme");
    args.add_option("seed", "5", "master seed");
    args.add_threads_option();
    args.add_scenario_option();
    args.add_adaptive_options();
    args.add_flag("csv", "also emit CSV rows (scheme, msgs/ball, mean max)");
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario base;
    base.n = args.get_positive_int("n");
    base.kernel = kdc::core::kernel_choice::per_bin; // legacy default
    const auto merged = kdc::core::scenario_from_cli(args, base);
    const auto n = merged.n;

    const auto ln_n = static_cast<std::uint64_t>(
        std::log(static_cast<double>(n)));
    // k = Theta(ln^2 n), rounded to divide n reasonably.
    const std::uint64_t k_polylog = ln_n * ln_n; // ~146 at n = 3*2^16

    // Cell seeds replicate the original bench: scheme i used seed ^ i.
    // Every scheme is one scenario stamped onto the merged base.
    std::vector<kdc::core::sweep_cell> cells;
    auto add_scenario = [&](const std::string& name,
                            const kdc::core::scenario& sc,
                            std::uint64_t balls) {
        cells.push_back(kdc::core::make_scenario_cell(
            name, sc,
            {.balls = balls, .reps = reps, .seed = seed ^ cells.size()}));
    };

    {
        auto sc = merged;
        sc.family = "single";
        add_scenario("single choice", sc, n);
    }
    {
        auto sc = merged;
        sc.family = "one_plus_beta";
        sc.beta = 0.5;
        add_scenario("(1+beta), beta=0.5", sc, n);
    }
    for (const std::uint64_t d : {2, 4}) {
        auto sc = merged;
        sc.family = "dchoice";
        sc.k = 1;
        sc.d = d;
        add_scenario(std::to_string(d) + "-choice", sc, n);
    }
    {
        auto sc = merged;
        sc.family = "threshold";
        sc.threshold = 2;
        sc.cap = 16;
        add_scenario("adaptive T=2 (Czumaj-Stemann flavor)", sc, n);
    }

    struct kd_config {
        std::uint64_t k, d;
        const char* note;
    };
    const std::vector<kd_config> kd_configs{
        {2, 3, "(k,d)=(2,3): 1.5n msgs"},
        {k_polylog, 2 * k_polylog, "(k,2k), k~ln^2 n: 2n msgs, O(1) load"},
        {k_polylog, k_polylog + ln_n,
         "(k,k+ln n), k~ln^2 n: (1+o(1))n msgs"},
        {8 * k_polylog, 8 * k_polylog + ln_n,
         "(k,k+ln n), k~8 ln^2 n: (1+o(1))n msgs"},
    };
    for (const auto& cfg : kd_configs) {
        auto sc = merged;
        sc.family = "kd";
        sc.k = cfg.k;
        sc.d = cfg.d;
        add_scenario(cfg.note, sc, kdc::core::whole_rounds_balls(n, cfg.k));
    }

    kdc::core::sweep_options options;
    options.threads = args.get_threads();
    options.stopping = kdc::core::stopping_rule_from_cli(args);
    const auto outcomes = kdc::core::run_sweep(cells, options);

    kdc::core::sweep_emitter emitter;
    emitter.add_name_column("scheme")
        .add_reps_column()
        .add_column("msgs/ball",
                    [](const kdc::core::sweep_outcome& outcome, std::size_t) {
                        return kdc::format_fixed(
                            outcome.result.message_stats.mean() /
                                static_cast<double>(outcome.config.balls),
                            3);
                    })
        .add_stat_column("mean max load",
                         [](const kdc::core::sweep_outcome& outcome) {
                             return outcome.result.max_load_stats.mean();
                         })
        .add_max_load_set_column();

    std::cout << "Max-load vs message-cost frontier at n = " << n << " ("
              << reps << " reps)\n\n";
    emitter.write_table(std::cout, outcomes);
    std::cout << "Claims to check:\n"
                 "  * (k,2k) with k ~ ln^2 n: ~2 msgs/ball and a max load "
                 "that is a small constant\n"
                 "    (matches 2-choice quality at the same message cost "
                 "budget as 2-choice,\n"
                 "    and beats every O(n)-message non-adaptive scheme's "
                 "Theta(ln ln n)).\n"
                 "  * (k,k+ln n): ~1 msg/ball — single-choice message cost — "
                 "with far lower max load.\n"
                 "  * single choice: Theta(ln n / ln ln n) = "
              << kdc::format_fixed(kdc::theory::single_choice_max_load(n), 2)
              << " predicted.\n";

    if (args.get_flag("csv")) {
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, outcomes);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

// Head-to-head against the related allocation schemes the paper discusses
// (Section 1): single choice, classic d-choice [Azar et al.], the
// (1+beta)-choice of Peres-Talwar-Wieder, and the adaptive threshold
// scheme — all at *matched message budgets*, which is the paper's axis of
// comparison. A (k,d) process spends d/k messages per ball, so:
//
//     budget 1.25 msg/ball:  (1+beta) beta=.25  vs  (4,5)-choice
//     budget 1.5  msg/ball:  (1+beta) beta=.5   vs  (2,3)-choice
//     budget 2    msg/ball:  2-choice           vs  (2,4), (k, 2k)
//     budget 3    msg/ball:  3-choice           vs  (2,6), (k, 3k)
//
//   ./baselines_compare [--n=196608] [--reps=10] [--seed=6]
//                       [--scenario "kd:n=..."]
//
// Every scheme is a declarative scenario run through
// run_scenario_experiment (core/scenario.hpp): single/d-choice, (1+beta)
// and the adaptive threshold baseline are scenario families, so one code
// path constructs them all. --scenario overrides the legacy flags key
// by key (byte-identical output for equivalent settings).
#include <iostream>
#include <vector>

#include "core/kdchoice.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

namespace {

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "196608", "number of bins and balls");
    args.add_option("reps", "10", "repetitions per scheme");
    args.add_option("seed", "6", "master seed");
    args.add_scenario_option();
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

    kdc::text_table table;
    table.set_header({"budget", "scheme", "msgs/ball", "mean max", "gap",
                      "max loads seen"});
    table.set_align(1, kdc::table_align::left);

    std::uint64_t scheme_id = 0;
    auto run = [&](const char* budget, const std::string& name,
                   const kdc::core::scenario& sc, std::uint64_t balls) {
        const auto result = kdc::core::run_scenario_experiment(
            sc,
            {.balls = balls, .reps = reps, .seed = seed + (++scheme_id)});
        table.add_row(
            {budget, name,
             kdc::format_fixed(result.message_stats.mean() /
                                   static_cast<double>(balls), 3),
             kdc::format_fixed(result.max_load_stats.mean(), 2),
             kdc::format_fixed(result.gap_stats.mean(), 2),
             result.max_load_set()});
    };

    auto kd = [&](std::uint64_t k, std::uint64_t d) {
        auto sc = merged;
        sc.family = "kd";
        sc.k = k;
        sc.d = d;
        return sc;
    };
    auto one_plus_beta = [&](double beta) {
        auto sc = merged;
        sc.family = "one_plus_beta";
        sc.beta = beta;
        return sc;
    };
    auto dchoice = [&](std::uint64_t d) {
        auto sc = merged;
        sc.family = "dchoice";
        sc.k = 1;
        sc.d = d;
        return sc;
    };

    {
        auto sc = merged;
        sc.family = "single";
        run("1.0", "single choice", sc, n);
    }

    run("1.25", "(1+beta) beta=0.25", one_plus_beta(0.25), n);
    run("1.25", "(4,5)-choice", kd(4, 5), n);

    run("1.5", "(1+beta) beta=0.5", one_plus_beta(0.5), n);
    run("1.5", "(2,3)-choice", kd(2, 3), n);

    run("2.0", "2-choice", dchoice(2), n);
    run("2.0", "(2,4)-choice", kd(2, 4), n);
    run("2.0", "(64,128)-choice", kd(64, 128), n);

    run("3.0", "3-choice", dchoice(3), n);
    run("3.0", "(2,6)-choice", kd(2, 6), n);
    run("3.0", "(64,192)-choice", kd(64, 192), n);

    {
        auto sc = merged;
        sc.family = "threshold";
        sc.threshold = 2;
        sc.cap = 16;
        run("~1.1", "adaptive T=2 cap=16", sc, n);
    }

    std::cout << "Baseline comparison at matched message budgets, n = " << n
              << " (" << reps << " reps)\n\n"
              << table << '\n'
              << "Shape to verify: within each budget the (k,d) variant with "
                 "larger k matches or beats\n"
                 "the per-ball baselines; (k,2k)/(k,3k) with k >> 1 reach "
                 "constant max load.\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

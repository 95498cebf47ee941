// Tradeoff explorer: for a message budget of B probes per ball, which
// (k,d) with d/k = B minimizes the maximum load? This walks the k axis at a
// fixed budget and shows the sweet spot the paper identifies (k around
// polylog n — large enough to smooth randomness, small enough that
// d - k + 1 stays large).
//
//   $ ./tradeoff_explorer --n=65536 --budget=2 --reps=10
//
// Each k on the walk is a declarative scenario (core/scenario.hpp);
// --scenario sets shared knobs like the kernel
// (--scenario="kd:kernel=level" explores far larger n).
#include <iostream>
#include <vector>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

int main(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "65536", "number of bins and balls");
    args.add_option("budget", "2", "message budget = d/k (integer >= 2)");
    args.add_option("reps", "10", "repetitions per configuration");
    args.add_option("seed", "1", "master seed");
    args.add_scenario_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto budget = static_cast<std::uint64_t>(args.get_int("budget"));
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario base;
    base.n = args.get_positive_int("n");
    base.kernel = kdc::core::kernel_choice::per_bin; // legacy default
    const auto merged = kdc::core::scenario_from_cli(args, base);
    const auto n = merged.n;
    if (budget < 2) {
        std::cerr << "budget must be >= 2 (d must exceed k)\n";
        return 1;
    }

    std::cout << "Fixed message budget " << budget
              << " probes/ball at n = " << n
              << ": sweeping k with d = " << budget << "k\n\n";

    kdc::text_table table;
    table.set_header({"k", "d", "mean max load", "max loads seen",
                      "Thm 1 1st term", "Thm 1 2nd term"});

    std::uint64_t cfg_seed = seed;
    for (std::uint64_t k = 1; k * budget <= std::min<std::uint64_t>(n, 8192);
         k *= 2) {
        const std::uint64_t d = budget * k;
        if (d <= k) {
            continue;
        }
        const auto balls = n - (n % k);
        auto sc = merged;
        sc.k = k;
        sc.d = d;
        const auto result = kdc::core::run_scenario_experiment(
            sc, {.balls = balls, .reps = reps, .seed = ++cfg_seed});
        const auto bound = kdc::theory::theorem1_bound(n, k, d);
        table.add_row({std::to_string(k), std::to_string(d),
                       kdc::format_fixed(result.max_load_stats.mean(), 2),
                       result.max_load_set(),
                       kdc::format_fixed(bound.first, 2),
                       kdc::format_fixed(bound.second, 2)});
    }
    std::cout << table << '\n'
              << "Reading the sweep: the first term ln ln n / ln(d-k+1) "
                 "shrinks as k grows (d-k = (budget-1)k\n"
                 "widens), while dk = budget/(budget-1) stays constant — so "
                 "larger k strictly helps until\n"
                 "d approaches n. That is the paper's 'constant max load at "
                 "O(n) messages' regime.\n";
    return 0;
}

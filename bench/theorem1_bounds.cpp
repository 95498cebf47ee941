// Theorem 1 reproduction: measured maximum load of (k,d)-choice against the
// two-regime bound
//   M(k,d,n) = ln ln n / ln(d-k+1)                      + Theta(1)   (dk = O(1))
//   M(k,d,n) = ln ln n / ln(d-k+1) + ln dk / ln ln dk   * (1 +- o(1)) (dk -> inf)
// swept over n, for representative configurations in both regimes.
//
// The shape to verify: measured max load tracks the bound total within a
// small additive constant, and the *growth* in n follows the first term
// (dk fixed) — i.e. the measured-minus-bound residual stays flat as n grows.
//
//   ./theorem1_bounds [--reps=5] [--seed=3] [--scenario "kd:kernel=level"]
//
// Each (k,d,n) point runs as a declarative scenario
// (core/scenario.hpp); --scenario sets the shared knobs (e.g. the
// simulation kernel) while the sweep stamps k, d and n per point.
#include <iostream>
#include <vector>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

namespace {

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("reps", "5", "repetitions per point");
    args.add_option("seed", "3", "master seed");
    args.add_scenario_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario base;
    base.kernel = kdc::core::kernel_choice::per_bin; // legacy default
    const auto merged = kdc::core::scenario_from_cli(args, base);

    struct config {
        std::uint64_t k, d;
        const char* regime;
    };
    const std::vector<config> configs{
        {1, 2, "dk=O(1)"},    {2, 4, "dk=O(1)"},   {8, 16, "dk=O(1)"},
        {1, 9, "dk=O(1)"},    {15, 16, "dk->inf"}, {63, 64, "dk->inf"},
        {255, 256, "dk->inf"}};
    const std::vector<std::uint64_t> sizes{1u << 12, 1u << 14, 1u << 16,
                                           1u << 18, 1u << 20};

    std::cout << "Theorem 1: measured max load vs the two-regime bound\n\n";
    kdc::text_table table;
    table.set_header({"(k,d)", "regime", "n", "measured", "1st term",
                      "2nd term", "bound", "residual"});

    std::uint64_t point_seed = seed;
    for (const auto& cfg : configs) {
        for (const auto n : sizes) {
            ++point_seed;
            const auto balls = n - (n % cfg.k);
            auto sc = merged;
            sc.n = n;
            sc.k = cfg.k;
            sc.d = cfg.d;
            const auto result = kdc::core::run_scenario_experiment(
                sc, {.balls = balls, .reps = reps, .seed = point_seed});
            const auto bound =
                kdc::theory::theorem1_bound(n, cfg.k, cfg.d);
            const double measured = result.max_load_stats.mean();
            table.add_row({std::string("(")
                               .append(std::to_string(cfg.k))
                               .append(",")
                               .append(std::to_string(cfg.d))
                               .append(")"),
                           cfg.regime, std::to_string(n),
                           kdc::format_fixed(measured, 2),
                           kdc::format_fixed(bound.first, 2),
                           kdc::format_fixed(bound.second, 2),
                           kdc::format_fixed(bound.total, 2),
                           kdc::format_fixed(measured - bound.total, 2)});
        }
    }
    std::cout << table << '\n'
              << "Expected shape: residual roughly constant in n for each "
                 "(k,d) — the additive O(1)\n"
                 "of Theorem 1(i) and the (1+-o(1)) factor of Theorem 1(ii).\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

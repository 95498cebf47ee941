// Reproduces Figure 1 of the paper: the sorted bin-load vector of the
// (k,d)-choice process, with the landmark beta0 = n / (6 dk) at which the
// upper-bound analysis (Section 4) splits the maximum load into
//   B_1 = B_{beta0} + (B_1 - B_{beta0}).
//
// The paper's figure is schematic; this harness prints the *measured*
// profile B_x at geometrically spaced ranks x, the measured values of both
// decomposition terms, and the theory predictions for each term
// (Theorem 3 for B_{beta0}, Theorem 4 for B_1 - B_{beta0}).
//
// It also prints the nu_y profile against the Lemma 2 / Theorem 3 style
// envelope nu_y <= 8n / y!.
//
// Each repetition produces a whole sorted-load profile, so the bench sits
// on the execution engine's run_engine_grid (core/engine.hpp): repetitions
// run on the process-wide persistent pool and fold in repetition order, so
// output is bit-identical at any --threads value. Under --adaptive the
// confidence_width rule monitors the per-repetition max load B_1.
//
//   ./fig1_sorted_load [--n=196608] [--k=4] [--d=8] [--seed=1] [--reps=5]
//                      [--threads=0] [--csv]
//                      [--scenario "kd:n=...,kernel=level"]
//                      [--adaptive --ci-width=0.4 --max-reps=40]
//
// The repetition body runs a declarative scenario (core/scenario.hpp)
// through make_process, so the profile works on any kernel (the level
// kernel's sorted profile is lossless) and any policy; --scenario
// overrides the legacy flags key by key, byte-identically for equivalent
// settings.
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>

#include "core/kdchoice.hpp"
#include "rank_profile.hpp"
#include "stats/running_stats.hpp"
#include "stats/special_functions.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

namespace {

struct rep_profile {
    std::vector<double> at_ranks;
    std::vector<std::uint64_t> nu;
    double b1 = 0.0;
    double b_beta0 = 0.0;
    double gap = 0.0;
    double messages = 0.0;
};

/// nu_y (bins with load >= y) from a descending sorted load vector —
/// identical to core::nu_profile on integer loads, and kernel-agnostic.
std::vector<std::uint64_t> nu_from_sorted(const std::vector<double>& sorted) {
    const double max = sorted.empty() ? 0.0 : sorted.front();
    std::vector<std::uint64_t> nu(static_cast<std::size_t>(max) + 1, 0);
    nu[0] = sorted.size();
    for (std::size_t y = 1; y < nu.size(); ++y) {
        const auto first_below = std::partition_point(
            sorted.begin(), sorted.end(), [y](double load) {
                return load >= static_cast<double>(y);
            });
        nu[y] = static_cast<std::uint64_t>(
            std::distance(sorted.begin(), first_below));
    }
    return nu;
}

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "196608", "number of bins and balls");
    args.add_option("k", "4", "balls per round");
    args.add_option("d", "8", "bins probed per round");
    args.add_option("reps", "5", "independent repetitions to average");
    args.add_option("seed", "1", "master seed");
    args.add_threads_option();
    args.add_scenario_option();
    args.add_adaptive_options();
    args.add_flag("csv", "also emit CSV rows (rank, mean B_x, landmark)");
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto reps = args.get_reps();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario base;
    base.n = args.get_positive_int("n");
    base.k = args.get_positive_int("k");
    base.d = args.get_positive_int("d");
    base.kernel = kdc::core::kernel_choice::per_bin; // legacy default
    const auto merged = kdc::core::scenario_from_cli(args, base);
    kdc_bench::require_kd_reading(merged);
    const auto n = merged.n;
    const auto k = merged.k;
    const auto d = merged.d;

    const double dk = kdc::theory::dk_ratio(k, d);
    const auto beta0 = static_cast<std::uint64_t>(
        std::max(1.0, kdc::theory::beta0_landmark(n, k, d)));

    // Geometrically spaced ranks plus the landmarks.
    std::vector<std::uint64_t> ranks{1};
    for (std::uint64_t x = 2; x < n; x = x * 3 / 2 + 1) {
        ranks.push_back(x);
    }
    ranks.push_back(beta0);
    ranks.push_back(n);
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

    const auto balls = kdc::core::resolved_balls(merged);
    const std::array<std::uint32_t, 1> reps_per_cell{reps};
    auto& pool = kdc::core::persistent_pool(args.get_threads());
    const auto grid = kdc::core::run_engine_grid<rep_profile>(
        pool, reps_per_cell,
        [&ranks, &merged, seed, balls, beta0](std::size_t,
                                              std::uint32_t rep) {
            auto process = kdc::core::make_process(
                merged, kdc::rng::derive_seed(seed, rep));
            process.run_balls(balls);
            const auto sorted = process.sorted_loads();
            rep_profile profile;
            profile.at_ranks.reserve(ranks.size());
            for (const auto rank : ranks) {
                profile.at_ranks.push_back(sorted[rank - 1]);
            }
            profile.b1 = sorted.front();
            profile.b_beta0 = sorted[beta0 - 1];
            profile.nu = nu_from_sorted(sorted);
            const auto obs = process.observe();
            profile.gap = obs.gap;
            profile.messages = static_cast<double>(obs.messages);
            return profile;
        },
        // Adaptive mode monitors the scenario's metric per repetition
        // (default: the max load B_1).
        [metric = merged.metric](std::size_t, const rep_profile& profile) {
            switch (metric) {
            case kdc::core::metric_kind::gap:
                return profile.gap;
            case kdc::core::metric_kind::messages:
                return profile.messages;
            case kdc::core::metric_kind::max_load:
                break;
            }
            return profile.b1;
        },
        kdc::core::stopping_rule_from_cli(args));

    // Fold in repetition order (grid[0] is rep-ordered by construction).
    std::vector<kdc::stats::running_stats> profile(ranks.size());
    kdc::stats::running_stats b1_stats;
    kdc::stats::running_stats b_beta0_stats;
    std::vector<kdc::stats::running_stats> nu_stats;
    for (const auto& rep : grid[0]) {
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            profile[i].push(rep.at_ranks[i]);
        }
        b1_stats.push(rep.b1);
        b_beta0_stats.push(rep.b_beta0);
        if (rep.nu.size() > nu_stats.size()) {
            nu_stats.resize(rep.nu.size());
        }
        for (std::size_t y = 0; y < nu_stats.size(); ++y) {
            nu_stats[y].push(
                y < rep.nu.size() ? static_cast<double>(rep.nu[y]) : 0.0);
        }
    }

    std::cout << "Figure 1: sorted bin load vector of (" << k << "," << d
              << ")-choice, n = " << n << ", averaged over "
              << grid[0].size() << " runs\n"
              << "dk = d/(d-k) = " << kdc::format_fixed(dk, 3)
              << ", landmark beta0 = n/(6 dk) = " << beta0 << "\n\n";

    // Shared emission path: the same columns render the text table and the
    // --csv output (bench/rank_profile.hpp).
    std::vector<kdc_bench::rank_row> rows;
    rows.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        std::string note;
        if (ranks[i] == beta0) {
            note = "<- beta0 = n/(6 dk)";
        } else if (ranks[i] == 1) {
            note = "<- max load B_1";
        }
        rows.push_back({ranks[i], profile[i].mean(), std::move(note)});
    }
    const auto emitter = kdc_bench::make_rank_profile_emitter();
    emitter.write_table(std::cout, rows);

    // The decomposition of Section 4 with its two theorem bounds.
    const auto bound = kdc::theory::theorem1_bound(n, k, d);
    const double second = kdc::theory::second_term(k, d);
    std::cout << "Decomposition B_1 = B_{beta0} + (B_1 - B_{beta0}):\n"
              << "  measured B_{beta0}        = "
              << kdc::format_fixed(b_beta0_stats.mean(), 2)
              << "   (Theorem 3 predicts O(1) for dk = O(1), else ~ ln dk / "
                 "ln ln dk = "
              << kdc::format_fixed(second, 2) << ")\n"
              << "  measured B_1 - B_{beta0}  = "
              << kdc::format_fixed(b1_stats.mean() - b_beta0_stats.mean(), 2)
              << "   (Theorem 4 predicts <= ln ln n / ln(d-k+1) + O(1) = "
              << kdc::format_fixed(bound.first, 2) << " + O(1))\n"
              << "  measured B_1              = "
              << kdc::format_fixed(b1_stats.mean(), 2) << "\n\n";

    // nu_y profile against the 8n/y! envelope (Lemma 2 via Lemma 3).
    kdc::text_table nu_table;
    nu_table.set_header({"y", "nu_y (mean)", "8n/y! envelope"});
    for (std::size_t y = 1; y < nu_stats.size(); ++y) {
        const double envelope =
            8.0 * static_cast<double>(n) /
            std::exp(kdc::stats::log_factorial(y));
        nu_table.add_row({std::to_string(y),
                          kdc::format_fixed(nu_stats[y].mean(), 2),
                          kdc::format_general(envelope, 4)});
    }
    std::cout << "nu_y (bins with load >= y) vs the Lemma 2 envelope:\n"
              << nu_table;

    if (args.get_flag("csv")) {
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, rows);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

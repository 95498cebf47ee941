// Reproduces Figure 2 of the paper: the sorted bin-load vector with the
// *lower-bound* landmarks of Section 5,
//     gamma* = 4 n / dk     (Theorem 6: B_{gamma*} >= (1-o(1)) ln dk / ln ln dk)
//     gamma0 = n / d        (Theorem 7: B_1 - B_{gamma0} >= ln ln n /
//                            ln(d-k+1) - O(1))
// for a configuration with dk -> infinity (the regime Figure 2 illustrates;
// default (64,65), dk = 65).
//
// Each repetition produces a whole sorted-load profile, so the bench sits
// directly on the execution engine's run_engine_grid (core/engine.hpp):
// repetitions run on the process-wide persistent pool and are folded in
// repetition order, keeping the printed profile bit-identical at any
// --threads value. Under --adaptive the confidence_width rule monitors the
// per-repetition max load B_1.
//
//   ./fig2_lowerbound_landmarks [--n=196608] [--k=64] [--d=65] [--reps=5]
//                               [--threads=0] [--csv]
//                               [--scenario "kd:n=...,kernel=level"]
//                               [--adaptive --ci-width=0.4 --max-reps=40]
//
// The repetition body runs a declarative scenario (core/scenario.hpp)
// through make_process, so any kernel/policy combination works;
// --scenario overrides the legacy flags key by key, byte-identically for
// equivalent settings.
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>

#include "core/kdchoice.hpp"
#include "rank_profile.hpp"
#include "stats/running_stats.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

namespace {

struct rep_profile {
    std::vector<double> at_ranks;
    double b1 = 0.0;
    double b_gamma_star = 0.0;
    double b_gamma0 = 0.0;
    double gap = 0.0;
    double messages = 0.0;
};

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "196608", "number of bins and balls");
    args.add_option("k", "64", "balls per round");
    args.add_option("d", "65", "bins probed per round");
    args.add_option("reps", "5", "independent repetitions to average");
    args.add_option("seed", "2", "master seed");
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
    // Clamp both landmarks into [1, n]: gamma* = 4n/dk exceeds n whenever
    // dk < 4 (e.g. small k with d >> k), and a rank beyond n would index
    // past the sorted load vector. The landmark is only meaningful as a rank
    // of the profile, so the top rank n is the honest saturation point.
    const auto gamma_star = std::min<std::uint64_t>(
        n, static_cast<std::uint64_t>(
               std::max(1.0, kdc::theory::gamma_star_landmark(n, k, d))));
    const auto gamma0 = std::min<std::uint64_t>(
        n, static_cast<std::uint64_t>(
               std::max(1.0, kdc::theory::gamma0_landmark(n, d))));

    std::cout << "Figure 2: sorted bin load vector of (" << k << "," << d
              << ")-choice with lower-bound landmarks, n = " << n << "\n"
              << "dk = " << kdc::format_fixed(dk, 2)
              << ", gamma* = min(n, 4n/dk) = " << gamma_star
              << ", gamma0 = min(n, n/d) = " << gamma0 << "\n\n";

    std::vector<std::uint64_t> ranks{1, gamma0, gamma_star, n};
    for (std::uint64_t x = 2; x < n; x = x * 2 + 1) {
        ranks.push_back(x);
    }
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

    const auto balls = kdc::core::resolved_balls(merged);
    const std::array<std::uint32_t, 1> reps_per_cell{reps};
    auto& pool = kdc::core::persistent_pool(args.get_threads());
    const auto grid = kdc::core::run_engine_grid<rep_profile>(
        pool, reps_per_cell,
        [&ranks, &merged, seed, balls, gamma_star,
         gamma0](std::size_t, std::uint32_t rep) {
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
            profile.b_gamma_star = sorted[gamma_star - 1];
            profile.b_gamma0 = sorted[gamma0 - 1];
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
    kdc::stats::running_stats b1;
    kdc::stats::running_stats b_gamma_star;
    kdc::stats::running_stats b_gamma0;
    for (const auto& rep : grid[0]) {
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            profile[i].push(rep.at_ranks[i]);
        }
        b1.push(rep.b1);
        b_gamma_star.push(rep.b_gamma_star);
        b_gamma0.push(rep.b_gamma0);
    }

    std::cout << "(profile averaged over " << grid[0].size()
              << " executed repetitions)\n\n";

    // Shared emission path: the same columns render the text table and the
    // --csv output (bench/rank_profile.hpp).
    std::vector<kdc_bench::rank_row> rows;
    rows.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        std::string note;
        if (ranks[i] == gamma_star) {
            note = "<- gamma* = 4n/dk";
        } else if (ranks[i] == gamma0) {
            note = "<- gamma0 = n/d";
        } else if (ranks[i] == 1) {
            note = "<- max load B_1";
        }
        rows.push_back({ranks[i], profile[i].mean(), std::move(note)});
    }
    const auto emitter = kdc_bench::make_rank_profile_emitter();
    emitter.write_table(std::cout, rows);

    const double theorem6 = kdc::theory::second_term(k, d);
    const double theorem7 = kdc::theory::first_term(n, k, d);
    std::cout
        << "Lower-bound decomposition (Section 5, Figure 2):\n"
        << "  measured B_{gamma*}       = "
        << kdc::format_fixed(b_gamma_star.mean(), 2)
        << "   (Theorem 6 lower bound ~ (1-o(1)) ln dk / ln ln dk = "
        << kdc::format_fixed(theorem6, 2) << ")\n"
        << "  measured B_1 - B_{gamma0} = "
        << kdc::format_fixed(b1.mean() - b_gamma0.mean(), 2)
        << "   (Theorem 7 lower bound ~ ln ln n / ln(d-k+1) - O(1) = "
        << kdc::format_fixed(theorem7, 2) << " - O(1))\n"
        << "  measured B_1              = " << kdc::format_fixed(b1.mean(), 2)
        << "   (their sum lower-bounds the max load)\n";

    if (args.get_flag("csv")) {
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, rows);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

// Ablation over the allocation-policy design choices the paper discusses:
//
//  1. The multiplicity rule (Section 1) vs the Section 7 "modified policy"
//     (batched greedy: less-loaded bins may receive multiple balls). The
//     paper conjectures the modified policy achieves O(1) max load even for
//     k ~ d, where the standard policy degrades toward single choice —
//     the (192,193) cell of Table 1 reads "5, 6"; greedy should read ~2.
//  2. Serialization order sigma (Definition 1): by Property (i) the final
//     load distribution is invariant — identity, reversal and random
//     schedules must agree (an ablation that *should* show nothing).
//
// Both ablation phases run as cross-cell sweeps sharing ONE thread
// pool (core/sweep.hpp), so all configurations of a phase execute in
// parallel; reported numbers are bit-identical at any --threads value.
//
//   ./ablation_policies [--n=196608] [--reps=10] [--seed=8] [--threads=0]
//                       [--csv] [--scenario "kd:n=...,kernel=auto"]
//                       [--adaptive --ci-width=0.4 --min-reps=3 --max-reps=40]
//
// Phase-1 cells are declarative scenarios (core/scenario.hpp): the
// standard process is the "kd" policy, the Section 7 variant the "greedy"
// policy. --scenario overrides the legacy flags key by key. The sigma
// phase exercises serialized_process, which is deliberately outside the
// scenario vocabulary (it ablates the schedule, not the policy).
#include <iostream>
#include <vector>

#include "core/kdchoice.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

namespace {

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "196608", "number of bins and balls");
    args.add_option("reps", "10", "repetitions per configuration");
    args.add_option("seed", "8", "master seed");
    args.add_threads_option();
    args.add_scenario_option();
    args.add_adaptive_options();
    args.add_flag("csv", "also emit CSV rows (cell, mean max, set)");
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

    struct config {
        std::uint64_t k, d;
    };
    const std::vector<config> configs{{2, 3},   {8, 9},    {32, 33},
                                      {96, 97}, {192, 193}, {128, 193}};

    // Phase 1 cells: a standard / greedy pair per configuration, seeded
    // exactly as the original serial loops were.
    std::vector<kdc::core::sweep_cell> policy_cells;
    std::uint64_t cfg_seed = seed;
    for (const auto& cfg : configs) {
        ++cfg_seed;
        const auto balls = n - (n % cfg.k);
        const std::string kd =
            "(" + std::to_string(cfg.k) + "," + std::to_string(cfg.d) + ")";
        auto standard = merged;
        standard.k = cfg.k;
        standard.d = cfg.d;
        policy_cells.push_back(kdc::core::make_scenario_cell(
            kd + " standard", standard,
            {.balls = balls, .reps = reps, .seed = cfg_seed}));
        auto greedy = standard;
        greedy.family = "greedy";
        // greedy has no level kernel; auto degrades to perbin so a
        // kernel=level scenario still runs the whole ablation.
        greedy.kernel = kdc::core::kernel_choice::auto_pick;
        policy_cells.push_back(kdc::core::make_scenario_cell(
            kd + " greedy", greedy,
            {.balls = balls, .reps = reps, .seed = cfg_seed + 5000}));
    }

    // Phase 2 cells: one per sigma schedule, all on the same master seed
    // (identical seeds -> identical samples is the point of the ablation).
    // Each repetition constructs its OWN schedule: random_schedule's copies
    // share one generator, so a schedule built once and captured would be
    // mutated concurrently by parallel reps. Per-rep construction is
    // race-free and still deterministic — the reported loads are
    // sigma-invariant by Property (i) regardless of the permutation stream.
    const std::uint64_t sk = 8;
    const std::uint64_t sd = 16;
    struct schedule_case {
        const char* name;
        std::function<kdc::core::sigma_schedule()> make;
    };
    const std::uint64_t sigma_seed = seed + 999;
    std::vector<schedule_case> schedules;
    schedules.push_back(
        {"identity", [] { return kdc::core::identity_schedule(); }});
    schedules.push_back(
        {"reverse", [] { return kdc::core::reverse_schedule(); }});
    schedules.push_back({"random", [sigma_seed] {
                             return kdc::core::random_schedule(sigma_seed);
                         }});
    std::vector<kdc::core::sweep_cell> sigma_cells;
    for (const auto& sched : schedules) {
        sigma_cells.push_back(kdc::core::make_sweep_cell(
            sched.name, {.balls = n, .reps = reps, .seed = seed + 31},
            [n, sk, sd, make = sched.make](std::uint64_t s) {
                return kdc::core::serialized_process(n, sk, sd, s, make());
            }));
    }

    // The process-wide persistent pool serves both phases — nested sweeps
    // share workers instead of re-spawning them.
    kdc::core::sweep_options options;
    options.stopping = kdc::core::stopping_rule_from_cli(args);
    auto& pool = kdc::core::persistent_pool(args.get_threads());
    // Not const: the --csv path at the end moves both into one vector.
    auto policy_outcomes = kdc::core::run_sweep(pool, policy_cells, options);
    auto sigma_outcomes = kdc::core::run_sweep(pool, sigma_cells, options);

    std::cout << "Ablation 1 — multiplicity rule vs Section 7 greedy "
                 "policy, n = " << n << "\n\n";
    kdc::text_table policy_table;
    policy_table.set_header({"(k,d)", "standard mean max", "standard set",
                             "greedy mean max", "greedy set"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto& standard = policy_outcomes[2 * i].result;
        const auto& greedy = policy_outcomes[2 * i + 1].result;
        policy_table.add_row(
            {"(" + std::to_string(configs[i].k) + "," +
                 std::to_string(configs[i].d) + ")",
             kdc::format_fixed(standard.max_load_stats.mean(), 2),
             standard.max_load_set(),
             kdc::format_fixed(greedy.max_load_stats.mean(), 2),
             greedy.max_load_set()});
    }
    std::cout << policy_table << '\n'
              << "Conjecture (Section 7): greedy stays O(1) even at k ~ d "
                 "(watch the (192,193) row).\n\n";

    std::cout << "Ablation 2 — serialization schedule sigma (Property (i): "
                 "no effect expected)\n\n";
    kdc::core::sweep_emitter sigma_emitter;
    sigma_emitter.add_name_column("sigma")
        .add_stat_column("mean max",
                         [](const kdc::core::sweep_outcome& outcome) {
                             return outcome.result.max_load_stats.mean();
                         })
        .add_max_load_set_column("set");
    sigma_emitter.write_table(std::cout, sigma_outcomes);
    std::cout << "All three rows must agree (identical seeds -> identical "
                 "samples -> identical loads).\n";

    if (args.get_flag("csv")) {
        kdc::core::sweep_emitter csv_emitter;
        csv_emitter.add_name_column("cell")
            .add_reps_column()
            .add_stat_column("max_load_mean",
                             [](const kdc::core::sweep_outcome& outcome) {
                                 return outcome.result.max_load_stats.mean();
                             })
            .add_max_load_set_column("max_load_set");
        std::cout << "\nCSV:\n";
        auto all = std::move(policy_outcomes);
        all.insert(all.end(), std::make_move_iterator(sigma_outcomes.begin()),
                   std::make_move_iterator(sigma_outcomes.end()));
        csv_emitter.write_csv(std::cout, all);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

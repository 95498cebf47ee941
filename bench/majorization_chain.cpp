// Empirical verification of the Section 3 majorization properties
// (ii)-(v), plus the Theorem 2 sandwich chain
//     A(1, d-k+1)  <=mj  A(k, d)  <=mj  A(1, floor(d/k)).
//
// For each ordered pair we report the mean max load of both processes and
// the Mann-Whitney dominance probability P(maxload(worse) > maxload(better))
// (+0.5 ties); majorization implies this is >= 0.5.
//
// All twenty process runs execute as ONE sweep on the process-wide
// persistent pool (core/sweep.hpp), folded in repetition order, so the
// table is bit-identical at any --threads value; the table and --csv output
// share one column declaration (support/row_emitter.hpp).
//
//   ./majorization_chain [--n=65536] [--reps=30] [--seed=7] [--threads=0]
//                        [--csv] [--scenario "kd:n=...,kernel=auto"]
//
// Every process in the chain is a declarative scenario
// (core/scenario.hpp); --scenario overrides the legacy flags key by key
// (byte-identical for equivalent settings).
#include <iostream>
#include <vector>

#include "core/coupling.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "stats/hypothesis.hpp"
#include "support/cli.hpp"
#include "support/row_emitter.hpp"
#include "support/text_table.hpp"

namespace {

std::vector<double> max_load_sample(const kdc::core::sweep_outcome& outcome) {
    std::vector<double> sample;
    sample.reserve(outcome.result.reps.size());
    for (const auto& rep : outcome.result.reps) {
        sample.push_back(static_cast<double>(rep.max_load));
    }
    return sample;
}

double mean_of(const std::vector<double>& xs) {
    double sum = 0.0;
    for (const double x : xs) {
        sum += x;
    }
    return sum / static_cast<double>(xs.size());
}

int run(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("n", "65536", "number of bins and balls");
    args.add_option("reps", "30", "repetitions per process");
    args.add_option("seed", "7", "master seed");
    args.add_threads_option();
    args.add_scenario_option();
    args.add_flag("csv",
                  "also emit CSV rows (property, configs, means, dominance)");
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

    struct pair {
        const char* property;
        std::uint64_t kb, db; // better (majorized)
        std::uint64_t kw, dw; // worse (majorizing)
    };
    const std::vector<pair> pairs{
        {"(ii)  A(k,d+a) <= A(k,d)", 1, 4, 1, 2},
        {"(ii)  A(k,d+a) <= A(k,d)", 4, 12, 4, 6},
        {"(iii) A(k-a,d) <= A(k,d)", 1, 8, 4, 8},
        {"(iii) A(k-a,d) <= A(k,d)", 2, 16, 8, 16},
        {"(iv)  A(ak,ad) <= A(k,d)", 4, 8, 1, 2},
        {"(iv)  A(ak,ad) <= A(k,d)", 8, 12, 2, 3},
        {"(v)   A(k,d) <= A(k+a,d+a)", 1, 2, 16, 17},
        {"(v)   A(k,d) <= A(k+a,d+a)", 2, 4, 32, 34},
        {"thm2  A(1,d-k+1) <= A(k,d)", 1, 5, 4, 8},
        {"thm2  A(k,d) <= A(1,d/k)", 4, 8, 1, 2},
    };

    // Two cells per pair (better then worse), seeded exactly as the original
    // serial loop was: the pair counter advances once per side.
    std::vector<kdc::core::sweep_cell> cells;
    std::uint64_t pair_seed = seed;
    auto add_process = [&](std::uint64_t k, std::uint64_t d,
                           std::uint64_t multiplier) {
        ++pair_seed;
        auto sc = merged;
        sc.k = k;
        sc.d = d;
        cells.push_back(kdc::core::make_scenario_cell(
            std::string("(")
                .append(std::to_string(k))
                .append(",")
                .append(std::to_string(d))
                .append(")"),
            sc,
            {.balls = n - (n % k), .reps = reps,
             .seed = pair_seed * multiplier}));
    };
    for (const auto& p : pairs) {
        add_process(p.kb, p.db, 131);
        add_process(p.kw, p.dw, 137);
    }

    kdc::core::sweep_options options;
    options.threads = args.get_threads();
    const auto outcomes = kdc::core::run_sweep(cells, options);

    std::cout << "Majorization chain, n = " << n << ", " << reps
              << " reps per process\n"
              << "dominance = P(max(worse) > max(better)) + 0.5 P(tie); "
                 "majorization implies >= 0.5\n\n";

    struct pair_row {
        const pair* p;
        double better_mean = 0.0;
        double worse_mean = 0.0;
        double dominance = 0.0;
    };
    std::vector<pair_row> rows;
    rows.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto better = max_load_sample(outcomes[2 * i]);
        const auto worse = max_load_sample(outcomes[2 * i + 1]);
        rows.push_back({&pairs[i], mean_of(better), mean_of(worse),
                        kdc::stats::dominance_probability(worse, better)});
    }
    kdc::row_emitter<pair_row> emitter;
    emitter
        .add_column("property",
                    [](const pair_row& row, std::size_t) {
                        return std::string(row.p->property);
                    },
                    kdc::table_align::left)
        .add_column("better",
                    [](const pair_row& row, std::size_t) {
                        return std::string("(")
                            .append(std::to_string(row.p->kb))
                            .append(",")
                            .append(std::to_string(row.p->db))
                            .append(")");
                    })
        .add_stat_column("better mean",
                         [](const pair_row& row) { return row.better_mean; })
        .add_column("worse",
                    [](const pair_row& row, std::size_t) {
                        return std::string("(")
                            .append(std::to_string(row.p->kw))
                            .append(",")
                            .append(std::to_string(row.p->dw))
                            .append(")");
                    })
        .add_stat_column("worse mean",
                         [](const pair_row& row) { return row.worse_mean; })
        .add_stat_column("dominance",
                         [](const pair_row& row) { return row.dominance; },
                         3);
    emitter.write_table(std::cout, rows);
    std::cout << "Every dominance entry should be >= ~0.5 (sampling noise "
                 "aside): the majorized\n"
                 "process never has the stochastically larger max load.\n\n";

    // The paper's actual coupling constructions (Section 3 proofs), run as
    // experiments: shared probes for (ii), partitioned probes for (iv).
    std::cout << "Coupled runs (paper's proof couplings, n = " << n << "):\n";
    kdc::text_table coupled;
    coupled.set_header({"coupling", "config", "rounds",
                        "prefix-sum violations", "rate"});
    coupled.set_align(0, kdc::table_align::left);
    const auto ii = kdc::core::couple_property_ii(n, 2, 4, 4, n / 2, seed);
    coupled.add_row({"Property (ii), shared probes",
                     "A(2,8) vs A(2,4)", std::to_string(ii.rounds),
                     std::to_string(ii.violations),
                     kdc::format_fixed(ii.violation_rate(), 4)});
    const auto iv = kdc::core::couple_property_iv(n, 2, 4, 2, n / 8, seed);
    coupled.add_row({"Property (iv), partitioned probes",
                     "A(4,8) vs A(2,4)", std::to_string(iv.rounds),
                     std::to_string(iv.violations),
                     kdc::format_fixed(iv.violation_rate(), 4)});
    std::cout << coupled
              << "(ii) holds exactly under the coupling; (iv) shows only "
                 "residual tie-breaking noise.\n";

    if (args.get_flag("csv")) {
        std::cout << "\nCSV:\n";
        emitter.write_csv(std::cout, rows);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return kdc::cli_main(argc, argv, run); }

#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::core::experiment_config;
using kdc::core::experiment_result;
using kdc::core::fixed_reps_rule;
using kdc::core::make_sweep_cell;
using kdc::core::run_engine_grid;
using kdc::core::run_experiment;
using kdc::core::run_sweep;
using kdc::core::sweep_cell;
using kdc::core::sweep_emitter;
using kdc::core::sweep_options;
using kdc::core::sweep_outcome;
using kdc::core::thread_pool;

/// Bitwise equality of a sweep outcome against the serial runner's result
/// for the same cell: per-rep observations and every floating-point
/// aggregate must match exactly (any fold-order difference would perturb the
/// running_stats accumulators).
void expect_identical(const experiment_result& serial,
                      const experiment_result& swept) {
    ASSERT_EQ(serial.reps.size(), swept.reps.size());
    for (std::size_t i = 0; i < serial.reps.size(); ++i) {
        EXPECT_EQ(serial.reps[i].max_load, swept.reps[i].max_load) << i;
        EXPECT_EQ(serial.reps[i].gap, swept.reps[i].gap) << i;
        EXPECT_EQ(serial.reps[i].messages, swept.reps[i].messages) << i;
        EXPECT_EQ(serial.reps[i].empty_bins, swept.reps[i].empty_bins) << i;
    }
    EXPECT_EQ(serial.max_load_set(), swept.max_load_set());
    EXPECT_EQ(serial.max_load_stats.mean(), swept.max_load_stats.mean());
    EXPECT_EQ(serial.gap_stats.mean(), swept.gap_stats.mean());
    EXPECT_EQ(serial.message_stats.mean(), swept.message_stats.mean());
    if (serial.reps.size() >= 2) { // variance needs two samples
        EXPECT_EQ(serial.max_load_stats.variance(),
                  swept.max_load_stats.variance());
        EXPECT_EQ(serial.gap_stats.variance(), swept.gap_stats.variance());
        EXPECT_EQ(serial.message_stats.variance(),
                  swept.message_stats.variance());
    }
}

/// sweep_options with only the thread count set.
sweep_options with_threads(unsigned threads) {
    sweep_options options;
    options.threads = threads;
    return options;
}

/// A mixed grid: different process types, per-cell seeds, ball counts, and
/// repetition counts, like the real benches build.
std::vector<sweep_cell> mixed_grid() {
    std::vector<sweep_cell> cells;
    cells.push_back(make_sweep_cell(
        "kd(2,4)", {.balls = 128, .reps = 7, .seed = 11},
        [](std::uint64_t s) {
            return kdc::core::kd_choice_process(128, 2, 4, s);
        }));
    cells.push_back(make_sweep_cell(
        "single", {.balls = 96, .reps = 3, .seed = 5},
        [](std::uint64_t s) {
            return kdc::core::single_choice_process(96, s);
        }));
    cells.push_back(make_sweep_cell(
        "3-choice", {.balls = 200, .reps = 5, .seed = 23},
        [](std::uint64_t s) {
            return kdc::core::d_choice_process(200, 3, s);
        }));
    cells.push_back(make_sweep_cell(
        "kd(3,9)", {.balls = 99, .reps = 4, .seed = 41},
        [](std::uint64_t s) {
            return kdc::core::kd_choice_process(120, 3, 9, s);
        }));
    return cells;
}

/// Serial reference: each cell's own run_rep replayed in repetition order on
/// one thread — exactly the fold the sweep promises to reproduce.
std::vector<experiment_result>
serial_reference(const std::vector<sweep_cell>& cells) {
    std::vector<experiment_result> results;
    for (const auto& cell : cells) {
        experiment_result out;
        out.reps.reserve(cell.config.reps);
        for (std::uint32_t rep = 0; rep < cell.config.reps; ++rep) {
            out.reps.push_back(cell.run_rep(
                kdc::rng::derive_seed(cell.config.seed, rep)));
            kdc::core::accumulate_repetition(out, out.reps.back());
        }
        results.push_back(std::move(out));
    }
    return results;
}

TEST(Sweep, CrossCellBitIdenticalAtOneTwoAndManyThreads) {
    const auto cells = mixed_grid();
    const auto reference = serial_reference(cells);
    for (const unsigned threads : {1u, 2u, 8u}) {
        const auto outcomes = run_sweep(cells, with_threads(threads));
        ASSERT_EQ(outcomes.size(), cells.size());
        for (std::size_t c = 0; c < cells.size(); ++c) {
            EXPECT_EQ(outcomes[c].name, cells[c].name);
            expect_identical(reference[c], outcomes[c].result);
        }
    }
}

TEST(Sweep, MatchesSerialRunExperimentPerCell) {
    // The documented contract: each cell's outcome is bit-identical to
    // run_experiment on the same config and factory.
    const experiment_config config{.balls = 150, .reps = 6, .seed = 77};
    const auto factory = [](std::uint64_t s) {
        return kdc::core::kd_choice_process(150, 3, 5, s);
    };
    const auto serial = run_experiment(config, factory);
    const auto outcomes = run_sweep(
        {make_sweep_cell("cell", config, factory)}, with_threads(4));
    ASSERT_EQ(outcomes.size(), 1u);
    expect_identical(serial, outcomes[0].result);
}

/// The serial scenario reference for a one-cell sweep of `text` (a per-bin
/// scenario).
experiment_result scenario_serial(const char* text,
                                  const experiment_config& config) {
    return kdc::core::run_scenario_experiment(kdc::core::parse_scenario(text),
                                              config);
}

TEST(Sweep, OneCellMatchesSerialForSingleAndDChoice) {
    const experiment_config config{.balls = 256, .reps = 9, .seed = 7};
    const auto single = make_sweep_cell("single", config, [](std::uint64_t s) {
        return kdc::core::single_choice_process(256, s);
    });
    const auto dchoice =
        make_sweep_cell("3-choice", config, [](std::uint64_t s) {
            return kdc::core::d_choice_process(256, 3, s);
        });
    // 0 resolves to all hardware threads.
    for (const unsigned threads : {0u, 1u, 2u, 8u}) {
        expect_identical(scenario_serial("single:n=256,kernel=perbin", config),
                         run_sweep({single}, with_threads(threads))[0].result);
        expect_identical(
            scenario_serial("dchoice:n=256,d=3,kernel=perbin", config),
            run_sweep({dchoice}, with_threads(threads))[0].result);
    }
}

TEST(Sweep, OneCellWithMoreThreadsThanRepsMatchesSerial) {
    const experiment_config config{.balls = 64, .reps = 2, .seed = 5};
    const auto cell = make_sweep_cell("kd(2,4)", config, [](std::uint64_t s) {
        return kdc::core::kd_choice_process(64, 2, 4, s);
    });
    expect_identical(scenario_serial("kd:n=64,k=2,d=4,kernel=perbin", config),
                     run_sweep({cell}, with_threads(16))[0].result);
}

TEST(Sweep, SharedPoolAcrossSuccessiveSweeps) {
    const auto cells = mixed_grid();
    const auto reference = serial_reference(cells);
    thread_pool pool(4);
    for (int round = 0; round < 2; ++round) {
        const auto outcomes = run_sweep(pool, cells);
        ASSERT_EQ(outcomes.size(), cells.size());
        for (std::size_t c = 0; c < cells.size(); ++c) {
            expect_identical(reference[c], outcomes[c].result);
        }
    }
}

TEST(Sweep, EmptyGridReturnsEmpty) {
    EXPECT_TRUE(run_sweep({}).empty());
    thread_pool pool(2);
    EXPECT_TRUE(run_sweep(pool, {}).empty());
}

TEST(Sweep, ExceptionFromMidGridCellPropagates) {
    auto cells = mixed_grid();
    sweep_cell poison;
    poison.name = "poison";
    poison.config = {.balls = 32, .reps = 4, .seed = 3};
    poison.run_rep = [](std::uint64_t) -> kdc::core::repetition_result {
        throw std::runtime_error("mid-grid failure");
    };
    cells.insert(cells.begin() + 2, std::move(poison));
    thread_pool pool(4);
    EXPECT_THROW((void)run_sweep(pool, cells), std::runtime_error);
    // The grid drains before rethrow, so the pool stays usable.
    const auto cells_ok = mixed_grid();
    const auto reference = serial_reference(cells_ok);
    const auto outcomes = run_sweep(pool, cells_ok);
    ASSERT_EQ(outcomes.size(), cells_ok.size());
    for (std::size_t c = 0; c < cells_ok.size(); ++c) {
        expect_identical(reference[c], outcomes[c].result);
    }
}

TEST(Sweep, StealHeavyManySingleRepCells) {
    // Many 1-rep cells on 8 workers: jobs finish in any order, and the
    // outcome order must still be cell order.
    std::vector<sweep_cell> cells;
    for (int c = 0; c < 40; ++c) {
        cells.push_back(make_sweep_cell(
            "cell-" + std::to_string(c),
            {.balls = 64 + static_cast<std::uint64_t>(c),
             .reps = 1,
             .seed = static_cast<std::uint64_t>(1000 + c)},
            [](std::uint64_t s) {
                return kdc::core::d_choice_process(256, 2, s);
            }));
    }
    const auto reference = serial_reference(cells);
    const auto outcomes = run_sweep(cells, with_threads(8));
    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        EXPECT_EQ(outcomes[c].name, cells[c].name);
        expect_identical(reference[c], outcomes[c].result);
    }
}

TEST(Sweep, ProgressReportsEveryJobMonotonically) {
    const auto cells = mixed_grid();
    std::size_t expected_total = 0;
    for (const auto& cell : cells) {
        expected_total += cell.config.reps;
    }
    // The engine serializes progress calls; collect without extra locking.
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    sweep_options options;
    options.threads = 4;
    options.progress = [&calls](std::size_t done, std::size_t total) {
        calls.emplace_back(done, total);
    };
    (void)run_sweep(cells, options);
    ASSERT_EQ(calls.size(), expected_total);
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].first, i + 1);
        EXPECT_EQ(calls[i].second, expected_total);
    }
}

TEST(Sweep, RejectsInvalidCells) {
    EXPECT_THROW((void)make_sweep_cell(
                     "bad", experiment_config{.balls = 0, .reps = 3, .seed = 1},
                     [](std::uint64_t s) {
                         return kdc::core::single_choice_process(8, s);
                     }),
                 kdc::contract_violation);
    EXPECT_THROW((void)make_sweep_cell(
                     "no-reps",
                     experiment_config{.balls = 8, .reps = 0, .seed = 1},
                     [](std::uint64_t s) {
                         return kdc::core::single_choice_process(8, s);
                     }),
                 kdc::contract_violation);
    sweep_cell no_runner;
    no_runner.name = "no-runner";
    no_runner.config = {.balls = 8, .reps = 1, .seed = 1};
    EXPECT_THROW((void)run_sweep({no_runner}), kdc::contract_violation);
}

TEST(SweepGrid, CustomPayloadTypeAndRaggedReps) {
    // run_engine_grid is the payload-generic layer: cells may return any
    // type and have different repetition counts; slots land at
    // grid[cell][rep].
    thread_pool pool(4);
    const std::vector<std::uint32_t> reps{3, 1, 5};
    const auto grid = run_engine_grid<std::string>(
        pool, reps,
        [](std::size_t cell, std::uint32_t rep) {
            return std::to_string(cell) + ":" + std::to_string(rep);
        },
        [](std::size_t, const std::string&) { return 0.0; },
        fixed_reps_rule());
    ASSERT_EQ(grid.size(), 3u);
    for (std::size_t c = 0; c < grid.size(); ++c) {
        ASSERT_EQ(grid[c].size(), reps[c]);
        for (std::uint32_t r = 0; r < reps[c]; ++r) {
            EXPECT_EQ(grid[c][r],
                      std::to_string(c) + ":" + std::to_string(r));
        }
    }
}

TEST(SweepGrid, RejectsZeroRepCells) {
    thread_pool pool(2);
    const std::vector<std::uint32_t> reps{2, 0};
    EXPECT_THROW((void)run_engine_grid<int>(
                     pool, reps, [](std::size_t, std::uint32_t) { return 1; },
                     [](std::size_t, const int&) { return 0.0; },
                     fixed_reps_rule()),
                 kdc::contract_violation);
}

/// A deterministic two-cell sweep for emitter tests.
std::vector<sweep_outcome> emitter_fixture() {
    std::vector<sweep_cell> cells;
    cells.push_back(make_sweep_cell(
        "alpha", {.balls = 64, .reps = 3, .seed = 1},
        [](std::uint64_t s) {
            return kdc::core::single_choice_process(64, s);
        }));
    cells.push_back(make_sweep_cell(
        "beta, quoted", {.balls = 64, .reps = 3, .seed = 2},
        [](std::uint64_t s) {
            return kdc::core::d_choice_process(64, 2, s);
        }));
    return run_sweep(cells, with_threads(2));
}

TEST(SweepEmitter, RendersAlignedTable) {
    const auto outcomes = emitter_fixture();
    sweep_emitter emitter;
    emitter.add_name_column("cell")
        .add_stat_column("mean max",
                         [](const sweep_outcome& outcome) {
                             return outcome.result.max_load_stats.mean();
                         })
        .add_max_load_set_column("set");
    const auto table = emitter.to_table(outcomes);
    EXPECT_EQ(table.row_count(), outcomes.size());
    const auto rendered = table.to_string();
    EXPECT_NE(rendered.find("cell"), std::string::npos);
    EXPECT_NE(rendered.find("alpha"), std::string::npos);
    EXPECT_NE(rendered.find("beta, quoted"), std::string::npos);
}

TEST(SweepEmitter, WritesEscapedCsvWithHeader) {
    const auto outcomes = emitter_fixture();
    sweep_emitter emitter;
    emitter.add_name_column("cell")
        .add_max_load_set_column("max_load_set")
        .add_column("row",
                    [](const sweep_outcome&, std::size_t row) {
                        return std::to_string(row);
                    });
    std::ostringstream out;
    emitter.write_csv(out, outcomes);
    const auto csv = out.str();
    // Header + one line per outcome.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + outcomes.size());
    EXPECT_EQ(csv.rfind("cell,max_load_set,row\n", 0), 0u);
    // Fields containing commas are RFC-4180 quoted.
    EXPECT_NE(csv.find("\"beta, quoted\""), std::string::npos);
    EXPECT_NE(csv.find(",1\n"), std::string::npos);
}

TEST(SweepEmitter, IndexReachesBenchSideMetadata) {
    const auto outcomes = emitter_fixture();
    const std::vector<std::string> metadata{"first", "second"};
    sweep_emitter emitter;
    emitter.add_column("meta",
                       [&metadata](const sweep_outcome&, std::size_t row) {
                           return metadata[row];
                       });
    const auto rendered = emitter.to_table(outcomes).to_string();
    EXPECT_NE(rendered.find("first"), std::string::npos);
    EXPECT_NE(rendered.find("second"), std::string::npos);
}

} // namespace

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/process.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "stats/running_stats.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::core::cell_plan;
using kdc::core::confidence_reached;
using kdc::core::confidence_width_rule;
using kdc::core::fixed_reps_rule;
using kdc::core::make_sweep_cell;
using kdc::core::monitored_value;
using kdc::core::resolve_cell_plan;
using kdc::core::run_engine_grid;
using kdc::core::run_sweep;
using kdc::core::stopping_mode;
using kdc::core::stopping_rule;
using kdc::core::sweep_options;
using kdc::core::thread_pool;

/// A deterministic synthetic workload: value(cell, rep) is a fixed function
/// of its indices, so any engine schedule must reproduce it exactly. Cell
/// variance is controlled per cell: `spread[c]` scales an alternating
/// +/- deviation that decays with the repetition index, giving high-variance
/// cells a genuine reason to run longer than low-variance ones.
double synthetic_value(std::size_t cell, std::uint32_t rep, double spread) {
    const double wobble = (rep % 2 == 0 ? 1.0 : -1.0) * spread /
                          (1.0 + 0.25 * static_cast<double>(rep));
    return 10.0 * static_cast<double>(cell + 1) + wobble;
}

/// Serial reference of the engine's adaptive loop: fold in rep order, decide
/// at chunk boundaries. The engine must agree with this at EVERY thread
/// count — the decision sequence is pure once the fold order is fixed.
std::vector<double> serial_adaptive_reference(std::size_t cell, double spread,
                                              std::uint32_t configured,
                                              const stopping_rule& rule) {
    const cell_plan plan = resolve_cell_plan(rule, configured);
    std::vector<double> values;
    kdc::stats::running_stats monitor;
    std::uint32_t scheduled = plan.first_chunk;
    for (;;) {
        while (values.size() < scheduled) {
            const auto rep = static_cast<std::uint32_t>(values.size());
            values.push_back(synthetic_value(cell, rep, spread));
            monitor.push(values.back());
        }
        if (scheduled >= plan.max_reps ||
            confidence_reached(monitor, rule)) {
            return values;
        }
        scheduled = std::min<std::uint32_t>(plan.max_reps,
                                            scheduled + plan.chunk);
    }
}

TEST(SweepEngine, AdaptiveMatchesSerialReferenceAtAnyThreadCount) {
    // Three cells with very different variances under one rule: the engine
    // must execute exactly the repetition counts (and values) the serial
    // rep-order fold dictates, regardless of the worker count.
    const std::vector<double> spreads{0.0, 3.0, 12.0};
    const std::uint32_t configured = 64;
    const auto rule = confidence_width_rule(/*ci_half_width=*/0.8,
                                            /*min_reps=*/3, /*max_reps=*/64);
    std::vector<std::vector<double>> reference;
    for (std::size_t c = 0; c < spreads.size(); ++c) {
        reference.push_back(
            serial_adaptive_reference(c, spreads[c], configured, rule));
    }
    const std::vector<std::uint32_t> reps(spreads.size(), configured);
    for (const unsigned threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        const auto grid = run_engine_grid<double>(
            pool, reps,
            [&spreads](std::size_t c, std::uint32_t rep) {
                return synthetic_value(c, rep, spreads[c]);
            },
            [](std::size_t, const double& value) { return value; }, rule);
        ASSERT_EQ(grid.size(), reference.size());
        for (std::size_t c = 0; c < grid.size(); ++c) {
            EXPECT_EQ(grid[c], reference[c])
                << "cell " << c << " at " << threads << " threads";
        }
    }
}

TEST(SweepEngine, LowVarianceStopsAtFloorHighVarianceRunsLonger) {
    const std::vector<std::uint32_t> reps{64, 64};
    thread_pool pool(4);
    const auto rule = confidence_width_rule(/*ci_half_width=*/0.5,
                                            /*min_reps=*/4, /*max_reps=*/64);
    const auto grid = run_engine_grid<double>(
        pool, reps,
        [](std::size_t c, std::uint32_t rep) {
            // Cell 0 is constant; cell 1 swings +/- 20.
            return synthetic_value(c, rep, c == 0 ? 0.0 : 20.0);
        },
        [](std::size_t, const double& value) { return value; }, rule);
    EXPECT_EQ(grid[0].size(), 4u); // zero variance: stop at the floor
    EXPECT_GT(grid[1].size(), 4u); // needs more data than the floor
    EXPECT_LE(grid[1].size(), 64u);
}

TEST(SweepEngine, UnreachableTargetRunsToCap) {
    const std::vector<std::uint32_t> reps{10};
    thread_pool pool(2);
    const auto rule = confidence_width_rule(/*ci_half_width=*/1e-12,
                                            /*min_reps=*/2, /*max_reps=*/17);
    const auto grid = run_engine_grid<double>(
        pool, reps,
        [](std::size_t, std::uint32_t rep) {
            return synthetic_value(0, rep, 5.0);
        },
        [](std::size_t, const double& value) { return value; }, rule);
    EXPECT_EQ(grid[0].size(), 17u);
}

TEST(SweepEngine, CapDefaultsToConfiguredReps) {
    // max_reps = 0 means "the cell's configured repetition count".
    const std::vector<std::uint32_t> reps{7};
    thread_pool pool(2);
    const auto rule = confidence_width_rule(/*ci_half_width=*/1e-12,
                                            /*min_reps=*/2, /*max_reps=*/0);
    const auto grid = run_engine_grid<double>(
        pool, reps,
        [](std::size_t, std::uint32_t rep) {
            return synthetic_value(0, rep, 5.0);
        },
        [](std::size_t, const double& value) { return value; }, rule);
    EXPECT_EQ(grid[0].size(), 7u);
}

TEST(SweepEngine, HugeRepCapDoesNotPreallocateTheCap) {
    // Slots must exist per scheduled chunk only: a generous target with
    // --max-reps=1e6 stops at the floor and must not have sized the result
    // vector (or its capacity) anywhere near the cap.
    const std::vector<std::uint32_t> reps{8};
    thread_pool pool(2);
    const auto rule = confidence_width_rule(/*ci_half_width=*/1e6,
                                            /*min_reps=*/2,
                                            /*max_reps=*/1'000'000);
    const auto grid = run_engine_grid<double>(
        pool, reps,
        [](std::size_t, std::uint32_t rep) {
            return static_cast<double>(rep % 2);
        },
        [](std::size_t, const double& value) { return value; }, rule);
    EXPECT_EQ(grid[0].size(), 2u);
    EXPECT_LT(grid[0].capacity(), 1'000'000u);
}

TEST(SweepEngine, FixedModeIgnoresMetricAndRunsEverything) {
    const std::vector<std::uint32_t> reps{5, 3};
    thread_pool pool(4);
    const auto grid = run_engine_grid<double>(
        pool, reps,
        [](std::size_t c, std::uint32_t rep) {
            return synthetic_value(c, rep, 1.0);
        },
        [](std::size_t, const double&) -> double {
            throw std::logic_error("metric must not run under fixed_reps");
        },
        fixed_reps_rule());
    EXPECT_EQ(grid[0].size(), 5u);
    EXPECT_EQ(grid[1].size(), 3u);
}

TEST(SweepEngine, AdaptiveSweepIsBitIdenticalAcrossThreadCountsOnRealCells) {
    // End-to-end through run_sweep on real allocation processes: executed
    // repetition counts and every aggregate must agree across thread counts.
    auto build_cells = [] {
        std::vector<kdc::core::sweep_cell> cells;
        cells.push_back(make_sweep_cell(
            "kd(2,4)", {.balls = 128, .reps = 24, .seed = 11},
            [](std::uint64_t s) {
                return kdc::core::kd_choice_process(128, 2, 4, s);
            }));
        cells.push_back(make_sweep_cell(
            "single", {.balls = 96, .reps = 24, .seed = 5},
            [](std::uint64_t s) {
                return kdc::core::single_choice_process(96, s);
            }));
        return cells;
    };
    sweep_options baseline;
    baseline.threads = 1;
    baseline.stopping = confidence_width_rule(/*ci_half_width=*/0.6,
                                              /*min_reps=*/3);
    const auto reference = run_sweep(build_cells(), baseline);
    for (const unsigned threads : {2u, 8u}) {
        sweep_options options = baseline;
        options.threads = threads;
        const auto outcomes = run_sweep(build_cells(), options);
        ASSERT_EQ(outcomes.size(), reference.size());
        for (std::size_t c = 0; c < outcomes.size(); ++c) {
            ASSERT_EQ(outcomes[c].result.reps.size(),
                      reference[c].result.reps.size());
            for (std::size_t r = 0; r < reference[c].result.reps.size();
                 ++r) {
                EXPECT_EQ(outcomes[c].result.reps[r].max_load,
                          reference[c].result.reps[r].max_load);
            }
            EXPECT_EQ(outcomes[c].result.max_load_stats.mean(),
                      reference[c].result.max_load_stats.mean());
            EXPECT_EQ(outcomes[c].result.gap_stats.mean(),
                      reference[c].result.gap_stats.mean());
        }
    }
}

TEST(SweepEngine, AdaptiveRepsAreAPrefixOfTheFixedRun) {
    // The adaptive engine must not change WHAT a repetition computes — only
    // how many run. Every executed rep equals the same-index rep of the
    // fixed-mode run (same derived seeds, same fold order).
    std::vector<kdc::core::sweep_cell> cells;
    cells.push_back(make_sweep_cell(
        "3-choice", {.balls = 200, .reps = 16, .seed = 23},
        [](std::uint64_t s) {
            return kdc::core::d_choice_process(200, 3, s);
        }));
    const auto fixed = run_sweep(cells, {});
    sweep_options options;
    options.stopping = confidence_width_rule(/*ci_half_width=*/1.0,
                                             /*min_reps=*/2);
    const auto adaptive = run_sweep(cells, options);
    ASSERT_EQ(adaptive.size(), 1u);
    const auto& fixed_reps = fixed[0].result.reps;
    const auto& adaptive_reps = adaptive[0].result.reps;
    ASSERT_LE(adaptive_reps.size(), fixed_reps.size());
    ASSERT_GE(adaptive_reps.size(), 2u);
    for (std::size_t r = 0; r < adaptive_reps.size(); ++r) {
        EXPECT_EQ(adaptive_reps[r].max_load, fixed_reps[r].max_load) << r;
        EXPECT_EQ(adaptive_reps[r].gap, fixed_reps[r].gap) << r;
        EXPECT_EQ(adaptive_reps[r].messages, fixed_reps[r].messages) << r;
    }
}

TEST(SweepEngine, ExceptionUnderAdaptiveRulePropagatesAndPoolSurvives) {
    const std::vector<std::uint32_t> reps{32};
    thread_pool pool(4);
    const auto rule = confidence_width_rule(/*ci_half_width=*/1e-12,
                                            /*min_reps=*/2, /*max_reps=*/32);
    EXPECT_THROW(
        (void)run_engine_grid<double>(
            pool, reps,
            [](std::size_t, std::uint32_t rep) -> double {
                if (rep >= 6) {
                    throw std::runtime_error("mid-run failure");
                }
                return static_cast<double>(rep);
            },
            [](std::size_t, const double& value) { return value; }, rule),
        std::runtime_error);
    // The engine drained before rethrowing; the pool keeps working.
    const auto grid = run_engine_grid<double>(
        pool, reps, [](std::size_t, std::uint32_t rep) {
            return static_cast<double>(rep);
        },
        [](std::size_t, const double& value) { return value; }, fixed_reps_rule());
    EXPECT_EQ(grid[0].size(), 32u);
}

TEST(SweepEngine, ThrowingMetricIsCapturedLikeAFailingRepetition) {
    const std::vector<std::uint32_t> reps{8};
    thread_pool pool(2);
    const auto rule = confidence_width_rule(/*ci_half_width=*/0.5,
                                            /*min_reps=*/2, /*max_reps=*/8);
    EXPECT_THROW((void)run_engine_grid<double>(
                     pool, reps,
                     [](std::size_t, std::uint32_t rep) {
                         return static_cast<double>(rep);
                     },
                     [](std::size_t, const double&) -> double {
                         throw std::runtime_error("metric failed");
                     },
                     rule),
                 std::runtime_error);
}

TEST(SweepEngine, ResolvesCellPlans) {
    const auto fixed = resolve_cell_plan(fixed_reps_rule(), 12);
    EXPECT_EQ(fixed.first_chunk, 12u);
    EXPECT_EQ(fixed.max_reps, 12u);
    EXPECT_FALSE(fixed.adaptive);

    const auto adaptive =
        resolve_cell_plan(confidence_width_rule(0.5, 6, 40), 12);
    EXPECT_TRUE(adaptive.adaptive);
    EXPECT_EQ(adaptive.first_chunk, 6u);
    EXPECT_EQ(adaptive.max_reps, 40u);
    EXPECT_EQ(adaptive.chunk, 3u); // default: max(1, floor / 2)

    // Defaults: floor 3, cap = configured reps.
    const auto defaults = resolve_cell_plan(confidence_width_rule(0.5), 10);
    EXPECT_EQ(defaults.first_chunk, 3u);
    EXPECT_EQ(defaults.max_reps, 10u);

    // A floor above the cap clamps to the cap (single chunk).
    const auto clamped =
        resolve_cell_plan(confidence_width_rule(0.5, 8), 4);
    EXPECT_EQ(clamped.first_chunk, 4u);
    EXPECT_EQ(clamped.max_reps, 4u);
}

TEST(SweepEngine, RejectsInvalidRules) {
    stopping_rule rule;
    rule.mode = stopping_mode::confidence_width;
    rule.ci_half_width = 0.0; // must be positive
    EXPECT_THROW(kdc::core::validate_stopping_rule(rule),
                 kdc::contract_violation);
    EXPECT_THROW((void)confidence_width_rule(-1.0), kdc::contract_violation);
    EXPECT_THROW((void)confidence_width_rule(0.5, 1), // floor below 2
                 kdc::contract_violation);
    EXPECT_THROW((void)confidence_width_rule(0.5, 8, 4), // floor > cap
                 kdc::contract_violation);
    EXPECT_NO_THROW(kdc::core::validate_stopping_rule(fixed_reps_rule()));
}

TEST(SweepEngine, RelativeWidthRuleScalesTheTargetWithTheMean) {
    // Same spread, very different means: a mean-scaled target stops the
    // large-mean cell early while the small-mean cell has to keep going.
    kdc::stats::running_stats small_mean;
    kdc::stats::running_stats large_mean;
    for (const double deviation : {-1.0, 1.0, -1.0, 1.0}) {
        small_mean.push(2.0 + deviation);
        large_mean.push(1000.0 + deviation);
    }
    const auto rule = kdc::core::relative_width_rule(/*ci_rel=*/0.05);
    EXPECT_FALSE(confidence_reached(small_mean, rule)); // 0.05*2 is tiny
    EXPECT_TRUE(confidence_reached(large_mean, rule));  // 0.05*1000 = 50

    // The absolute rule with the same nominal number reads it as an
    // absolute half-width and treats both cells identically.
    const auto absolute = confidence_width_rule(0.05);
    EXPECT_FALSE(confidence_reached(small_mean, absolute));
    EXPECT_FALSE(confidence_reached(large_mean, absolute));
}

TEST(SweepEngine, RelativeWidthRuleIsValidatedLikeTheAbsoluteOne) {
    EXPECT_THROW((void)kdc::core::relative_width_rule(0.0),
                 kdc::contract_violation);
    EXPECT_THROW((void)kdc::core::relative_width_rule(-0.1),
                 kdc::contract_violation);
    // Exactly one target: both set (or neither) is invalid.
    stopping_rule both;
    both.mode = stopping_mode::confidence_width;
    both.ci_half_width = 0.5;
    both.ci_rel = 0.1;
    EXPECT_THROW(kdc::core::validate_stopping_rule(both),
                 kdc::contract_violation);
    stopping_rule neither;
    neither.mode = stopping_mode::confidence_width;
    EXPECT_THROW(kdc::core::validate_stopping_rule(neither),
                 kdc::contract_violation);
    EXPECT_NO_THROW(kdc::core::validate_stopping_rule(
        kdc::core::relative_width_rule(0.1, 2, 40)));
}

TEST(SweepEngine, StoppingRuleFromCliReadsCiRel) {
    auto parse_rule = [](std::vector<const char*> argv) {
        kdc::arg_parser args;
        args.add_adaptive_options();
        argv.insert(argv.begin(), "bench");
        if (!args.parse(static_cast<int>(argv.size()), argv.data())) {
            throw std::runtime_error("unexpected --help");
        }
        return kdc::core::stopping_rule_from_cli(args);
    };
    const auto relative = parse_rule({"--adaptive", "--ci-rel=0.1"});
    EXPECT_EQ(relative.mode, stopping_mode::confidence_width);
    EXPECT_DOUBLE_EQ(relative.ci_rel, 0.1);
    EXPECT_DOUBLE_EQ(relative.ci_half_width, 0.0);

    const auto absolute = parse_rule({"--adaptive", "--ci-width=0.4"});
    EXPECT_DOUBLE_EQ(absolute.ci_half_width, 0.4);
    EXPECT_DOUBLE_EQ(absolute.ci_rel, 0.0);

    // Validation mirrors --ci-width: garbage, zero, negative and
    // non-finite values are precise cli_errors, and the two targets are
    // mutually exclusive.
    EXPECT_THROW((void)parse_rule({"--adaptive", "--ci-rel=abc"}),
                 kdc::cli_error);
    EXPECT_THROW((void)parse_rule({"--adaptive", "--ci-rel=0"}),
                 kdc::cli_error);
    EXPECT_THROW((void)parse_rule({"--adaptive", "--ci-rel=-1"}),
                 kdc::cli_error);
    EXPECT_THROW((void)parse_rule({"--adaptive", "--ci-rel=inf"}),
                 kdc::cli_error);
    EXPECT_THROW((void)parse_rule({"--adaptive", "--ci-rel=1e999"}),
                 kdc::cli_error);
    EXPECT_THROW(
        (void)parse_rule({"--adaptive", "--ci-rel=0.1", "--ci-width=0.4"}),
        kdc::cli_error);
}

TEST(SweepEngine, PerCellMetricDrivesAdaptiveStopping) {
    // Two identical cells except for the monitored metric: the max-load
    // monitor sees zero spread (every rep hits the same max load) and
    // stops at the floor; the messages monitor sees the same constancy
    // too, but a gap monitor with a wide target also stops at the floor —
    // exercise that the per-cell dispatch actually reads cell.metric.
    using kdc::core::make_scenario_cell;
    using kdc::core::parse_scenario;
    const auto max_cell = make_scenario_cell(
        "max", parse_scenario("single:n=64,metric=max_load,kernel=perbin"),
        {.balls = 64, .reps = 12, .seed = 5});
    auto gap_sc = parse_scenario("single:n=64,metric=gap,kernel=perbin");
    const auto gap_cell = make_scenario_cell(
        "gap", gap_sc, {.balls = 64, .reps = 12, .seed = 5});
    EXPECT_EQ(max_cell.metric, kdc::core::metric_kind::max_load);
    EXPECT_EQ(gap_cell.metric, kdc::core::metric_kind::gap);

    sweep_options options;
    options.threads = 2;
    options.stopping = confidence_width_rule(/*ci_half_width=*/1e9, 2, 12);
    const auto outcomes =
        run_sweep({max_cell, gap_cell}, options);
    ASSERT_EQ(outcomes.size(), 2u);
    // A huge target stops both at the floor; the point is that dispatch
    // through different metrics runs without touching the wrong field.
    EXPECT_EQ(outcomes[0].result.reps.size(), 2u);
    EXPECT_EQ(outcomes[1].result.reps.size(), 2u);
    // monitored_value itself picks the right field.
    kdc::core::repetition_result rep;
    rep.max_load = 7;
    rep.gap = 2.5;
    rep.messages = 99;
    EXPECT_DOUBLE_EQ(
        monitored_value(kdc::core::metric_kind::max_load, rep), 7.0);
    EXPECT_DOUBLE_EQ(monitored_value(kdc::core::metric_kind::gap, rep), 2.5);
    EXPECT_DOUBLE_EQ(
        monitored_value(kdc::core::metric_kind::messages, rep), 99.0);
}

TEST(SweepEngine, ProgressTotalIsTheCapAndCompletionMayStopShort) {
    // Adaptive progress reports against the maximum possible job count; a
    // cell that stops early simply never reaches it.
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    const std::vector<std::uint32_t> reps{6};
    thread_pool pool(2);
    const auto rule = confidence_width_rule(/*ci_half_width=*/100.0,
                                            /*min_reps=*/2, /*max_reps=*/6);
    const auto grid = run_engine_grid<double>(
        pool, reps,
        [](std::size_t, std::uint32_t rep) {
            return static_cast<double>(rep % 2);
        },
        [](std::size_t, const double& value) { return value; }, rule,
        [&calls](std::size_t done, std::size_t total) {
            calls.emplace_back(done, total);
        });
    EXPECT_EQ(grid[0].size(), 2u); // generous target: stop at the floor
    ASSERT_EQ(calls.size(), 2u);
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].first, i + 1);
        EXPECT_EQ(calls[i].second, 6u); // the cap, not the executed count
    }
}

} // namespace

// Cross-cell sweep layer of the execution engine: runs a whole parameter
// grid — many named experiment cells, each with its own repetition count —
// on ONE shared thread pool, instead of parallelizing only within a cell.
// A one-cell sweep is the parallel form of run_experiment.
//
// The paper's headline artifacts (Table 1 over the (k,d) grid, the tradeoff
// frontier, the d*k = Theta(log n) landmark sweeps) are grids of independent
// cells; scheduling every (cell, rep) pair onto one pool keeps all hardware
// threads busy even when individual cells have few repetitions. The
// scheduling core (chunked dispatch + pluggable stopping rules) is
// core/engine.hpp; this layer adds named cells, repetition_result folding
// and shared table/CSV emission.
//
// Determinism contract, inherited from core/engine.hpp: repetition r of a
// cell always runs with rng::derive_seed(cell.config.seed, r), each cell's
// repetitions are folded in repetition order, and adaptive stopping
// decisions are taken on those rep-order folds at deterministic chunk
// boundaries. The returned outcomes — including how many repetitions an
// adaptive rule executed — are therefore bit-identical at any thread count,
// in whatever order the jobs finish.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/runner.hpp"
#include "core/thread_pool.hpp"
#include "support/row_emitter.hpp"

namespace kdc::core {

/// One named cell of a sweep: an experiment configuration plus a type-erased
/// per-repetition runner. `run_rep(derived_seed)` receives the already
/// derived seed for its repetition and must be callable concurrently.
/// `metric` selects the per-repetition statistic an adaptive stopping rule
/// monitors for THIS cell (cells of one sweep may monitor different
/// metrics; fixed_reps ignores it).
struct sweep_cell {
    std::string name;
    experiment_config config;
    std::function<repetition_result(std::uint64_t derived_seed)> run_rep;
    metric_kind metric = metric_kind::max_load;
};

/// Builds a sweep_cell from a process factory (the same factory shape
/// run_experiment accepts). The factory must be const-callable:
/// repetitions of the cell invoke it concurrently. config.balls must be the
/// resolved ball count (>= 1); use whole_rounds_balls for the k-round
/// default.
template <typename Factory>
[[nodiscard]] sweep_cell make_sweep_cell(std::string name,
                                         const experiment_config& config,
                                         Factory factory) {
    KD_EXPECTS(config.reps >= 1);
    KD_EXPECTS(config.balls >= 1);
    return sweep_cell{
        std::move(name), config,
        [factory = std::move(factory),
         balls = config.balls](std::uint64_t derived_seed) {
            return run_one_repetition(derived_seed, balls, factory);
        }};
}

/// One cell's folded outcome. Under fixed_reps, `result` is bit-identical
/// to run_experiment(config, factory) on the same cell; under an adaptive
/// rule, result.reps.size() reports how many repetitions the stopping rule
/// actually executed (between the rule's floor and cap).
struct sweep_outcome {
    std::string name;
    experiment_config config;
    experiment_result result;
};

/// Options shared by both run_sweep overloads.
struct sweep_options {
    /// Worker threads for the pool-owning overload, resolved by
    /// resolve_thread_count (0 = all hardware threads) and applied to the
    /// process-wide persistent pool. Ignored by the caller-pool overload.
    unsigned threads = 0;
    /// Stopping rule applied to every cell; fixed_reps by default. Under
    /// confidence_width the monitored statistic is the per-repetition
    /// maximum load.
    stopping_rule stopping;
    sweep_progress progress;
};

/// Runs every cell of the grid on the caller's pool under options.stopping
/// and folds each cell in repetition order (options.threads is ignored —
/// the pool is already sized). Sharing one pool across successive sweeps
/// (e.g. the two ablation phases of a bench) avoids re-spawning workers.
/// Must be called from outside the pool's own workers.
[[nodiscard]] std::vector<sweep_outcome>
run_sweep(thread_pool& pool, const std::vector<sweep_cell>& cells,
          const sweep_options& options = {});

/// Convenience overload: runs the grid on the process-wide persistent pool
/// sized by options.threads — consecutive calls in one process reuse the
/// same workers. An empty grid returns an empty vector without touching the
/// pool.
[[nodiscard]] std::vector<sweep_outcome>
run_sweep(const std::vector<sweep_cell>& cells,
          const sweep_options& options = {});

/// Structured emission for sweep outcomes: the generic row_emitter over
/// sweep_outcome rows (declare columns once, render the same rows as an
/// aligned text table and/or CSV — see support/row_emitter.hpp) plus the
/// canned columns every sweep bench shares. The add_* shadows only restore
/// the derived return type so chains can keep mixing generic and canned
/// columns.
class sweep_emitter : public row_emitter<sweep_outcome> {
public:
    sweep_emitter& add_column(std::string header, value_fn value,
                              table_align align = table_align::right) {
        row_emitter::add_column(std::move(header), std::move(value), align);
        return *this;
    }

    sweep_emitter& add_stat_column(
        std::string header,
        std::function<double(const sweep_outcome&)> stat,
        int precision = 2) {
        row_emitter::add_stat_column(std::move(header), std::move(stat),
                                     precision);
        return *this;
    }

    /// Canned column: the cell name (left-aligned by convention).
    sweep_emitter& add_name_column(std::string header = "cell");

    /// Canned column: the paper's Table-1 "distinct max loads" set.
    sweep_emitter& add_max_load_set_column(
        std::string header = "max loads seen");

    /// Canned column: how many repetitions the cell executed — the
    /// interesting number under an adaptive stopping rule.
    sweep_emitter& add_reps_column(std::string header = "reps");
};

} // namespace kdc::core

// Experiment-level entry points of the execution engine.
//
// Repetitions of an experiment are embarrassingly parallel: rep r depends
// only on derive_seed(master, r), never on rep r-1. run_parallel_experiment
// fans the reps of one experiment_config out across the process-wide
// persistent pool (core/thread_pool.hpp), then folds the per-repetition
// results into the aggregate *in repetition order*. Because both the
// per-rep seeds and the fold order are independent of the thread count, the
// returned experiment_result is bit-identical to the serial run_experiment
// — at 1, 8, or 64 threads. That is the property the Table-1 / frontier
// sweeps rely on: `--threads` changes wall-clock time only, never a
// reported number.
//
// The scheduling core (chunked dispatch + pluggable stopping rules) lives
// in core/engine.hpp; core/sweep.hpp builds named multi-cell sweeps and
// shared emission on the same engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/runner.hpp"
#include "core/thread_pool.hpp"

namespace kdc::core {

/// Fixed-size grid primitive: runs reps_per_cell[c] jobs for every cell c
/// on the shared pool and returns the per-cell, per-rep results in a
/// grid[cell][rep] layout. `run(cell, rep)` must be callable concurrently
/// from many threads and is invoked exactly once per pair, in no particular
/// order; the *placement* of results is by index, so folding grid[c] in rep
/// order afterwards is deterministic. Rethrows the first exception any job
/// (or the progress hook) threw — the grid still runs to completion so the
/// pool is quiescent on return.
///
/// This is the engine's fixed_reps mode; pass a stopping rule to
/// run_engine_grid directly for adaptive repetition counts.
template <typename T, typename RunFn>
[[nodiscard]] std::vector<std::vector<T>>
run_grid(thread_pool& pool, std::span<const std::uint32_t> reps_per_cell,
         RunFn&& run, const sweep_progress& progress = {}) {
    return run_engine_grid<T>(
        pool, reps_per_cell, std::forward<RunFn>(run),
        // metric unused under fixed_reps
        [](std::size_t, const T&) { return 0.0; }, fixed_reps_rule(),
        progress);
}

/// Parallel counterpart of run_experiment: the one-cell grid, run on the
/// process-wide persistent pool (consecutive calls reuse the same workers).
/// The factory must be callable concurrently from multiple threads (every
/// factory in this repo is: it only captures experiment parameters by
/// value). `threads` = 0 uses all hardware threads.
///
/// Guarantee: the result — reps vector, histogram, and every running_stats
/// aggregate — is bit-identical to run_experiment(config, factory).
template <typename Factory>
[[nodiscard]] experiment_result
run_parallel_experiment(const experiment_config& config, Factory&& factory,
                        unsigned threads = 0) {
    KD_EXPECTS(config.reps >= 1);
    KD_EXPECTS(config.balls >= 1);

    thread_pool& pool = persistent_pool(threads);
    const std::uint32_t one_cell[1]{config.reps};
    auto grid = run_grid<repetition_result>(
        pool, one_cell, [&](std::size_t, std::uint32_t rep) {
            return run_one_repetition(rng::derive_seed(config.seed, rep),
                                      config.balls, factory);
        });

    // Fold in repetition order: running_stats and the histogram see exactly
    // the sequence the serial runner feeds them, so aggregates match bitwise.
    experiment_result out;
    out.reps = std::move(grid[0]);
    for (const auto& r : out.reps) {
        accumulate_repetition(out, r);
    }
    return out;
}

} // namespace kdc::core

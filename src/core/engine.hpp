// Adaptive-precision execution engine: run_engine_grid is the one grid
// entry point, behind run_sweep and every bench with a custom per-rep
// payload.
//
// Every experiment in this repo is a grid of cells, each cell a sequence of
// independent repetitions (rep r of a cell depends only on its derived
// seed). The engine schedules a cell's repetitions in deterministic CHUNKS
// on the shared thread pool and, between chunks, consults a pluggable
// STOPPING RULE:
//
//   * fixed_reps — run exactly the configured repetition count. One chunk,
//     byte-identical to the pre-engine runners.
//   * confidence_width — keep adding chunks until the Student-t confidence
//     interval for the mean of a monitored per-rep statistic (the max load,
//     for the standard runners) is narrower than a target half-width, or a
//     repetition cap is hit. Cells whose variance is low stop at the floor;
//     high-variance cells buy precision with more repetitions instead of
//     every cell paying a blindly chosen worst-case count.
//
// Determinism contract: repetitions are folded — and stopping decisions are
// taken — in repetition order at chunk boundaries only. Chunk boundaries
// depend on the rule and the folded values, never on the thread count or
// the order in which jobs finish, so the executed repetition counts AND
// every reported number are bit-identical at --threads=1 and --threads=64.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "stats/running_stats.hpp"
#include "support/contracts.hpp"

namespace kdc {
class arg_parser;
} // namespace kdc

namespace kdc::core {

/// Optional progress hook for grid runs: called after every finished
/// (cell, rep) job with the number of completed jobs and the grid's maximum
/// possible job count. Calls are serialized by an internal mutex and
/// `completed` is strictly increasing, but they come from worker threads —
/// write to stderr, never to the stream carrying the run's deterministic
/// output. Under an adaptive rule cells may stop early, so the final
/// `completed` can be below `total`.
using sweep_progress =
    std::function<void(std::size_t completed, std::size_t total)>;

/// Which stopping rule governs a run's repetition counts.
enum class stopping_mode {
    fixed_reps,       ///< exactly the configured reps (legacy behavior)
    confidence_width, ///< reps until the CI half-width target is met
};

/// The pluggable stopping rule. Zero-valued fields mean "use the default":
/// min_reps 0 -> 3, max_reps 0 -> the cell's configured repetition count.
/// After the first min_reps, an adaptive cell schedules max(1, min_reps / 2)
/// reps per chunk. All fields are ignored under fixed_reps except mode
/// itself.
struct stopping_rule {
    stopping_mode mode = stopping_mode::fixed_reps;
    /// confidence_width: stop once the 95% Student-t CI half-width of the
    /// monitored statistic's mean is <= this. Must be positive and finite
    /// (unless ci_rel carries the target instead).
    double ci_half_width = 0.0;
    /// Relative (mean-scaled) alternative to ci_half_width: when > 0 the
    /// target half-width is ci_rel * |mean of the monitored statistic|,
    /// re-evaluated at every chunk boundary. Exactly one of ci_half_width
    /// and ci_rel must be set under confidence_width.
    double ci_rel = 0.0;
    std::uint32_t min_reps = 0;   ///< floor before any stop decision (>= 2)
    std::uint32_t max_reps = 0;   ///< hard cap; 0 = the cell's configured reps
};

/// Convenience factories for the two modes.
[[nodiscard]] stopping_rule fixed_reps_rule() noexcept;
[[nodiscard]] stopping_rule
confidence_width_rule(double ci_half_width, std::uint32_t min_reps = 0,
                      std::uint32_t max_reps = 0);
/// The mean-scaled variant: stop once the CI half-width is <= ci_rel times
/// the monitored mean's magnitude.
[[nodiscard]] stopping_rule
relative_width_rule(double ci_rel, std::uint32_t min_reps = 0,
                    std::uint32_t max_reps = 0);

/// Validates rule invariants (exactly one positive finite width target,
/// min <= max where both are given); throws contract_violation otherwise.
void validate_stopping_rule(const stopping_rule& rule);

/// Builds a stopping_rule from the standard CLI options declared by
/// arg_parser::add_adaptive_options() (--adaptive, --ci-width, --min-reps,
/// --max-reps). Throws cli_error with a precise message on out-of-range
/// values; returns the fixed_reps rule when --adaptive is absent.
[[nodiscard]] stopping_rule stopping_rule_from_cli(const arg_parser& args);

/// A cell's resolved repetition schedule under a rule: run `first_chunk`
/// reps, then decide/extend by `chunk` reps at a time up to `max_reps`.
struct cell_plan {
    std::uint32_t first_chunk = 0;
    std::uint32_t chunk = 0;
    std::uint32_t max_reps = 0;
    bool adaptive = false;
};

/// Resolves a rule against one cell's configured repetition count.
[[nodiscard]] cell_plan resolve_cell_plan(const stopping_rule& rule,
                                          std::uint32_t configured_reps);

/// True once the monitored fold satisfies the confidence_width target
/// (Student-t half-width of the mean <= rule.ci_half_width). Requires at
/// least two folded samples.
[[nodiscard]] bool confidence_reached(const stats::running_stats& monitor,
                                      const stopping_rule& rule);

namespace detail {

/// Shared bookkeeping of one engine run. Pool jobs must not throw, so the
/// engine captures the first exception and rethrows after the grid drains.
struct engine_control {
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::size_t completed_jobs = 0; // guarded by progress_mutex
    std::mutex progress_mutex;

    void capture_error() {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
            first_error = std::current_exception();
        }
    }

    [[nodiscard]] bool failed() {
        const std::lock_guard<std::mutex> lock(error_mutex);
        return first_error != nullptr;
    }
};

/// One cell's adaptive state. The mutex serializes chunk-boundary folds and
/// the scheduling of follow-up chunks; repetition slots themselves are
/// written lock-free (each slot by exactly one job).
struct cell_control {
    std::mutex mutex;
    std::uint32_t scheduled = 0; ///< reps submitted so far
    std::uint32_t done = 0;      ///< reps finished among scheduled
    std::uint32_t folded = 0;    ///< reps folded into the monitor
    stats::running_stats monitor;
    bool stopped = false;
    std::uint32_t final_reps = 0;
};

} // namespace detail

/// The engine core: runs every cell of the grid under `rule` on the
/// caller's pool and returns the per-cell, per-rep results in a
/// grid[cell][rep] layout, grid[c] truncated to the repetitions the rule
/// actually executed (always reps_per_cell[c] under fixed_reps).
///
/// `run(cell, rep)` must be callable concurrently from many threads and is
/// invoked at most once per pair; the placement of results is by index, so
/// folding grid[c] in rep order afterwards is deterministic.
/// `metric(cell, T)` maps one repetition's payload to the double the
/// confidence_width rule monitors — the cell index lets callers monitor a
/// different statistic per cell (core/sweep.hpp dispatches on each cell's
/// metric_kind); it is only invoked (in repetition order, at chunk
/// boundaries) under that rule, and must be const-callable concurrently —
/// distinct cells fold their chunks independently. Rethrows the first
/// exception any job, metric or progress hook threw — scheduled jobs still run to completion (no new
/// chunks start) so the pool is quiescent on return.
///
/// Must be called from outside the pool's own workers.
template <typename T, typename RunFn, typename MetricFn>
[[nodiscard]] std::vector<std::vector<T>>
run_engine_grid(thread_pool& pool,
                std::span<const std::uint32_t> reps_per_cell, RunFn&& run,
                MetricFn&& metric, const stopping_rule& rule = {},
                const sweep_progress& progress = {}) {
    // std::vector<bool> packs bits: adjacent rep slots would share a byte
    // and concurrent writes from workers would race. Wrap bools in a struct.
    static_assert(!std::is_same_v<T, bool>,
                  "run_engine_grid<bool> is unsafe: vector<bool> slots are "
                  "not independent objects");
    validate_stopping_rule(rule);

    const std::size_t cell_count = reps_per_cell.size();
    std::vector<cell_plan> plans;
    plans.reserve(cell_count);
    std::vector<std::vector<T>> grid(cell_count);
    std::size_t total = 0;
    for (std::size_t c = 0; c < cell_count; ++c) {
        KD_EXPECTS_MSG(reps_per_cell[c] >= 1,
                       "every grid cell needs at least one repetition");
        plans.push_back(resolve_cell_plan(rule, reps_per_cell[c]));
        // Slots exist only for scheduled chunks (the cap may be huge, e.g.
        // --max-reps=1e9 with an easily met width target); the vector grows
        // at chunk boundaries, where no worker holds a pointer into it.
        grid[c].resize(plans[c].first_chunk);
        total += plans[c].max_reps;
    }

    detail::engine_control control;
    std::vector<std::unique_ptr<detail::cell_control>> cells(cell_count);
    for (auto& cell : cells) {
        cell = std::make_unique<detail::cell_control>();
    }

    // submit_chunk / on_rep_done recurse through the pool: the last rep of a
    // chunk folds the chunk and may submit the next one from inside its own
    // pool job, which thread_pool::submit supports.
    std::function<void(std::size_t, std::uint32_t, std::uint32_t)>
        submit_chunk;
    auto on_rep_done = [&](std::size_t c) {
        auto& cell = *cells[c];
        const std::lock_guard<std::mutex> lock(cell.mutex);
        ++cell.done;
        if (cell.done != cell.scheduled || cell.stopped) {
            return; // mid-chunk, or a straggler after an error stop
        }
        // Chunk boundary: every scheduled rep of this cell has finished.
        const auto& plan = plans[c];
        if (control.failed()) {
            cell.stopped = true;
            cell.final_reps = cell.done;
            return;
        }
        if (plan.adaptive) {
            // Pool jobs must not throw: a failing metric, stop decision or
            // chunk allocation is captured like a failing repetition.
            try {
                for (std::uint32_t r = cell.folded; r < cell.scheduled; ++r) {
                    cell.monitor.push(metric(c, std::as_const(grid[c][r])));
                }
                cell.folded = cell.scheduled;
                if (cell.scheduled >= plan.max_reps ||
                    confidence_reached(cell.monitor, rule)) {
                    cell.stopped = true;
                    cell.final_reps = cell.scheduled;
                    return;
                }
                const std::uint32_t next = std::min<std::uint32_t>(
                    plan.max_reps, cell.scheduled + plan.chunk);
                // Safe to grow here: every scheduled rep of this cell is
                // done, so no worker writes (or reads) this cell's slots
                // concurrently, and pool submission orders the resize
                // before the new jobs.
                grid[c].resize(next);
                submit_chunk(c, cell.scheduled, next);
                cell.scheduled = next;
            } catch (...) {
                control.capture_error();
                cell.stopped = true;
                cell.final_reps = cell.done;
                return;
            }
        } else {
            cell.stopped = true;
            cell.final_reps = cell.scheduled;
        }
    };
    submit_chunk = [&](std::size_t c, std::uint32_t from, std::uint32_t to) {
        for (std::uint32_t rep = from; rep < to; ++rep) {
            pool.submit([&, c, rep] {
                try {
                    grid[c][rep] = run(c, rep);
                } catch (...) {
                    control.capture_error();
                }
                if (progress) {
                    // Pool jobs must not throw; a throwing hook is captured
                    // like a failing repetition.
                    try {
                        const std::lock_guard<std::mutex> lock(
                            control.progress_mutex);
                        progress(++control.completed_jobs, total);
                    } catch (...) {
                        control.capture_error();
                    }
                }
                on_rep_done(c);
            });
        }
    };

    // First chunks go out in cell order — under fixed_reps this is exactly
    // the legacy cell-major submission of every (cell, rep) pair.
    for (std::size_t c = 0; c < cell_count; ++c) {
        cells[c]->scheduled = plans[c].first_chunk;
    }
    for (std::size_t c = 0; c < cell_count; ++c) {
        submit_chunk(c, 0, cells[c]->scheduled);
    }
    pool.wait_idle();

    if (control.first_error) {
        std::rethrow_exception(control.first_error);
    }
    for (std::size_t c = 0; c < cell_count; ++c) {
        grid[c].resize(cells[c]->final_reps);
    }
    return grid;
}

} // namespace kdc::core

// Generic multi-repetition experiment runner. The paper's Table 1 reports,
// per (k,d) cell, the set of maximum loads observed over ten simulation runs;
// this runner generalizes that: it runs `reps` independent repetitions of any
// allocation process (independent seeds derived from one master seed via
// SplitMix64), collects per-repetition metrics, and aggregates them.
//
// This serial runner is the semantic reference for the whole execution
// stack: core/engine.hpp (chunked scheduling + stopping rules on the
// persistent pool of core/thread_pool.hpp) and core/sweep.hpp (named
// multi-cell sweeps) promise results bit-identical to folding
// run_one_repetition outputs in repetition order exactly as run_experiment
// below does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "rng/splitmix64.hpp"
#include "stats/histogram.hpp"
#include "stats/running_stats.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

/// How an experiment exploits worker threads:
///   * rep — repetition-level parallelism (the default, and the only mode
///     before the sharded kernel existed): every repetition is a serial
///     process; different repetitions run on different workers.
///   * round — intra-repetition round parallelism: each repetition runs on
///     the sharded round-parallel kernel (core/sharded_kernel.hpp), whose
///     phases execute across the pool. Output is byte-identical to the
///     serial kernel — and therefore to par=rep — at every thread count
///     and shard count.
enum class par_mode { rep, round };

/// Short name for labels and scenario strings: "rep" or "round".
[[nodiscard]] const char* par_mode_name(par_mode mode) noexcept;

/// Inverse of par_mode_name. Throws cli_error naming the valid set on any
/// other spelling.
[[nodiscard]] par_mode par_mode_from_name(const std::string& name);

/// Configuration for a repetition sweep.
struct experiment_config {
    std::uint64_t balls = 0;  ///< balls to place per repetition
    std::uint32_t reps = 10;  ///< Table 1 uses ten runs per cell
    std::uint64_t seed = 1;   ///< master seed; rep r uses derive_seed(seed, r)
};

/// Per-repetition observations.
struct repetition_result {
    std::uint64_t max_load = 0;
    double gap = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t empty_bins = 0;
};

/// Which per-repetition statistic a cell reports as its headline number and
/// the adaptive stopping rule monitors (core/engine.hpp). Max load is the
/// paper's Table-1 quantity; gap (max - mean) suits the heavily loaded and
/// weighted regimes; messages suits the adaptive-probing baselines whose
/// message cost is itself random.
enum class metric_kind { max_load, gap, messages };

/// Short name for labels, CSV cells and scenario strings: "max_load",
/// "gap" or "messages".
[[nodiscard]] const char* metric_name(metric_kind metric) noexcept;

/// Inverse of metric_name. Throws cli_error naming the valid set on any
/// other spelling.
[[nodiscard]] metric_kind metric_from_name(const std::string& name);

/// The monitored statistic of one repetition under a metric choice.
[[nodiscard]] inline double monitored_value(metric_kind metric,
                                            const repetition_result& rep) {
    switch (metric) {
    case metric_kind::gap:
        return rep.gap;
    case metric_kind::messages:
        return static_cast<double>(rep.messages);
    case metric_kind::max_load:
        break;
    }
    return static_cast<double>(rep.max_load);
}

/// Aggregate over all repetitions.
struct experiment_result {
    std::vector<repetition_result> reps;
    stats::integer_histogram max_load_values;
    stats::running_stats max_load_stats;
    stats::running_stats gap_stats;
    stats::running_stats message_stats;

    /// The paper's Table-1 cell format: distinct max loads, e.g. "7, 8, 9".
    [[nodiscard]] std::string max_load_set() const {
        return max_load_values.support_string();
    }
};

/// Final-state load metrics of a process under either state representation:
/// an O(L) read of the level profile when the process exposes one, else the
/// O(n) pass over per-bin loads.
template <typename P>
    requires per_bin_observable<P> || level_observable<P>
[[nodiscard]] load_metrics observed_load_metrics(const P& process) {
    if constexpr (level_observable<P>) {
        return process.profile().metrics();
    } else {
        return compute_load_metrics(process.loads());
    }
}

/// Runs one repetition with the given (already derived) seed and returns its
/// observations. Shared by run_experiment and make_sweep_cell so both
/// measure exactly the same thing.
template <typename Factory>
[[nodiscard]] repetition_result
run_one_repetition(std::uint64_t derived_seed, std::uint64_t balls,
                   Factory& factory) {
    auto process = factory(derived_seed);
    static_assert(allocation_process<decltype(process)>);
    process.run_balls(balls);

    const auto metrics = observed_load_metrics(process);
    repetition_result r;
    r.max_load = metrics.max_load;
    r.gap = metrics.gap;
    r.messages = process.messages();
    r.empty_bins = metrics.empty_bins;
    return r;
}

/// Folds one repetition into the aggregate statistics (the rep must already
/// be appended to / owned by out.reps by the caller). Fold order is part of
/// the determinism contract: both runners fold in repetition order.
inline void accumulate_repetition(experiment_result& out,
                                  const repetition_result& r) {
    out.max_load_values.add(r.max_load);
    out.max_load_stats.push(static_cast<double>(r.max_load));
    out.gap_stats.push(r.gap);
    out.message_stats.push(static_cast<double>(r.messages));
}

/// Runs `config.reps` repetitions. `factory(seed)` must return a fresh
/// process satisfying the allocation_process concept.
template <typename Factory>
[[nodiscard]] experiment_result run_experiment(const experiment_config& config,
                                               Factory&& factory) {
    KD_EXPECTS(config.reps >= 1);
    KD_EXPECTS(config.balls >= 1);

    experiment_result out;
    out.reps.reserve(config.reps);
    for (std::uint32_t rep = 0; rep < config.reps; ++rep) {
        out.reps.push_back(run_one_repetition(rng::derive_seed(config.seed, rep),
                                              config.balls, factory));
        accumulate_repetition(out, out.reps.back());
    }
    return out;
}

/// The default ball count of the round-based policies (resolved_balls in
/// core/scenario.hpp): as many balls as bins, rounded *down* to whole
/// rounds of k (the process only places whole rounds). Rejects n < k,
/// where not even one round fits.
[[nodiscard]] std::uint64_t whole_rounds_balls(std::uint64_t n,
                                               std::uint64_t k);

} // namespace kdc::core

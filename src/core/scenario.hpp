// The declarative scenario API: every allocation experiment this library
// can run, as ONE value.
//
// The paper's (k,d)-choice process is one point in a family — single
// choice, classic d-choice, the (1+beta) mixture, weighted balls,
// adaptive thresholds — and each of those processes is a scenario FAMILY
// of its own. A `scenario` names the family and its knobs:
//
//     scenario sc = parse_scenario("kd:n=1e6,k=2,d=4,kernel=auto");
//     any_process p = make_process(sc, seed);
//     p.run_balls(resolved_balls(sc));
//     auto obs = p.observe();
//
// One string grammar (`family:key=value,key=value,...`), one fixed POLICY
// TABLE (scenario.cpp) saying what each family builds and which keys it
// reads, and one `make_process` factory that dispatches to the right
// simulation kernel — including the level-compressed (1+beta) kernel —
// with `kernel=auto` picking the level kernel whenever the family supports
// it.
//
// Grammar
// -------
//   scenario  := [ family ":" ] [ pair ( "," pair )* ]
//   pair      := key "=" value
//   family    := kd | single | dchoice | greedy | weighted |
//                one_plus_beta | threshold; default "kd"
//   keys      := n, k, d, balls, skew, beta, threshold, cap, replacement,
//                kernel, par, shards, selpar, metric, warmup
//
//   Every family reads n, balls, replacement, kernel, par, metric and
//   warmup; shards and selpar are read under par=round only; the rest
//   belong to the families that read them (scenario_reads_key):
//
//   k, d        = kd, greedy, weighted: k of d probes per round (dchoice
//                 reads d only)
//   skew        = weighted: 0 = unit weights, s > 0 = Pareto ball
//                 weights with shape 1 + 1/s and minimum 1 (larger s =
//                 heavier tail)
//   beta        = one_plus_beta: the two-choice mixing probability, in
//                 [0, 1]
//   threshold/cap = threshold: load threshold and probe budget
//   replacement = with | without  (the paper's model is `with`; `without`
//                 is the per-bin-only ablation)
//   kernel      = perbin | level | auto  (perbin, and par=round, index
//                 bins with 32-bit ids: n < 2^32 - 1)
//   par         = rep | round  (rep = repetition-level parallelism, the
//                 default; round = the sharded round-parallel kernel of
//                 core/sharded_kernel.hpp inside each repetition —
//                 byte-identical output, "kd" family with d >= 2 and
//                 replacement=with only; per-bin only, so kernel=auto
//                 resolves to perbin and kernel=level is an error)
//   shards      = auto | N  (par=round: shard-count request, resolved via
//                 resolve_shard_count; auto sizes the shard windows to the
//                 detected L2 cache — shard_auto_config)
//   selpar      = auto | N  (par=round: selection-segment request for the
//                 per-bin sharded kernel's partitioned selection phase,
//                 resolved per chunk via resolve_selection_segments; output
//                 is byte-identical for every value)
//   metric      = max_load | gap | messages  (what adaptive stopping rules
//                 monitor for cells built from this scenario)
//   warmup      = full | ff  (full = simulate every ball, the default;
//                 ff = steady-state fast-forward, core/steady_state.hpp:
//                 synthesize the heavy warmup's load profile and simulate
//                 only a settle suffix — level kernel with
//                 replacement=with, families kd/single/dchoice/
//                 one_plus_beta only)
//
// Counts (n, k, d, balls, threshold, cap) accept scientific notation
// ("n=1e9"). Unknown keys, keys the family does not read, duplicate keys,
// malformed values and invalid combinations (e.g. kernel=level for a
// family without a level kernel) all throw kdc::cli_error with a message
// naming the valid set.
//
// Families: "kd" (the paper's process; d=1 degenerates to single-choice),
// "single", "dchoice", "greedy" (the Section 7 modified policy),
// "weighted", "one_plus_beta", "threshold".
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/sweep.hpp"
#include "support/contracts.hpp"

namespace kdc {
class arg_parser;
} // namespace kdc

namespace kdc::core {

class thread_pool;

/// A process that can run its own phases on a shared worker pool (the
/// sharded round-parallel kernel of core/sharded_kernel.hpp). The pool is
/// borrowed and must outlive the process's runs; output never depends on
/// it.
template <typename P>
concept pool_aware = requires(P p, thread_pool* pool) { p.use_pool(pool); };

/// Which simulation kernel backs a scenario's processes:
///   * per_bin — one load entry per bin (core/process.hpp). O(n) state;
///     supports per-bin observables (height logs, explicit probe multisets).
///   * level — counts of bins per load level (core/level_process.hpp).
///     O(max-load) state; distributionally identical, not bit-identical —
///     billion-bin and heavily loaded runs belong here.
///   * auto_pick — a request only: level whenever the policy supports it
///     (resolve_kernel, which never returns it).
enum class kernel_choice { per_bin, level, auto_pick };

/// Short name for labels, CSV cells and scenario strings: "perbin",
/// "level" or "auto".
[[nodiscard]] const char* kernel_choice_name(kernel_choice kernel) noexcept;

/// Parses "perbin" / "level" / "auto" — the scenario grammar's kernel=
/// values, also used by the benches' --kernel flag. Throws cli_error
/// otherwise.
[[nodiscard]] kernel_choice kernel_from_name(const std::string& text);

/// Whether a run simulates its warmup ball by ball (`full`) or jumps to a
/// synthesized steady-state profile and settles (`ff`,
/// core/steady_state.hpp).
enum class warmup_mode { full, fast_forward };

[[nodiscard]] const char* warmup_mode_name(warmup_mode warmup) noexcept;

/// Parses "full" / "ff" — the scenario grammar's warmup= values, also used
/// by the heavy benches' --warmup flag. Throws cli_error otherwise.
[[nodiscard]] warmup_mode warmup_from_name(const std::string& text);

/// The declarative scenario value. Fields the family does not read (e.g.
/// beta under "kd") are carried but ignored.
struct scenario {
    std::string family = "kd";
    std::uint64_t n = 1u << 16;
    std::uint64_t k = 1;
    std::uint64_t d = 2;
    std::uint64_t balls = 0; ///< 0 = the policy default (resolved_balls)
    double skew = 0.0;            ///< weighted: 0 = unit, s>0 = Pareto tail
    double beta = 0.5;            ///< one_plus_beta mixing probability
    std::uint64_t threshold = 2;  ///< threshold policy: load threshold
    std::uint64_t cap = 16;       ///< threshold policy: probe budget
    probe_mode replacement = probe_mode::with_replacement;
    kernel_choice kernel = kernel_choice::auto_pick;
    par_mode par = par_mode::rep;  ///< round = sharded intra-rep kernel
    std::uint64_t shards = 0;      ///< par=round shard request; 0 = auto
    std::uint64_t selpar = 0;      ///< par=round selection segments; 0 = auto
    metric_kind metric = metric_kind::max_load;
    warmup_mode warmup = warmup_mode::full; ///< ff = steady-state jump

    [[nodiscard]] bool operator==(const scenario&) const = default;
};

/// Parses the grammar above over default field values. Throws cli_error
/// with a precise message on any malformed input.
[[nodiscard]] scenario parse_scenario(std::string_view text);

/// Parses the grammar over `base`: keys present in `text` override the
/// base field, everything else is inherited — the merge benches use to let
/// `--scenario` override their legacy flags key by key. A key in `text`
/// that the merged scenario does not read is a cli_error.
[[nodiscard]] scenario parse_scenario(std::string_view text, scenario base);

/// Whether the scenario reads grammar key `key`: the keys every family
/// reads, the family's own keys from the policy table, and shards/selpar
/// under par=round. False for an unknown key or family. Allocation-free.
[[nodiscard]] bool scenario_reads_key(const scenario& sc,
                                      std::string_view key) noexcept;

/// Canonical string spelling of a scenario: the family and every key it
/// reads (scenario_reads_key), nothing else. parse_scenario round-trips it
/// whenever the unread fields hold their defaults — always true of a
/// scenario parsed over the default base.
[[nodiscard]] std::string to_string(const scenario& sc);

/// Validates the scenario against its family (parameter ranges, kernel
/// and parallelism support, 32-bit per-bin bin ids). Throws cli_error on
/// violations.
void validate_scenario(const scenario& sc);

/// Resolves kernel=auto (level whenever the family supports it, the probes
/// are with-replacement and par=rep; perbin otherwise) and rejects
/// kernel=level for families without a level kernel — the error names the
/// level-capable set — and under par=round. Returns per_bin or level,
/// never auto_pick.
[[nodiscard]] kernel_choice resolve_kernel(const scenario& sc);

/// The scenario's ball count: `balls` when set, else the family default
/// (whole rounds of k for the batch policies, n for the per-ball ones).
[[nodiscard]] std::uint64_t resolved_balls(const scenario& sc);

/// Final-state observations of a type-erased process. Doubles, so weighted
/// policies lose nothing; for integer-load policies the values are exact.
struct process_observation {
    double max_load = 0.0;
    double gap = 0.0;
    std::uint64_t empty_bins = 0;
    std::uint64_t messages = 0;
    std::uint64_t balls_placed = 0;
};

/// Converts an observation to the integer-typed repetition_result the
/// sweep/engine stack folds. Exact for every integer-load policy; weighted
/// max loads truncate toward zero in the max_load field (the gap field
/// keeps full precision).
[[nodiscard]] repetition_result
to_repetition_result(const process_observation& obs);

/// A weighted process observed per bin: double loads plus the weighted
/// max/gap accessors (core/weighted.hpp's weighted_kd_process).
template <typename P>
concept weight_per_bin_observable = requires(const P cp) {
    { cp.loads() } -> std::convertible_to<const std::vector<double>&>;
    { cp.max_load() } -> std::convertible_to<double>;
    { cp.gap() } -> std::convertible_to<double>;
};

/// A process that assembles its own process_observation — wrappers over
/// other processes (the warmup=ff fast_forwarded_process, which must fold
/// the skipped warmup into the inner kernel's counters). Checked before
/// the state-shaped concepts so a wrapper's accounting wins.
template <typename P>
concept self_observable = requires(const P cp) {
    { cp.observe() } -> std::convertible_to<process_observation>;
    { cp.sorted_loads() } -> std::convertible_to<std::vector<double>>;
};

/// Type-erased allocation process: the uniform handle make_process returns
/// for every policy and kernel. Move-only, like the processes it wraps.
class any_process {
public:
    template <typename P>
    explicit any_process(P process)
        : impl_(std::make_unique<model<P>>(std::move(process))) {}

    any_process(any_process&&) noexcept = default;
    any_process& operator=(any_process&&) noexcept = default;

    void run_balls(std::uint64_t balls) { impl_->run_balls(balls); }

    /// Hands a worker pool to pool_aware processes (nullptr detaches); a
    /// silent no-op for every other process, so callers can offer their
    /// pool unconditionally.
    void use_pool(thread_pool* pool) { impl_->use_pool(pool); }

    [[nodiscard]] process_observation observe() const {
        return impl_->observe();
    }

    /// The final sorted (descending) load vector, as doubles — O(n), for
    /// profile-shaped benches and small-n verification.
    [[nodiscard]] std::vector<double> sorted_loads() const {
        return impl_->sorted_loads();
    }

private:
    struct iface {
        virtual ~iface() = default;
        virtual void run_balls(std::uint64_t balls) = 0;
        virtual void use_pool(thread_pool* pool) = 0;
        [[nodiscard]] virtual process_observation observe() const = 0;
        [[nodiscard]] virtual std::vector<double> sorted_loads() const = 0;
    };

    template <typename P>
    struct model final : iface {
        explicit model(P process) : self(std::move(process)) {}
        void run_balls(std::uint64_t balls) override {
            self.run_balls(balls);
        }
        void use_pool(thread_pool* pool) override {
            if constexpr (pool_aware<P>) {
                self.use_pool(pool);
            } else {
                (void)pool;
            }
        }
        [[nodiscard]] process_observation observe() const override;
        [[nodiscard]] std::vector<double> sorted_loads() const override;
        P self;
    };

    std::unique_ptr<iface> impl_;
};

template <typename P>
process_observation any_process::model<P>::observe() const {
    if constexpr (self_observable<P>) {
        return self.observe();
    } else {
        process_observation obs;
        obs.messages = self.messages();
        obs.balls_placed = self.balls_placed();
        if constexpr (per_bin_observable<P> || level_observable<P>) {
            const auto m = observed_load_metrics(self);
            obs.max_load = static_cast<double>(m.max_load);
            obs.gap = m.gap;
            obs.empty_bins = m.empty_bins;
        } else {
            static_assert(weight_per_bin_observable<P>,
                          "any_process needs loads()/profile() "
                          "observability");
            obs.max_load = self.max_load();
            obs.gap = self.gap();
            std::uint64_t empty = 0;
            for (const double load : self.loads()) {
                empty += load == 0.0 ? 1 : 0;
            }
            obs.empty_bins = empty;
        }
        return obs;
    }
}

template <typename P>
std::vector<double> any_process::model<P>::sorted_loads() const {
    if constexpr (self_observable<P>) {
        return self.sorted_loads();
    } else if constexpr (per_bin_observable<P>) {
        const auto sorted = sorted_loads_desc(self.loads());
        return std::vector<double>(sorted.begin(), sorted.end());
    } else if constexpr (level_observable<P>) {
        const auto sorted = self.profile().to_sorted_loads();
        return std::vector<double>(sorted.begin(), sorted.end());
    } else {
        static_assert(weight_per_bin_observable<P>,
                      "any_process needs loads()/profile() observability");
        std::vector<double> loads(self.loads().begin(), self.loads().end());
        std::sort(loads.begin(), loads.end(), std::greater<>{});
        return loads;
    }
}

/// THE factory: validates the scenario, resolves the kernel, looks the
/// family up in the policy table and builds the process for one
/// repetition.
[[nodiscard]] any_process make_process(const scenario& sc, std::uint64_t seed);

/// One repetition of a scenario: build, run `balls` balls, observe. The
/// pool overload hands `pool` to pool_aware processes (sc.par = round)
/// before running; results are byte-identical with or without a pool.
[[nodiscard]] repetition_result
run_scenario_repetition(const scenario& sc, std::uint64_t derived_seed,
                        std::uint64_t balls);
[[nodiscard]] repetition_result
run_scenario_repetition(const scenario& sc, std::uint64_t derived_seed,
                        std::uint64_t balls, thread_pool* pool);

/// Serial multi-repetition experiment over a scenario — the scenario-typed
/// counterpart of run_experiment, bit-identical to it over the family's
/// process factory. config.balls = 0 means resolved_balls(sc).
[[nodiscard]] experiment_result
run_scenario_experiment(const scenario& sc, const experiment_config& config);

/// The intra-repetition execution mode: repetitions still run (and fold) in
/// repetition order on the calling thread, but each repetition's process is
/// offered `pool` — under par=round its sharded phases spread across the
/// workers. Byte-identical to the pool-less overload for every scenario.
[[nodiscard]] experiment_result
run_scenario_experiment(const scenario& sc, const experiment_config& config,
                        thread_pool& pool);

/// A sweep cell whose repetitions run `sc` (core/sweep.hpp), each built as
/// make_process builds it (perbin.alloc fault site and level fallback
/// included) without validating again. The cell's monitored metric is
/// sc.metric; config.balls = 0 means resolved_balls.
[[nodiscard]] sweep_cell make_scenario_cell(std::string name,
                                            const scenario& sc,
                                            experiment_config config);

/// Builds the effective scenario of a binary: parses the standard
/// `--scenario` option (arg_parser::add_scenario_option) over `base` — the
/// scenario the binary assembled from its legacy flags — so scenario keys
/// override legacy flags and everything else is inherited. An absent or
/// empty --scenario returns `base` unchanged.
[[nodiscard]] scenario scenario_from_cli(const arg_parser& args,
                                         scenario base = {});

} // namespace kdc::core

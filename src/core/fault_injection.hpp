// Deterministic fault injection: named sites at the pipeline's phase
// boundaries, armed with a plan that says WHICH site fails, HOW, and on
// WHICH hit.
//
// The simulation pipeline is deterministic by design (same seed, same
// output at any thread count), which makes its failure handling testable
// the same way: a fault plan like "snapshot.rename:crash@1" kills the
// process at a precisely reproducible point, and the kill/resume harness
// (tests/integration/crash_recovery_test.cpp) then proves that rerunning
// the command recovers byte-identical output. Three actions cover the
// interesting failure classes:
//
//   * crash      — raise SIGKILL (no destructors, no flushes: a power cut);
//   * io_error   — throw injected_io_error (a transient stream failure;
//                  the snapshot writer retries these with backoff);
//   * alloc_fail — throw std::bad_alloc (exercises the perbin -> level
//                  degradation path in make_process).
//
// Sites cost ONE relaxed atomic load when no plan is armed (fault_point is
// inline; the slow path is out of line), so instrumentation stays in
// release builds — the bench guard (micro_throughput --sharded-floor)
// asserts the armed-but-never-firing cost stays under 1% too.
//
// Plans come from the `--inject-faults` CLI option (support/cli.hpp,
// add_fault_options) or the KDC_FAULTS environment variable (which wins, so
// a harness can inject into a binary whose flags it does not control).
// Grammar, recovery semantics and the site catalog: docs/robustness.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace kdc {
class arg_parser;
} // namespace kdc

namespace kdc::core {

/// Every named injection site, one per instrumented phase boundary.
enum class fault_site : std::uint8_t {
    shard_pregen,       ///< sharded kernel: before the probe-tape pregen
    shard_bucket,       ///< sharded kernel: before bucketing slots by shard
    shard_gather,       ///< sharded kernel: before the gather phase
    shard_select,       ///< sharded kernel: before selection sweeps
    shard_handoff,      ///< sharded kernel: before the dirty-round replay
    shard_commit,       ///< sharded kernel: before the commit phase
    snapshot_serialize, ///< snapshot stage: before serializing the profile
    snapshot_write,     ///< snapshot stage: before writing the temp file
    snapshot_rename,    ///< snapshot stage: before the atomic rename
    journal_commit,     ///< snapshot stage: before committing the journal
    resume_load,        ///< snapshot stage: before reading --resume bytes
    resume_validate,    ///< snapshot stage: before validating the profile
    steady_pilot,       ///< steady state: before each warmup=ff pilot sim
    perbin_alloc,       ///< make_process, sweep cells: before per-bin state
    serve_accept,       ///< dispatcher: on accepting a batch from the channel
    serve_batch,        ///< dispatcher: before a batch is served
    count_              ///< sentinel, not a site
};

inline constexpr std::size_t fault_site_count =
    static_cast<std::size_t>(fault_site::count_);

/// The site's spelled name ("shard.pregen", "snapshot.rename", ...).
[[nodiscard]] const char* fault_site_name(fault_site site) noexcept;

/// All site names in enum order — the authority the docs table and the
/// generated crash-test matrix are checked against.
[[nodiscard]] std::vector<std::string> fault_site_names();

/// The sites on the snapshot/resume path — the set the kill/resume harness
/// must cover (tests/CMakeLists.txt generates one ctest per entry and a
/// completeness check against this list, so adding a site here without a
/// matrix entry fails the suite).
[[nodiscard]] std::vector<fault_site> snapshot_path_sites();

/// The sites inside the allocation service's dispatcher (the `serve.*`
/// prefix). Mirrors snapshot_path_sites: the serve fault suite
/// (tests/serve/fault_sites_test.cpp) fires every listed site through a
/// live service run and separately checks that every `serve.`-prefixed
/// name in fault_site_names() appears here — so registering a serve site
/// without instrumenting it (or without extending this list) fails a test.
[[nodiscard]] std::vector<fault_site> serve_sites();

enum class fault_action : std::uint8_t { crash, io_error, alloc_fail };

[[nodiscard]] const char* fault_action_name(fault_action action) noexcept;

/// One armed rule: on the `hit`-th arrival (1-based) at `site`, apply
/// `action`. Earlier and later arrivals pass through untouched.
struct fault_rule {
    fault_site site = fault_site::count_;
    fault_action action = fault_action::crash;
    std::uint64_t hit = 1;
};

/// A parsed `--inject-faults` / KDC_FAULTS spec.
///
/// Grammar:  spec  := rule (';' rule)*
///           rule  := site ':' action ['@' hit]
/// where `site` is a fault_site_name, `action` is crash | io_error |
/// alloc_fail and `hit` is a positive integer (default 1). Example:
/// "snapshot.write:io_error@1;snapshot.rename:crash@2".
struct fault_plan {
    std::vector<fault_rule> rules;

    [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

    /// Parses a spec; throws cli_error with a precise message on an
    /// unknown site/action, malformed hit count or empty rule.
    [[nodiscard]] static fault_plan parse(std::string_view spec);
};

/// Thrown by an armed io_error rule (and only then) — callers that retry
/// transient I/O failures catch exactly this type.
class injected_io_error : public std::runtime_error {
public:
    explicit injected_io_error(fault_site site);
    [[nodiscard]] fault_site site() const noexcept { return site_; }

private:
    fault_site site_;
};

/// Arms `plan` process-wide and resets every site's hit counter. An empty
/// plan disarms. Not meant to be called concurrently with running
/// simulations (arm first, then run).
void arm_faults(fault_plan plan);

/// Disarms all fault injection (fault_point returns to the one-load path).
void disarm_faults() noexcept;

[[nodiscard]] bool faults_armed() noexcept;

/// Reads KDC_FAULTS (which wins when set and non-empty) or the binary's
/// `--inject-faults` option, parses it, and arms the result. Returns true
/// when a non-empty plan was armed. The binary must have declared the
/// option via arg_parser::add_fault_options().
bool arm_faults_from_cli(const arg_parser& args);

namespace detail {
extern std::atomic<bool> faults_armed_flag;
void fault_point_slow(fault_site site);
} // namespace detail

/// The per-site instrumentation hook: a single relaxed atomic load when no
/// plan is armed, the out-of-line hit-counting path otherwise.
inline void fault_point(fault_site site) {
    if (detail::faults_armed_flag.load(std::memory_order_relaxed)) {
        detail::fault_point_slow(site);
    }
}

} // namespace kdc::core

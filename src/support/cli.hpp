// Tiny `--key=value` command-line parser for the example and bench binaries.
// Deliberately small: flags are `--name` (boolean) or `--name=value`; anything
// else is a positional argument. Unknown keys are an error so typos in sweep
// scripts fail fast instead of silently running the default experiment.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace kdc {

/// Thrown on malformed or unknown command-line arguments.
class cli_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class arg_parser {
public:
    /// Declares an option with a default value (also used for --help output).
    void add_option(std::string name, std::string default_value,
                    std::string help);

    /// Declares a boolean flag (false unless present).
    void add_flag(std::string name, std::string help);

    /// Declares the standard `--threads` option shared by the sweep
    /// binaries. The value sizes ONE thread pool that all cells and
    /// repetitions of the binary's sweeps share (cross-cell parallelism,
    /// not just reps within one experiment); output is bit-identical at any
    /// thread count.
    void add_threads_option();

    /// Parsed `--threads` value; negative values and values above 1024 are
    /// rejected with cli_error. The 0 sentinel ("use all hardware threads")
    /// is resolved by core::resolve_thread_count — the one place that
    /// semantic lives.
    [[nodiscard]] unsigned get_threads() const;

    /// Declares the standard `--kernel={perbin,level,auto}` option: a
    /// flag-level alias of the scenario grammar's kernel= key (per-bin loads
    /// vs level-compressed counts; see core/level_process.hpp), default
    /// perbin. Parsed by core::kernel_from_name, the grammar's own parser.
    void add_kernel_option();

    /// Declares the standard adaptive-precision options shared by the sweep
    /// binaries: `--adaptive` (switch the execution engine's stopping rule
    /// from fixed_reps to confidence_width), `--ci-width` (target 95% CI
    /// half-width of the monitored per-rep metric's mean), `--ci-rel` (the
    /// mean-scaled alternative: target half-width = ci-rel * |mean|,
    /// mutually exclusive with an explicit --ci-width), `--min-reps` and
    /// `--max-reps` (floor / cap on per-cell repetitions; --max-reps=0
    /// means "the cell's configured --reps").
    /// core::stopping_rule_from_cli assembles the rule and validates the
    /// cross-option constraints.
    void add_adaptive_options();

    /// Declares the standard snapshot options of the heavy benches:
    /// `--snapshot-out` (write the run's final level profile to a file)
    /// and `--resume` (start from a previously written profile instead of
    /// empty bins). core::run_snapshot_stage (core/snapshot_stage.hpp)
    /// consumes them.
    void add_snapshot_options();

    /// Declares `--inject-faults`: a deterministic fault plan
    /// ("site:action[@hit]" rules joined by ';' — see
    /// core/fault_injection.hpp and docs/robustness.md). The KDC_FAULTS
    /// environment variable overrides the option when set and non-empty.
    /// core::arm_faults_from_cli consumes it.
    void add_fault_options();

    /// Declares the standard `--scenario` option: one declarative string
    /// ("kd:n=1e6,k=2,d=4,kernel=auto") that overrides the binary's legacy
    /// flags key by key. Parsed and merged by core::scenario_from_cli
    /// (core/scenario.hpp), which documents the grammar.
    void add_scenario_option();

    /// True when the user explicitly supplied a value for `name` (as
    /// opposed to the declared default being in effect).
    [[nodiscard]] bool has_value(const std::string& name) const {
        return values_.find(name) != values_.end();
    }

    /// Parses argv. Throws cli_error on unknown/malformed options.
    /// Returns false if `--help` was requested (usage printed to stdout).
    [[nodiscard]] bool parse(int argc, const char* const* argv);

    [[nodiscard]] std::string get_string(const std::string& name) const;
    [[nodiscard]] std::int64_t get_int(const std::string& name) const;

    /// Parses the option as a double. Rejects — with a cli_error naming the
    /// option, the offending text and what was expected — garbage
    /// ("--x=abc"), trailing junk ("--x=1.5abc"), out-of-range literals
    /// ("--x=1e999") and non-finite values ("--x=inf", "--x=nan"); no
    /// malformed value ever falls back to a silent default.
    [[nodiscard]] double get_double(const std::string& name) const;

    /// get_double plus a strict positivity check: zero and negative values
    /// are rejected with a cli_error saying the option must be > 0.
    [[nodiscard]] double get_positive_double(const std::string& name) const;

    /// get_int plus a lower bound of 1: zero and negative values are
    /// rejected with a cli_error saying the option must be >= 1.
    [[nodiscard]] std::uint64_t get_positive_int(const std::string& name) const;

    /// The binary's `--reps` option as a repetition count: get_positive_int
    /// that also rejects values above 2^32 - 1.
    [[nodiscard]] std::uint32_t get_reps() const;

    [[nodiscard]] bool get_flag(const std::string& name) const;

    [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
        return positional_;
    }

    /// Renders usage text from the declared options.
    [[nodiscard]] std::string usage(const std::string& program) const;

private:
    struct option_spec {
        std::string default_value;
        std::string help;
        bool is_flag = false;
    };

    std::map<std::string, option_spec> specs_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/// The shared `main` of the bench binaries: returns `body(argc, argv)`,
/// except that a cli_error escaping it prints "error: <message>" to stderr
/// and returns 2. Other exceptions propagate.
[[nodiscard]] int cli_main(int argc, char** argv,
                           int (*body)(int argc, char** argv));

} // namespace kdc

#include "support/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>

#include "support/contracts.hpp"

namespace kdc {

void arg_parser::add_option(std::string name, std::string default_value,
                            std::string help) {
    KD_EXPECTS(!name.empty());
    specs_[std::move(name)] =
        option_spec{std::move(default_value), std::move(help), false};
}

void arg_parser::add_flag(std::string name, std::string help) {
    KD_EXPECTS(!name.empty());
    specs_[std::move(name)] = option_spec{"false", std::move(help), true};
}

void arg_parser::add_threads_option() {
    add_option("threads", "0",
               "worker threads shared by the whole sweep: every cell and "
               "repetition runs on one pool with a FIFO job queue (0 = all "
               "hardware threads, at most 1024); never changes reported "
               "numbers");
}

void arg_parser::add_kernel_option() {
    add_option("kernel", "perbin",
               "simulation kernel: 'perbin' (O(n) per-bin loads, the "
               "reference), 'level' (O(max-load) level-compressed state; "
               "distributionally identical, different RNG stream — use for "
               "huge n and heavily loaded runs) or 'auto' (level whenever "
               "the policy supports it); alias of the scenario key kernel=");
}

void arg_parser::add_adaptive_options() {
    add_flag("adaptive",
             "stop each cell's repetitions early once the 95% Student-t CI "
             "half-width of its mean max load drops below --ci-width "
             "(decisions on rep-order folds: output is still bit-identical "
             "at any --threads value)");
    add_option("ci-width", "0.5",
               "adaptive mode: target CI half-width of the monitored "
               "metric's mean; must be a positive finite number");
    add_option("ci-rel", "0",
               "adaptive mode: relative (mean-scaled) width target — stop "
               "once the CI half-width is <= ci-rel * |mean|; positive "
               "finite, mutually exclusive with an explicit --ci-width");
    add_option("min-reps", "3",
               "adaptive mode: repetitions every cell runs before the first "
               "stop decision (>= 2, variance needs two samples)");
    add_option("max-reps", "0",
               "adaptive mode: hard cap on repetitions per cell (0 = the "
               "cell's configured --reps)");
}

void arg_parser::add_scenario_option() {
    add_option("scenario", "",
               "declarative scenario string, e.g. "
               "'kd:n=1e6,k=2,d=4,kernel=auto,metric=max_load'; "
               "keys override the matching legacy flags "
               "(see core/scenario.hpp for the grammar)");
}

void arg_parser::add_snapshot_options() {
    add_option("snapshot-out", "",
               "write the run's final level profile to this file "
               "(core/level_profile.hpp text format) — O(max-load) bytes, "
               "so billion-bin runs stay resumable; requires the level "
               "kernel");
    add_option("resume", "",
               "start from the level-profile snapshot in this file instead "
               "of empty bins (pairs with --snapshot-out for staged heavy "
               "runs); requires the level kernel");
}

void arg_parser::add_fault_options() {
    add_option("inject-faults", "",
               "deterministic fault plan: 'site:action[@hit]' rules joined "
               "by ';' (actions: crash, io_error, alloc_fail; e.g. "
               "'snapshot.rename:crash@1'); the KDC_FAULTS environment "
               "variable wins over this option — see docs/robustness.md");
}

unsigned arg_parser::get_threads() const {
    // Far above any host this runs on: a larger value is a typo, and a pool
    // that tried to start it would exhaust the process table.
    constexpr std::int64_t max_threads = 1024;
    const std::int64_t value = get_int("threads");
    if (value < 0 || value > max_threads) {
        throw cli_error("option --threads out of range, got " +
                        std::to_string(value));
    }
    return static_cast<unsigned>(value);
}

bool arg_parser::parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage(argv[0]);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const auto body = arg.substr(2);
        const auto eq = body.find('=');
        const std::string key = body.substr(0, eq);
        if (key.empty()) {
            // Catches both a bare `--` and `--=value`; without this check
            // the empty key would fall through to the misleading
            // "unknown option --" diagnostic.
            throw cli_error("malformed argument '" + arg +
                            "': missing option name after --");
        }
        const auto spec = specs_.find(key);
        if (spec == specs_.end()) {
            throw cli_error("unknown option --" + key);
        }
        if (spec->second.is_flag) {
            if (eq != std::string::npos) {
                throw cli_error("flag --" + key + " does not take a value");
            }
            values_[key] = "true";
        } else {
            if (eq == std::string::npos) {
                throw cli_error("option --" + key + " requires =value");
            }
            values_[key] = body.substr(eq + 1);
        }
    }
    return true;
}

std::string arg_parser::get_string(const std::string& name) const {
    const auto spec = specs_.find(name);
    KD_EXPECTS_MSG(spec != specs_.end(), "option was never declared");
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : spec->second.default_value;
}

std::int64_t arg_parser::get_int(const std::string& name) const {
    const std::string text = get_string(name);
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
        throw cli_error("option --" + name + " expects an integer, got '" +
                        text + "'");
    }
    return value;
}

double arg_parser::get_double(const std::string& name) const {
    const std::string text = get_string(name);
    double value = 0.0;
    try {
        std::size_t pos = 0;
        value = std::stod(text, &pos);
        if (pos != text.size()) {
            throw cli_error("option --" + name +
                            " expects a number, got '" + text +
                            "' (trailing characters after the value)");
        }
    } catch (const std::invalid_argument&) {
        throw cli_error("option --" + name + " expects a number, got '" + text +
                        "'");
    } catch (const std::out_of_range&) {
        throw cli_error("option --" + name + " value '" + text +
                        "' is out of range for a double");
    }
    // stod happily parses "inf" and "nan"; neither is a usable option value
    // anywhere in this repo, so reject them here with a clear message
    // instead of letting them leak into downstream contract violations.
    if (!std::isfinite(value)) {
        throw cli_error("option --" + name + " must be finite, got '" + text +
                        "'");
    }
    return value;
}

double arg_parser::get_positive_double(const std::string& name) const {
    const double value = get_double(name);
    if (value <= 0.0) {
        throw cli_error("option --" + name + " must be > 0, got '" +
                        get_string(name) + "'");
    }
    return value;
}

std::uint64_t arg_parser::get_positive_int(const std::string& name) const {
    const std::int64_t value = get_int(name);
    if (value < 1) {
        throw cli_error("option --" + name + " must be >= 1, got '" +
                        get_string(name) + "'");
    }
    return static_cast<std::uint64_t>(value);
}

std::uint32_t arg_parser::get_reps() const {
    const std::uint64_t reps = get_positive_int("reps");
    if (reps > UINT32_MAX) {
        throw cli_error("option --reps must be <= 4294967295, got '" +
                        get_string("reps") + "'");
    }
    return static_cast<std::uint32_t>(reps);
}

bool arg_parser::get_flag(const std::string& name) const {
    return get_string(name) == "true";
}

std::string arg_parser::usage(const std::string& program) const {
    std::ostringstream out;
    out << "usage: " << program << " [options]\n";
    for (const auto& [name, spec] : specs_) {
        out << "  --" << name;
        if (!spec.is_flag) {
            out << "=<value> (default: " << spec.default_value << ")";
        }
        out << "\n      " << spec.help << '\n';
    }
    return out.str();
}

int cli_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
    try {
        return body(argc, argv);
    } catch (const cli_error& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }
}

} // namespace kdc

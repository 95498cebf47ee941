#include "core/scenario.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <new>
#include <set>
#include <sstream>
#include <utility>

#include "core/baselines.hpp"
#include "core/fault_injection.hpp"
#include "core/level_process.hpp"
#include "core/sharded_kernel.hpp"
#include "core/steady_state.hpp"
#include "core/weighted.hpp"
#include "support/cli.hpp"

namespace kdc::core {

namespace {

/// The full key set of the grammar, for the unknown-key diagnostic.
constexpr const char* scenario_keys =
    "balls, beta, cap, d, k, kernel, metric, n, par, probe, replacement, "
    "selpar, shards, skew, threshold, warmup";

std::string join(const std::vector<std::string>& names) {
    std::string out;
    for (const auto& name : names) {
        if (!out.empty()) {
            out += ", ";
        }
        out += name;
    }
    return out;
}

/// Parses a count that may be written in scientific notation ("1e9").
std::uint64_t parse_count(const std::string& key, const std::string& text) {
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec == std::errc{} && ptr == text.data() + text.size()) {
        return value;
    }
    // Fall back to a double so "1e9" and "2.5e4" work; the value must
    // still be a non-negative integer that fits 64 bits.
    double parsed = 0.0;
    try {
        std::size_t pos = 0;
        parsed = std::stod(text, &pos);
        if (pos != text.size()) {
            throw cli_error("scenario key '" + key +
                            "' expects a non-negative integer, got '" + text +
                            "' (trailing characters after the value)");
        }
    } catch (const std::invalid_argument&) {
        throw cli_error("scenario key '" + key +
                        "' expects a non-negative integer, got '" + text +
                        "'");
    } catch (const std::out_of_range&) {
        throw cli_error("scenario key '" + key + "' value '" + text +
                        "' is out of range");
    }
    if (!std::isfinite(parsed) || parsed < 0.0 ||
        parsed != std::floor(parsed) || parsed > 1.8e19) {
        throw cli_error("scenario key '" + key +
                        "' expects a non-negative integer, got '" + text +
                        "'");
    }
    return static_cast<std::uint64_t>(parsed);
}

double parse_double(const std::string& key, const std::string& text) {
    double value = 0.0;
    try {
        std::size_t pos = 0;
        value = std::stod(text, &pos);
        if (pos != text.size()) {
            throw cli_error("scenario key '" + key +
                            "' expects a number, got '" + text +
                            "' (trailing characters after the value)");
        }
    } catch (const std::invalid_argument&) {
        throw cli_error("scenario key '" + key + "' expects a number, got '" +
                        text + "'");
    } catch (const std::out_of_range&) {
        throw cli_error("scenario key '" + key + "' value '" + text +
                        "' is out of range");
    }
    if (!std::isfinite(value)) {
        throw cli_error("scenario key '" + key + "' must be finite, got '" +
                        text + "'");
    }
    return value;
}

probe_policy parse_probe(const std::string& text) {
    if (text == "uniform") {
        return probe_policy::uniform;
    }
    if (text == "weighted") {
        return probe_policy::weighted;
    }
    if (text == "one_plus_beta") {
        return probe_policy::one_plus_beta;
    }
    if (text == "threshold") {
        return probe_policy::threshold;
    }
    throw cli_error("scenario key 'probe' must be one of 'uniform', "
                    "'weighted', 'one_plus_beta' or 'threshold', got '" +
                    text + "'");
}

kernel_choice parse_kernel(const std::string& text) {
    if (text == "perbin") {
        return kernel_choice::per_bin;
    }
    if (text == "level") {
        return kernel_choice::level;
    }
    if (text == "auto") {
        return kernel_choice::auto_pick;
    }
    throw cli_error("scenario key 'kernel' must be 'perbin', 'level' or "
                    "'auto', got '" +
                    text + "'");
}

/// shards = auto | positive count; "auto" is carried as 0 (the
/// resolve_shard_count sentinel).
std::uint64_t parse_shards(const std::string& text) {
    if (text == "auto") {
        return 0;
    }
    const std::uint64_t value = parse_count("shards", text);
    if (value == 0) {
        throw cli_error("scenario key 'shards' must be 'auto' or a positive "
                        "count, got '" +
                        text + "'");
    }
    return value;
}

/// selpar = auto | positive count; "auto" is carried as 0 (the
/// resolve_selection_segments sentinel).
std::uint64_t parse_selpar(const std::string& text) {
    if (text == "auto") {
        return 0;
    }
    const std::uint64_t value = parse_count("selpar", text);
    if (value == 0) {
        throw cli_error("scenario key 'selpar' must be 'auto' or a positive "
                        "count, got '" +
                        text + "'");
    }
    return value;
}

probe_mode parse_replacement(const std::string& text) {
    if (text == "with") {
        return probe_mode::with_replacement;
    }
    if (text == "without") {
        return probe_mode::without_replacement;
    }
    throw cli_error("scenario key 'replacement' must be 'with' or "
                    "'without', got '" +
                    text + "'");
}

/// The weight distribution a scenario's skew knob denotes: unit weights at
/// skew 0, Pareto(1 + 1/skew, x_min = 1) otherwise (larger skew = heavier
/// tail, always finite mean).
weight_distribution skew_weights(double skew) {
    if (skew == 0.0) {
        return unit_weights();
    }
    return pareto_weights(1.0 + 1.0 / skew, 1.0);
}

} // namespace

const char* probe_policy_name(probe_policy probe) noexcept {
    switch (probe) {
    case probe_policy::weighted:
        return "weighted";
    case probe_policy::one_plus_beta:
        return "one_plus_beta";
    case probe_policy::threshold:
        return "threshold";
    case probe_policy::uniform:
        break;
    }
    return "uniform";
}

const char* warmup_mode_name(warmup_mode warmup) noexcept {
    return warmup == warmup_mode::fast_forward ? "ff" : "full";
}

warmup_mode warmup_from_name(const std::string& text) {
    if (text == "full") {
        return warmup_mode::full;
    }
    if (text == "ff") {
        return warmup_mode::fast_forward;
    }
    throw cli_error("scenario key 'warmup' must be 'full' (simulate every "
                    "ball) or 'ff' (steady-state fast-forward), got '" +
                    text + "'");
}

const char* kernel_choice_name(kernel_choice kernel) noexcept {
    switch (kernel) {
    case kernel_choice::per_bin:
        return "perbin";
    case kernel_choice::level:
        return "level";
    case kernel_choice::auto_pick:
        break;
    }
    return "auto";
}

scenario parse_scenario(std::string_view text) {
    return parse_scenario(text, scenario{});
}

scenario parse_scenario(std::string_view text, scenario base) {
    scenario sc = std::move(base);
    std::string_view rest = text;

    // Optional family prefix before the first ':'; the family must be a
    // registered policy name. A ':' inside the key=value list (i.e. after
    // an '=' or ',') is not a family separator.
    const auto colon = rest.find(':');
    if (colon != std::string_view::npos &&
        colon < rest.find('=') && colon < rest.find(',')) {
        const std::string family(rest.substr(0, colon));
        if (policy_registry::instance().find(family) == nullptr) {
            throw cli_error(
                "unknown scenario family '" + family + "'; registered: " +
                join(policy_registry::instance().names()));
        }
        sc.family = family;
        rest.remove_prefix(colon + 1);
    }

    std::set<std::string> seen;
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string_view pair = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        if (pair.empty()) {
            throw cli_error("malformed scenario: empty key=value pair "
                            "(double comma or trailing comma?)");
        }
        const auto eq = pair.find('=');
        if (eq == std::string_view::npos || eq == 0) {
            throw cli_error("malformed scenario pair '" + std::string(pair) +
                            "': expected key=value");
        }
        const std::string key(pair.substr(0, eq));
        const std::string value(pair.substr(eq + 1));
        if (!seen.insert(key).second) {
            throw cli_error("duplicate scenario key '" + key + "'");
        }
        if (key == "n") {
            sc.n = parse_count(key, value);
        } else if (key == "k") {
            sc.k = parse_count(key, value);
        } else if (key == "d") {
            sc.d = parse_count(key, value);
        } else if (key == "balls") {
            sc.balls = parse_count(key, value);
        } else if (key == "probe") {
            sc.probe = parse_probe(value);
        } else if (key == "skew") {
            sc.skew = parse_double(key, value);
        } else if (key == "beta") {
            sc.beta = parse_double(key, value);
        } else if (key == "threshold") {
            sc.threshold = parse_count(key, value);
        } else if (key == "cap") {
            sc.cap = parse_count(key, value);
        } else if (key == "replacement") {
            sc.replacement = parse_replacement(value);
        } else if (key == "kernel") {
            sc.kernel = parse_kernel(value);
        } else if (key == "par") {
            sc.par = par_mode_from_name(value);
        } else if (key == "shards") {
            sc.shards = parse_shards(value);
        } else if (key == "selpar") {
            sc.selpar = parse_selpar(value);
        } else if (key == "metric") {
            sc.metric = metric_from_name(value);
        } else if (key == "warmup") {
            sc.warmup = warmup_from_name(value);
        } else {
            throw cli_error("unknown scenario key '" + key +
                            "'; valid keys: " + scenario_keys);
        }
    }
    validate_scenario(sc);
    return sc;
}

std::string to_string(const scenario& sc) {
    // Every key is spelled out so parse_scenario(to_string(sc)) == sc
    // regardless of which fields the resolved policy actually reads;
    // max_digits10 keeps the double-valued knobs lossless too.
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << sc.family << ":n=" << sc.n << ",k=" << sc.k << ",d=" << sc.d;
    if (sc.balls != 0) {
        out << ",balls=" << sc.balls;
    }
    out << ",probe=" << probe_policy_name(sc.probe) << ",skew=" << sc.skew
        << ",beta=" << sc.beta << ",threshold=" << sc.threshold
        << ",cap=" << sc.cap << ",replacement="
        << (sc.replacement == probe_mode::with_replacement ? "with"
                                                           : "without")
        << ",kernel=" << kernel_choice_name(sc.kernel)
        << ",par=" << par_mode_name(sc.par) << ",shards=";
    if (sc.shards == 0) {
        out << "auto";
    } else {
        out << sc.shards;
    }
    out << ",selpar=";
    if (sc.selpar == 0) {
        out << "auto";
    } else {
        out << sc.selpar;
    }
    out << ",metric=" << metric_name(sc.metric)
        << ",warmup=" << warmup_mode_name(sc.warmup);
    return out.str();
}

std::string resolved_policy(const scenario& sc) {
    if (sc.probe != probe_policy::uniform) {
        if (sc.family != "kd") {
            throw cli_error(
                "scenario key 'probe' modifies the 'kd' family only; "
                "family '" +
                sc.family + "' already fixes the policy");
        }
        return probe_policy_name(sc.probe);
    }
    return sc.family;
}

void validate_scenario(const scenario& sc) {
    const std::string policy = resolved_policy(sc);
    const auto& info = policy_registry::instance().at(policy);
    if (sc.n < 1) {
        throw cli_error("scenario needs n >= 1 bins");
    }
    if (policy == "kd" || policy == "greedy" || policy == "weighted") {
        // k = d = 1 is the single-choice degeneration the Table-1 grid
        // uses for its (1,1) cell; anything else needs 1 <= k < d <= n.
        const bool single = policy == "kd" && sc.k == 1 && sc.d == 1;
        if (!single && !(sc.k >= 1 && sc.k < sc.d && sc.d <= sc.n)) {
            throw cli_error("policy '" + policy +
                            "' requires 1 <= k < d <= n (or k = d = 1 for "
                            "the single-choice degeneration of 'kd'), got "
                            "k=" +
                            std::to_string(sc.k) + ", d=" +
                            std::to_string(sc.d) + ", n=" +
                            std::to_string(sc.n));
        }
    } else if (policy == "dchoice") {
        if (!(sc.d >= 1 && sc.d <= sc.n)) {
            throw cli_error("policy 'dchoice' requires 1 <= d <= n, got d=" +
                            std::to_string(sc.d) + ", n=" +
                            std::to_string(sc.n));
        }
    }
    // The round-based policies place whole rounds of k balls; an explicit
    // balls count that is not a multiple of k must fail here as a
    // cli_error, not later as a contract violation on a worker thread.
    if (sc.balls != 0 && sc.balls % sc.k != 0 &&
        ((policy == "kd" && sc.d > 1) || policy == "greedy" ||
         policy == "weighted")) {
        throw cli_error("scenario key 'balls' must be a whole number of "
                        "rounds (a multiple of k=" +
                        std::to_string(sc.k) + ") for policy '" + policy +
                        "', got " + std::to_string(sc.balls));
    }
    if (policy == "weighted" && sc.skew < 0.0) {
        throw cli_error("scenario key 'skew' must be >= 0 (0 = unit "
                        "weights), got " +
                        std::to_string(sc.skew));
    }
    if (policy == "one_plus_beta" && !(sc.beta >= 0.0 && sc.beta <= 1.0)) {
        throw cli_error("scenario key 'beta' must lie in [0, 1], got " +
                        std::to_string(sc.beta));
    }
    if (policy == "threshold" &&
        (sc.cap < 1 || sc.cap > 0xffffffffULL)) {
        throw cli_error("scenario key 'cap' must lie in [1, 2^32) (a ball "
                        "probes at least once)");
    }
    if (sc.replacement == probe_mode::without_replacement &&
        !info.supports_replacement) {
        throw cli_error("policy '" + policy +
                        "' only supports replacement=with (the "
                        "without-replacement ablation exists for 'kd' on "
                        "the perbin kernel)");
    }
    // par=round is the sharded (k,d)-choice kernel: it replays the serial
    // kd tape, so only the paper's process qualifies — the 'kd' family
    // proper (not its d=1 single-choice degeneration) with the
    // with-replacement probes the tape encodes.
    if (sc.par == par_mode::round) {
        if (policy != "kd") {
            throw cli_error("par=round (the sharded round-parallel kernel) "
                            "supports the 'kd' family only, got policy '" +
                            policy + "'");
        }
        if (sc.d < 2) {
            throw cli_error("par=round requires d >= 2 (the d=1 "
                            "single-choice degeneration has no rounds to "
                            "shard)");
        }
        if (sc.replacement != probe_mode::with_replacement) {
            throw cli_error("par=round replays the with-replacement probe "
                            "tape; use replacement=with or par=rep");
        }
    }
    // kernel=level incompatibilities are resolve_kernel's job; validating
    // here too keeps parse_scenario errors early and complete.
    if (sc.kernel == kernel_choice::level) {
        (void)resolve_kernel(sc);
    }
    // warmup=ff support (level kernel, known steady-state shape) is
    // plan_fast_forward's job — its cli_errors surface at parse time too.
    if (sc.warmup == warmup_mode::fast_forward) {
        (void)plan_fast_forward(sc);
    }
}

kernel_kind resolve_kernel(const scenario& sc) {
    const std::string policy = resolved_policy(sc);
    const auto& info = policy_registry::instance().at(policy);
    switch (sc.kernel) {
    case kernel_choice::per_bin:
        return kernel_kind::per_bin;
    case kernel_choice::level:
        if (!info.supports_level) {
            throw cli_error(
                "policy '" + policy +
                "' has no level-compressed kernel; kernel=level supports: " +
                join(policy_registry::instance().level_capable_names()));
        }
        if (sc.replacement == probe_mode::without_replacement) {
            throw cli_error("kernel=level simulates the paper's "
                            "with-replacement probes; use replacement=with "
                            "or kernel=perbin");
        }
        if (sc.par == par_mode::round) {
            // Every level round draws its probes through the Fenwick ranks
            // of the exact current profile: there is nothing to shard.
            throw cli_error(
                "kernel=level has no round-parallel kernel (every level "
                "round depends on the exact current profile); use "
                "kernel=level with par=rep, or par=round with kernel=perbin "
                "or kernel=auto");
        }
        return kernel_kind::level;
    case kernel_choice::auto_pick:
        break;
    }
    // par=round always means the per-bin sharded kernel.
    return info.supports_level &&
                   sc.replacement == probe_mode::with_replacement &&
                   sc.par == par_mode::rep
               ? kernel_kind::level
               : kernel_kind::per_bin;
}

std::uint64_t resolved_balls(const scenario& sc) {
    if (sc.balls != 0) {
        return sc.balls;
    }
    const std::string policy = resolved_policy(sc);
    if ((policy == "kd" && sc.d > 1) || policy == "greedy" ||
        policy == "weighted") {
        return whole_rounds_balls(sc.n, sc.k);
    }
    return sc.n; // per-ball policies (and the single-choice degeneration)
}

repetition_result to_repetition_result(const process_observation& obs) {
    repetition_result r;
    r.max_load = static_cast<std::uint64_t>(obs.max_load);
    r.gap = obs.gap;
    r.messages = obs.messages;
    r.empty_bins = obs.empty_bins;
    return r;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

policy_registry& policy_registry::instance() {
    static policy_registry registry;
    return registry;
}

void policy_registry::register_policy(policy_info info) {
    KD_EXPECTS_MSG(!info.name.empty(), "a policy needs a name");
    KD_EXPECTS_MSG(static_cast<bool>(info.make),
                   "a policy needs a make function");
    entries_[info.name] = std::move(info);
}

const policy_info* policy_registry::find(std::string_view name) const {
    const auto it = entries_.find(name);
    return it != entries_.end() ? &it->second : nullptr;
}

const policy_info& policy_registry::at(std::string_view name) const {
    const policy_info* info = find(name);
    if (info == nullptr) {
        throw cli_error("unknown policy '" + std::string(name) +
                        "'; registered: " + join(names()));
    }
    return *info;
}

std::vector<std::string> policy_registry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, info] : entries_) {
        out.push_back(name);
    }
    return out; // std::map iterates sorted
}

std::vector<std::string> policy_registry::level_capable_names() const {
    std::vector<std::string> out;
    for (const auto& [name, info] : entries_) {
        if (info.supports_level) {
            out.push_back(name);
        }
    }
    return out;
}

policy_registry::policy_registry() {
    register_policy(
        {"kd",
         "the paper's (k,d)-choice; d=1 degenerates to single-choice",
         /*supports_level=*/true, /*supports_replacement=*/true,
         [](const scenario& sc, kernel_kind kernel, std::uint64_t seed) {
             if (sc.d == 1) {
                 // The Table-1 (1,1) cell: single choice by construction.
                 if (kernel == kernel_kind::level) {
                     return any_process(
                         single_choice_level_process(sc.n, seed));
                 }
                 return any_process(single_choice_process(sc.n, seed));
             }
             if (sc.par == par_mode::round) {
                 // The sharded round-parallel kernel: byte-identical to
                 // kd_choice_process below (validate_scenario already
                 // pinned replacement=with and d >= 2, resolve_kernel
                 // pinned perbin).
                 return any_process(sharded_kd_process(
                     sc.n, sc.k, sc.d, seed, sc.shards, sc.selpar));
             }
             if (kernel == kernel_kind::level) {
                 return any_process(
                     kd_choice_level_process(sc.n, sc.k, sc.d, seed));
             }
             kd_choice_process process(sc.n, sc.k, sc.d, seed);
             process.set_probe_mode(sc.replacement);
             return any_process(std::move(process));
         }});
    register_policy(
        {"single", "classical single-choice (one uniform probe per ball)",
         /*supports_level=*/true, /*supports_replacement=*/false,
         [](const scenario& sc, kernel_kind kernel, std::uint64_t seed) {
             if (kernel == kernel_kind::level) {
                 return any_process(single_choice_level_process(sc.n, seed));
             }
             return any_process(single_choice_process(sc.n, seed));
         }});
    register_policy(
        {"dchoice",
         "classical d-choice of Azar et al. (least loaded of d probes)",
         /*supports_level=*/true, /*supports_replacement=*/false,
         [](const scenario& sc, kernel_kind kernel, std::uint64_t seed) {
             if (kernel == kernel_kind::level) {
                 return any_process(
                     d_choice_level_process(sc.n, sc.d, seed));
             }
             return any_process(d_choice_process(sc.n, sc.d, seed));
         }});
    register_policy(
        {"greedy",
         "the Section 7 modified policy (no multiplicity cap on "
         "less-loaded distinct bins)",
         /*supports_level=*/false, /*supports_replacement=*/false,
         [](const scenario& sc, kernel_kind, std::uint64_t seed) {
             return any_process(
                 batched_greedy_process(sc.n, sc.k, sc.d, seed));
         }});
    register_policy(
        {"weighted",
         "weighted (k,d)-choice: Pareto ball weights with tail skew "
         "(skew=0 = unit weights)",
         /*supports_level=*/true, /*supports_replacement=*/false,
         [](const scenario& sc, kernel_kind kernel, std::uint64_t seed) {
             if (kernel == kernel_kind::level) {
                 return any_process(weighted_kd_level_process(
                     sc.n, sc.k, sc.d, seed, skew_weights(sc.skew)));
             }
             return any_process(weighted_kd_process(
                 sc.n, sc.k, sc.d, seed, skew_weights(sc.skew)));
         }});
    register_policy(
        {"one_plus_beta",
         "the (1+beta)-choice of Peres-Talwar-Wieder (two-choice with "
         "probability beta)",
         /*supports_level=*/true, /*supports_replacement=*/false,
         [](const scenario& sc, kernel_kind kernel, std::uint64_t seed) {
             if (kernel == kernel_kind::level) {
                 return any_process(
                     one_plus_beta_level_process(sc.n, sc.beta, seed));
             }
             return any_process(
                 one_plus_beta_process(sc.n, sc.beta, seed));
         }});
    register_policy(
        {"threshold",
         "adaptive threshold probing (Czumaj-Stemann flavor): probe until "
         "load < threshold, up to cap probes",
         /*supports_level=*/false, /*supports_replacement=*/false,
         [](const scenario& sc, kernel_kind, std::uint64_t seed) {
             return any_process(adaptive_threshold_process(
                 sc.n, sc.threshold, static_cast<std::uint32_t>(sc.cap),
                 seed));
         }});
}

// ---------------------------------------------------------------------------
// Factories and runners
// ---------------------------------------------------------------------------

any_process make_process(const scenario& sc, std::uint64_t seed) {
    validate_scenario(sc);
    if (sc.warmup == warmup_mode::fast_forward) {
        // The fast-forward wrapper defers the steady-state jump to its
        // first run_balls call (only then is the run's total known) and
        // settles on the scenario's level kernel.
        return any_process(
            fast_forwarded_process(sc, plan_fast_forward(sc), seed));
    }
    const kernel_kind kernel = resolve_kernel(sc);
    const auto& info = policy_registry::instance().at(resolved_policy(sc));
    if (kernel == kernel_kind::per_bin) {
        try {
            fault_point(fault_site::perbin_alloc);
            return info.make(sc, kernel, seed);
        } catch (const std::bad_alloc&) {
            // Graceful degradation: the per-bin kernel's O(n) state is the
            // only allocation that scales with n, and the level kernel
            // simulates the SAME distribution whenever the policy has one
            // and probes are with replacement. Fall back instead of dying;
            // anything else (or a second failure) propagates.
            if (!info.supports_level ||
                sc.replacement != probe_mode::with_replacement) {
                throw;
            }
            std::cerr << "make_process: per-bin state allocation failed for "
                         "n=" << sc.n
                      << "; degrading to the level kernel (same "
                         "distribution, O(max load) state)\n";
            return info.make(sc, kernel_kind::level, seed);
        }
    }
    return info.make(sc, kernel, seed);
}

repetition_result run_scenario_repetition(const scenario& sc,
                                          std::uint64_t derived_seed,
                                          std::uint64_t balls) {
    return run_scenario_repetition(sc, derived_seed, balls, nullptr);
}

repetition_result run_scenario_repetition(const scenario& sc,
                                          std::uint64_t derived_seed,
                                          std::uint64_t balls,
                                          thread_pool* pool) {
    auto process = make_process(sc, derived_seed);
    if (pool != nullptr) {
        process.use_pool(pool);
    }
    process.run_balls(balls);
    return to_repetition_result(process.observe());
}

namespace {

experiment_result scenario_experiment(const scenario& sc,
                                      const experiment_config& config,
                                      thread_pool* pool) {
    KD_EXPECTS(config.reps >= 1);
    validate_scenario(sc);
    const std::uint64_t balls =
        config.balls != 0 ? config.balls : resolved_balls(sc);
    KD_EXPECTS(balls >= 1);

    experiment_result out;
    out.reps.reserve(config.reps);
    for (std::uint32_t rep = 0; rep < config.reps; ++rep) {
        out.reps.push_back(run_scenario_repetition(
            sc, rng::derive_seed(config.seed, rep), balls, pool));
        accumulate_repetition(out, out.reps.back());
    }
    return out;
}

} // namespace

experiment_result run_scenario_experiment(const scenario& sc,
                                          const experiment_config& config) {
    return scenario_experiment(sc, config, nullptr);
}

experiment_result run_scenario_experiment(const scenario& sc,
                                          const experiment_config& config,
                                          thread_pool& pool) {
    return scenario_experiment(sc, config, &pool);
}

sweep_cell make_scenario_cell(std::string name, const scenario& sc,
                              experiment_config config) {
    validate_scenario(sc);
    if (config.balls == 0) {
        config.balls = resolved_balls(sc);
    }
    KD_EXPECTS(config.reps >= 1);
    KD_EXPECTS(config.balls >= 1);

    sweep_cell cell;
    cell.name = std::move(name);
    cell.config = config;
    cell.metric = sc.metric;
    if (sc.warmup == warmup_mode::fast_forward) {
        // Resolve the fast-forward plan here for the same reason the
        // registry factory is copied below: repetition jobs on worker
        // threads must never consult the (unsynchronized) registry.
        const ff_plan plan = plan_fast_forward(sc);
        cell.run_rep = [sc, plan,
                        balls = config.balls](std::uint64_t derived_seed) {
            fast_forwarded_process process(sc, plan, derived_seed);
            process.run_balls(balls);
            return to_repetition_result(process.observe());
        };
        return cell;
    }
    const kernel_kind kernel = resolve_kernel(sc);
    // Copy the factory out of the registry here: repetition jobs on worker
    // threads never touch the (unsynchronized) registry.
    auto make = policy_registry::instance().at(resolved_policy(sc)).make;
    // Repetition jobs already saturate the pool, so a par=round cell runs
    // its sharded phases inline on the owning worker — the output is
    // byte-identical either way (that is the sharded kernel's contract).
    cell.run_rep = [sc, kernel, make = std::move(make),
                    balls = config.balls](std::uint64_t derived_seed) {
        auto process = make(sc, kernel, derived_seed);
        process.run_balls(balls);
        return to_repetition_result(process.observe());
    };
    return cell;
}

scenario scenario_from_cli(const arg_parser& args, scenario base) {
    const std::string text = args.get_string("scenario");
    if (text.empty()) {
        return base;
    }
    return parse_scenario(text, std::move(base));
}

} // namespace kdc::core

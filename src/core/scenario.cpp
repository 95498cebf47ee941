#include "core/scenario.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <new>
#include <set>
#include <string_view>
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
    "balls, beta, cap, d, k, kernel, metric, n, par, replacement, selpar, "
    "shards, skew, threshold, warmup";

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

/// shards/selpar = auto | positive count; "auto" is carried as 0 (the
/// resolve_shard_count / resolve_selection_segments sentinel).
std::uint64_t parse_auto_count(const std::string& key,
                               const std::string& text) {
    if (text == "auto") {
        return 0;
    }
    const std::uint64_t value = parse_count(key, text);
    if (value == 0) {
        throw cli_error("scenario key '" + key +
                        "' must be 'auto' or a positive count, got '" +
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

// ---------------------------------------------------------------------------
// The policy table
// ---------------------------------------------------------------------------

/// The family-specific keys a family can read (bit flags); every family
/// also reads the keys marked 0 in grammar_keys below.
enum family_key : unsigned {
    reads_k = 1u << 0,
    reads_d = 1u << 1,
    reads_skew = 1u << 2,
    reads_beta = 1u << 3,
    reads_threshold = 1u << 4,
    reads_cap = 1u << 5,
};

/// One family: what it is called, what it supports, which family-specific
/// keys it reads, and how to build a repetition's process for it. `make`
/// gets an already-resolved kernel (never auto_pick) that is valid for the
/// family.
struct family_info {
    std::string_view name;
    bool supports_level;       ///< has a level-compressed kernel
    bool supports_replacement; ///< honors replacement=without
    unsigned keys;             ///< family_key bits
    any_process (*make)(const scenario& sc, kernel_choice kernel,
                        std::uint64_t seed);
};

any_process make_single(const scenario& sc, kernel_choice kernel,
                        std::uint64_t seed) {
    if (kernel == kernel_choice::level) {
        return any_process(single_choice_level_process(sc.n, seed));
    }
    return any_process(single_choice_process(sc.n, seed));
}

any_process make_kd(const scenario& sc, kernel_choice kernel,
                    std::uint64_t seed) {
    if (sc.d == 1) {
        // The Table-1 (1,1) cell: single choice by construction.
        return make_single(sc, kernel, seed);
    }
    if (sc.par == par_mode::round) {
        // The sharded round-parallel kernel: byte-identical to
        // kd_choice_process below (validate_scenario already pinned
        // replacement=with and d >= 2, resolve_kernel pinned perbin).
        return any_process(
            sharded_kd_process(sc.n, sc.k, sc.d, seed, sc.shards, sc.selpar));
    }
    if (kernel == kernel_choice::level) {
        return any_process(kd_choice_level_process(sc.n, sc.k, sc.d, seed));
    }
    kd_choice_process process(sc.n, sc.k, sc.d, seed);
    process.set_probe_mode(sc.replacement);
    return any_process(std::move(process));
}

any_process make_dchoice(const scenario& sc, kernel_choice kernel,
                         std::uint64_t seed) {
    if (kernel == kernel_choice::level) {
        return any_process(d_choice_level_process(sc.n, sc.d, seed));
    }
    return any_process(d_choice_process(sc.n, sc.d, seed));
}

any_process make_greedy(const scenario& sc, kernel_choice,
                        std::uint64_t seed) {
    return any_process(batched_greedy_process(sc.n, sc.k, sc.d, seed));
}

any_process make_weighted(const scenario& sc, kernel_choice,
                          std::uint64_t seed) {
    return any_process(
        weighted_kd_process(sc.n, sc.k, sc.d, seed, skew_weights(sc.skew)));
}

any_process make_one_plus_beta(const scenario& sc, kernel_choice kernel,
                               std::uint64_t seed) {
    if (kernel == kernel_choice::level) {
        return any_process(one_plus_beta_level_process(sc.n, sc.beta, seed));
    }
    return any_process(one_plus_beta_process(sc.n, sc.beta, seed));
}

any_process make_threshold(const scenario& sc, kernel_choice,
                           std::uint64_t seed) {
    return any_process(adaptive_threshold_process(
        sc.n, sc.threshold, static_cast<std::uint32_t>(sc.cap), seed));
}

/// THE policy table, sorted by name (error messages list it in order):
/// - kd: the paper's (k,d)-choice; d=1 degenerates to single-choice;
/// - single: classical single-choice (one uniform probe per ball);
/// - dchoice: classical d-choice of Azar et al. (least loaded of d);
/// - greedy: the Section 7 modified policy (no multiplicity cap on
///   less-loaded distinct bins);
/// - weighted: (k,d)-choice with Pareto ball weights of tail `skew`;
/// - one_plus_beta: the (1+beta)-choice of Peres-Talwar-Wieder;
/// - threshold: adaptive threshold probing (Czumaj-Stemann flavor).
/// The families that read k are exactly the ones placing whole rounds of
/// k balls (resolved_balls, the balls-multiple check).
constexpr family_info families[] = {
    {"dchoice", true, false, reads_d, make_dchoice},
    {"greedy", false, false, reads_k | reads_d, make_greedy},
    {"kd", true, true, reads_k | reads_d, make_kd},
    {"one_plus_beta", true, false, reads_beta, make_one_plus_beta},
    {"single", true, false, 0, make_single},
    {"threshold", false, false, reads_threshold | reads_cap,
     make_threshold},
    {"weighted", false, false, reads_k | reads_d | reads_skew,
     make_weighted},
};

/// nullptr when no family has that name.
const family_info* find_family(std::string_view name) noexcept {
    for (const family_info& family : families) {
        if (family.name == name) {
            return &family;
        }
    }
    return nullptr;
}

/// Appends `name` to the comma-separated list `out`.
void append_listed(std::string& out, std::string_view name) {
    if (!out.empty()) {
        out += ", ";
    }
    out += name;
}

/// The family names, comma-separated; `level_only` keeps the families with
/// a level kernel.
std::string family_names(bool level_only) {
    std::string out;
    for (const family_info& family : families) {
        if (!level_only || family.supports_level) {
            append_listed(out, family.name);
        }
    }
    return out;
}

/// The scenario's table row; throws cli_error naming the families.
const family_info& family_of(const scenario& sc) {
    const family_info* family = find_family(sc.family);
    if (family == nullptr) {
        throw cli_error("unknown scenario family '" + sc.family +
                        "'; valid families: " + family_names(false));
    }
    return *family;
}

/// Every grammar key in canonical (echo) order with the family_key bit
/// that makes it live; 0 = every family reads it (shards and selpar only
/// under par=round — scenario_reads_key).
struct key_info {
    std::string_view name;
    unsigned family_bit;
};
constexpr key_info grammar_keys[] = {
    {"n", 0}, {"k", reads_k}, {"d", reads_d}, {"balls", 0},
    {"skew", reads_skew}, {"beta", reads_beta},
    {"threshold", reads_threshold}, {"cap", reads_cap},
    {"replacement", 0}, {"kernel", 0}, {"par", 0}, {"shards", 0},
    {"selpar", 0}, {"metric", 0}, {"warmup", 0},
};

/// The keys the scenario reads, comma-separated in canonical order.
std::string live_keys(const scenario& sc) {
    std::string out;
    for (const key_info& key : grammar_keys) {
        if (scenario_reads_key(sc, key.name)) {
            append_listed(out, key.name);
        }
    }
    return out;
}

} // namespace

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

kernel_choice kernel_from_name(const std::string& text) {
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

scenario parse_scenario(std::string_view text) {
    return parse_scenario(text, scenario{});
}

scenario parse_scenario(std::string_view text, scenario base) {
    scenario sc = std::move(base);
    std::string_view rest = text;

    // Optional family prefix before the first ':'; the family must name a
    // policy table row. A ':' inside the key=value list (i.e. after an '='
    // or ',') is not a family separator.
    const auto colon = rest.find(':');
    if (colon != std::string_view::npos &&
        colon < rest.find('=') && colon < rest.find(',')) {
        sc.family = std::string(rest.substr(0, colon));
        rest.remove_prefix(colon + 1);
    }
    (void)family_of(sc);

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
            sc.kernel = kernel_from_name(value);
        } else if (key == "par") {
            sc.par = par_mode_from_name(value);
        } else if (key == "shards") {
            sc.shards = parse_auto_count(key, value);
        } else if (key == "selpar") {
            sc.selpar = parse_auto_count(key, value);
        } else if (key == "metric") {
            sc.metric = metric_from_name(value);
        } else if (key == "warmup") {
            sc.warmup = warmup_from_name(value);
        } else {
            throw cli_error("unknown scenario key '" + key +
                            "'; valid keys: " + scenario_keys);
        }
    }
    // Liveness depends on the merged family and par, so check only once
    // every pair is in.
    for (const std::string& key : seen) {
        if (!scenario_reads_key(sc, key)) {
            const bool round_only = key == "shards" || key == "selpar";
            throw cli_error("scenario key '" + key +
                            "' is not read by family '" + sc.family + "'" +
                            (round_only ? " under par=rep" : "") +
                            "; it reads: " + live_keys(sc));
        }
    }
    validate_scenario(sc);
    return sc;
}

bool scenario_reads_key(const scenario& sc, std::string_view key) noexcept {
    if (key == "shards" || key == "selpar") {
        return sc.par == par_mode::round;
    }
    for (const key_info& known : grammar_keys) {
        if (known.name == key) {
            const family_info* family = find_family(sc.family);
            return known.family_bit == 0 ||
                   (family != nullptr &&
                    (family->keys & known.family_bit) != 0);
        }
    }
    return false;
}

std::string to_string(const scenario& sc) {
    // Only the keys the family reads: an unread field never reaches the
    // echo, so parse_scenario (which refuses unread keys) accepts it back.
    // max_digits10 keeps the double-valued knobs lossless.
    const auto reads = [&sc](std::string_view key) {
        return scenario_reads_key(sc, key);
    };
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << sc.family << ":n=" << sc.n;
    if (reads("k")) {
        out << ",k=" << sc.k;
    }
    if (reads("d")) {
        out << ",d=" << sc.d;
    }
    if (sc.balls != 0) {
        out << ",balls=" << sc.balls;
    }
    if (reads("skew")) {
        out << ",skew=" << sc.skew;
    }
    if (reads("beta")) {
        out << ",beta=" << sc.beta;
    }
    if (reads("threshold")) {
        out << ",threshold=" << sc.threshold;
    }
    if (reads("cap")) {
        out << ",cap=" << sc.cap;
    }
    out << ",replacement="
        << (sc.replacement == probe_mode::with_replacement ? "with"
                                                           : "without")
        << ",kernel=" << kernel_choice_name(sc.kernel)
        << ",par=" << par_mode_name(sc.par);
    const auto auto_count = [](std::uint64_t value) {
        return value == 0 ? std::string("auto") : std::to_string(value);
    };
    if (reads("shards")) { // and selpar: both live under par=round only
        out << ",shards=" << auto_count(sc.shards)
            << ",selpar=" << auto_count(sc.selpar);
    }
    out << ",metric=" << metric_name(sc.metric)
        << ",warmup=" << warmup_mode_name(sc.warmup);
    return out.str();
}

void validate_scenario(const scenario& sc) {
    const family_info& family = family_of(sc);
    const std::string_view policy = family.name;
    const bool rounds = (family.keys & reads_k) != 0;
    if (sc.n < 1) {
        throw cli_error("scenario needs n >= 1 bins");
    }
    if (rounds) {
        // k = d = 1 is the single-choice degeneration the Table-1 grid
        // uses for its (1,1) cell; anything else needs 1 <= k < d <= n.
        const bool single = policy == "kd" && sc.k == 1 && sc.d == 1;
        if (!single && !(sc.k >= 1 && sc.k < sc.d && sc.d <= sc.n)) {
            throw cli_error("policy '" + sc.family +
                            "' requires 1 <= k < d <= n (or k = d = 1 for "
                            "the single-choice degeneration of 'kd'), got "
                            "k=" +
                            std::to_string(sc.k) + ", d=" +
                            std::to_string(sc.d) + ", n=" +
                            std::to_string(sc.n));
        }
    } else if ((family.keys & reads_d) != 0) {
        if (!(sc.d >= 1 && sc.d <= sc.n)) {
            throw cli_error("policy '" + sc.family +
                            "' requires 1 <= d <= n, got d=" +
                            std::to_string(sc.d) + ", n=" +
                            std::to_string(sc.n));
        }
    }
    // The round-based policies place whole rounds of k balls; an explicit
    // balls count that is not a multiple of k must fail here as a
    // cli_error, not later as a contract violation on a worker thread.
    if (rounds && sc.balls % sc.k != 0) {
        throw cli_error("scenario key 'balls' must be a whole number of "
                        "rounds (a multiple of k=" +
                        std::to_string(sc.k) + ") for policy '" + sc.family +
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
        !family.supports_replacement) {
        throw cli_error("policy '" + sc.family +
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
                            sc.family + "'");
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
        if (sc.d > (std::uint64_t{1} << 31)) {
            throw cli_error("par=round packs probe slots into 32 bits and "
                            "needs d <= 2^31, got d=" +
                            std::to_string(sc.d));
        }
    }
    // kernel=level incompatibilities are resolve_kernel's job; resolving
    // here keeps parse_scenario errors early and complete. The per-bin
    // kernels store bin ids as 32-bit values with one reserved, so a
    // larger n would silently fold bins together.
    if (resolve_kernel(sc) == kernel_choice::per_bin &&
        sc.n >= 0xFFFFFFFFull) {
        throw cli_error("the per-bin kernels index bins with 32-bit ids and "
                        "need n < 2^32 - 1, got n=" +
                        std::to_string(sc.n) +
                        "; larger n runs on the level kernel (par=rep, "
                        "replacement=with; families: " +
                        family_names(true) + ")");
    }
    // warmup=ff support (a level kernel) is plan_fast_forward's job — its
    // cli_errors surface at parse time too.
    if (sc.warmup == warmup_mode::fast_forward) {
        (void)plan_fast_forward(sc);
    }
}

kernel_choice resolve_kernel(const scenario& sc) {
    const family_info& family = family_of(sc);
    switch (sc.kernel) {
    case kernel_choice::per_bin:
        return kernel_choice::per_bin;
    case kernel_choice::level:
        if (!family.supports_level) {
            throw cli_error(
                "policy '" + sc.family +
                "' has no level-compressed kernel; kernel=level supports: " +
                family_names(true));
        }
        if (sc.replacement == probe_mode::without_replacement) {
            throw cli_error("kernel=level simulates the paper's "
                            "with-replacement probes; use replacement=with "
                            "or kernel=perbin");
        }
        if (sc.par == par_mode::round) {
            // Every level round draws its probes against the exact
            // current profile: there is nothing to shard.
            throw cli_error(
                "kernel=level has no round-parallel kernel (every level "
                "round depends on the exact current profile); use "
                "kernel=level with par=rep, or par=round with kernel=perbin "
                "or kernel=auto");
        }
        return kernel_choice::level;
    case kernel_choice::auto_pick:
        break;
    }
    // par=round always means the per-bin sharded kernel.
    return family.supports_level &&
                   sc.replacement == probe_mode::with_replacement &&
                   sc.par == par_mode::rep
               ? kernel_choice::level
               : kernel_choice::per_bin;
}

std::uint64_t resolved_balls(const scenario& sc) {
    if (sc.balls != 0) {
        return sc.balls;
    }
    if ((family_of(sc).keys & reads_k) != 0) {
        return whole_rounds_balls(sc.n, sc.k);
    }
    return sc.n; // per-ball policies
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
// Factories and runners
// ---------------------------------------------------------------------------

namespace {

/// Builds one repetition's process for a validated scenario on its
/// resolved kernel — the one build path of make_process and of the sweep
/// cells. A per-bin build passes the perbin.alloc fault site.
any_process build_process(const scenario& sc, const family_info& family,
                          kernel_choice kernel, std::uint64_t seed) {
    KD_EXPECTS(kernel != kernel_choice::auto_pick);
    if (kernel != kernel_choice::per_bin) {
        return family.make(sc, kernel, seed);
    }
    try {
        fault_point(fault_site::perbin_alloc);
        return family.make(sc, kernel, seed);
    } catch (const std::bad_alloc&) {
        // Graceful degradation: the per-bin kernel's O(n) state is the
        // only allocation that scales with n, and the level kernel
        // simulates the SAME distribution whenever the policy has one,
        // probes are with replacement and par=rep (there is no
        // round-parallel level kernel). Fall back instead of dying;
        // anything else (or a second failure) propagates.
        if (!family.supports_level ||
            sc.replacement != probe_mode::with_replacement ||
            sc.par != par_mode::rep) {
            throw;
        }
        std::cerr << "make_process: per-bin state allocation failed for "
                     "n=" << sc.n
                  << "; degrading to the level kernel (same "
                     "distribution, O(max load) state)\n";
        return family.make(sc, kernel_choice::level, seed);
    }
}

} // namespace

any_process make_process(const scenario& sc, std::uint64_t seed) {
    validate_scenario(sc);
    if (sc.warmup == warmup_mode::fast_forward) {
        // The fast-forward wrapper defers the steady-state jump to its
        // first run_balls call (only then is the run's total known) and
        // settles on the scenario's level kernel.
        return any_process(
            fast_forwarded_process(sc, plan_fast_forward(sc), seed));
    }
    return build_process(sc, family_of(sc), resolve_kernel(sc), seed);
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
        const ff_plan plan = plan_fast_forward(sc);
        cell.run_rep = [sc, plan,
                        balls = config.balls](std::uint64_t derived_seed) {
            fast_forwarded_process process(sc, plan, derived_seed);
            process.run_balls(balls);
            return to_repetition_result(process.observe());
        };
        return cell;
    }
    const kernel_choice kernel = resolve_kernel(sc);
    // Repetition jobs already saturate the pool, so a par=round cell runs
    // its sharded phases inline on the owning worker — the output is
    // byte-identical either way (that is the sharded kernel's contract).
    cell.run_rep = [sc, kernel, family = &family_of(sc),
                    balls = config.balls](std::uint64_t derived_seed) {
        auto process = build_process(sc, *family, kernel, derived_seed);
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

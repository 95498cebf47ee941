#include "core/engine.hpp"

#include <cmath>
#include <string>

#include "stats/hypothesis.hpp"
#include "support/cli.hpp"

namespace kdc::core {

namespace {

constexpr std::uint32_t default_min_reps = 3;

/// Two-sided confidence level of every confidence_width interval.
constexpr double confidence_level = 0.95;

} // namespace

stopping_rule fixed_reps_rule() noexcept { return stopping_rule{}; }

stopping_rule confidence_width_rule(double ci_half_width,
                                    std::uint32_t min_reps,
                                    std::uint32_t max_reps) {
    stopping_rule rule;
    rule.mode = stopping_mode::confidence_width;
    rule.ci_half_width = ci_half_width;
    rule.min_reps = min_reps;
    rule.max_reps = max_reps;
    validate_stopping_rule(rule);
    return rule;
}

stopping_rule relative_width_rule(double ci_rel, std::uint32_t min_reps,
                                  std::uint32_t max_reps) {
    stopping_rule rule;
    rule.mode = stopping_mode::confidence_width;
    rule.ci_rel = ci_rel;
    rule.min_reps = min_reps;
    rule.max_reps = max_reps;
    validate_stopping_rule(rule);
    return rule;
}

void validate_stopping_rule(const stopping_rule& rule) {
    if (rule.mode == stopping_mode::fixed_reps) {
        return; // all other fields are ignored
    }
    const bool absolute =
        std::isfinite(rule.ci_half_width) && rule.ci_half_width > 0.0;
    const bool relative = std::isfinite(rule.ci_rel) && rule.ci_rel > 0.0;
    KD_EXPECTS_MSG(absolute != relative,
                   "confidence_width needs exactly one width target: a "
                   "positive finite ci_half_width or a positive finite "
                   "ci_rel (mean-scaled)");
    KD_EXPECTS_MSG(rule.min_reps == 0 || rule.min_reps >= 2,
                   "the adaptive floor needs >= 2 reps to estimate variance");
    KD_EXPECTS_MSG(rule.min_reps == 0 || rule.max_reps == 0 ||
                       rule.min_reps <= rule.max_reps,
                   "adaptive min_reps must not exceed max_reps");
}

cell_plan resolve_cell_plan(const stopping_rule& rule,
                            std::uint32_t configured_reps) {
    KD_EXPECTS(configured_reps >= 1);
    cell_plan plan;
    if (rule.mode == stopping_mode::fixed_reps) {
        plan.first_chunk = configured_reps;
        plan.chunk = configured_reps;
        plan.max_reps = configured_reps;
        plan.adaptive = false;
        return plan;
    }
    plan.adaptive = true;
    plan.max_reps = rule.max_reps != 0 ? rule.max_reps : configured_reps;
    std::uint32_t floor = rule.min_reps != 0 ? rule.min_reps
                                             : default_min_reps;
    // The decision needs a variance, hence >= 2 folded reps; a cap below
    // that simply runs to the cap without ever deciding.
    floor = std::max<std::uint32_t>(floor, 2);
    plan.first_chunk = std::min(floor, plan.max_reps);
    plan.chunk = std::max<std::uint32_t>(1, floor / 2);
    return plan;
}

bool confidence_reached(const stats::running_stats& monitor,
                        const stopping_rule& rule) {
    if (monitor.count() < 2) {
        return false; // no variance estimate yet
    }
    // Under a relative rule the target shrinks/grows with the monitored
    // mean itself, re-evaluated at every chunk boundary. A zero mean makes
    // the relative target unreachable unless the spread is zero too.
    const double target = rule.ci_rel > 0.0
                              ? rule.ci_rel * std::abs(monitor.mean())
                              : rule.ci_half_width;
    return stats::t_ci_half_width(monitor, confidence_level) <= target;
}

stopping_rule stopping_rule_from_cli(const arg_parser& args) {
    if (!args.get_flag("adaptive")) {
        return fixed_reps_rule();
    }
    stopping_rule rule;
    rule.mode = stopping_mode::confidence_width;
    // --ci-rel switches the target from an absolute half-width to a
    // mean-scaled one; the two are mutually exclusive when both are spelled
    // out explicitly.
    if (args.has_value("ci-rel")) {
        if (args.has_value("ci-width")) {
            throw cli_error("options --ci-width and --ci-rel are mutually "
                            "exclusive: pick an absolute or a mean-scaled "
                            "CI width target");
        }
        rule.ci_rel = args.get_positive_double("ci-rel");
    } else {
        rule.ci_half_width = args.get_positive_double("ci-width");
    }

    const std::int64_t min_reps = args.get_int("min-reps");
    if (min_reps < 2 || min_reps > 1'000'000'000) {
        throw cli_error("option --min-reps must be an integer in [2, 1e9] "
                        "(the adaptive rule needs >= 2 reps to estimate "
                        "variance), got " +
                        std::to_string(min_reps));
    }
    const std::int64_t max_reps = args.get_int("max-reps");
    if (max_reps < 0 || max_reps > 1'000'000'000) {
        throw cli_error("option --max-reps must be an integer in [0, 1e9] "
                        "(0 = the cell's configured --reps), got " +
                        std::to_string(max_reps));
    }
    if (max_reps != 0 && max_reps < min_reps) {
        throw cli_error("option --max-reps (" + std::to_string(max_reps) +
                        ") must be >= --min-reps (" +
                        std::to_string(min_reps) + ")");
    }
    rule.min_reps = static_cast<std::uint32_t>(min_reps);
    rule.max_reps = static_cast<std::uint32_t>(max_reps);
    validate_stopping_rule(rule);
    return rule;
}

} // namespace kdc::core

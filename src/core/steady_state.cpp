#include "core/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/baselines.hpp"
#include "core/fault_injection.hpp"
#include "core/level_process.hpp"
#include "rng/splitmix64.hpp"
#include "support/cli.hpp"

namespace kdc::core {

namespace {

/// Decorrelates the pilot-simulation seed stream from the settle kernel's
/// (which consumes the caller's seed directly).
constexpr std::uint64_t pilot_salt = 0x9e3779b97f4a7c15ULL;

/// The index of the fullest level — where rounding-residual bins and balls
/// are absorbed, so corrections land in the profile's bulk, never its tail.
std::size_t fullest_level(const std::vector<std::uint64_t>& counts,
                          std::size_t min_level) {
    std::size_t best = min_level;
    for (std::size_t level = min_level; level < counts.size(); ++level) {
        if (counts[level] > counts[best]) {
            best = level;
        }
    }
    return best;
}

/// Expected bins per level of single-choice occupancy: n * Poisson(lambda)
/// pmf, computed in log space so heavy densities (lambda in the hundreds)
/// never underflow term by term.
std::vector<double> poisson_targets(std::uint64_t n, double lambda) {
    KD_EXPECTS(lambda > 0.0);
    const auto levels = static_cast<std::size_t>(
        lambda + 12.0 * std::sqrt(lambda + 1.0) + 30.0);
    std::vector<double> targets(levels + 1, 0.0);
    const double log_lambda = std::log(lambda);
    for (std::size_t level = 0; level < targets.size(); ++level) {
        const double log_pmf = -lambda +
                               static_cast<double>(level) * log_lambda -
                               std::lgamma(static_cast<double>(level) + 1.0);
        targets[level] = static_cast<double>(n) * std::exp(log_pmf);
    }
    return targets;
}

/// Expected bins per level from averaged pilot runs at n_p bins, rescaled
/// to n and extended past the pilot's resolution (fractions below
/// ~1/(reps * n_p) are invisible to the pilot but populated at large n)
/// with a theory-shaped decaying tail.
std::vector<double> pilot_targets(const scenario& sc, const ff_plan& plan,
                                  std::uint64_t ff_balls, std::uint64_t seed,
                                  const steady_state_options& options) {
    // The pilot must admit the scenario's probe count: d <= n_p <= n.
    const std::uint64_t n_p = std::min(
        sc.n, std::max<std::uint64_t>(options.pilot_bins, sc.d + 1));
    const std::uint32_t reps = std::max<std::uint32_t>(1, options.pilot_reps);
    const double density =
        static_cast<double>(ff_balls) / static_cast<double>(sc.n);

    // Same ball density as the skipped prefix, floored to whole rounds.
    std::uint64_t pilot_balls =
        static_cast<std::uint64_t>(density * static_cast<double>(n_p));
    pilot_balls -= pilot_balls % sc.k;
    pilot_balls = std::max(pilot_balls, sc.k);

    std::vector<std::uint64_t> acc;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        fault_point(fault_site::steady_pilot);
        const std::uint64_t pilot_seed =
            rng::derive_seed(seed ^ pilot_salt, rep);
        const level_profile profile = [&] {
            switch (plan.policy) {
            case ff_plan::policy_kind::dchoice: {
                d_choice_level_process pilot(n_p, sc.d, pilot_seed);
                pilot.run_balls(pilot_balls);
                return pilot.profile();
            }
            case ff_plan::policy_kind::one_plus_beta: {
                one_plus_beta_level_process pilot(n_p, sc.beta, pilot_seed);
                pilot.run_balls(pilot_balls);
                return pilot.profile();
            }
            case ff_plan::policy_kind::kd:
            case ff_plan::policy_kind::single:
                break;
            }
            // single never pilots (closed form); kd is the default here.
            kd_choice_level_process pilot(n_p, sc.k, sc.d, pilot_seed);
            pilot.run_balls(pilot_balls);
            return pilot.profile();
        }();
        if (acc.size() < profile.max_level() + 1) {
            acc.resize(profile.max_level() + 1, 0);
        }
        for (std::size_t level = 0; level < acc.size(); ++level) {
            acc[level] += profile.bins_at(level);
        }
    }

    const double scale = static_cast<double>(sc.n) /
                         (static_cast<double>(reps) *
                          static_cast<double>(n_p));
    std::vector<double> targets(acc.size(), 0.0);
    for (std::size_t level = 0; level < acc.size(); ++level) {
        targets[level] = static_cast<double>(acc[level]) * scale;
    }

    // Tail extension: continue the pilot's top decay ratio past its
    // resolution. (1+beta)'s tail is geometric (constant ratio); the
    // multi-choice tails decay doubly exponentially, modeled by sharpening
    // the ratio with the paper's floor(d/k) exponent per level. Levels are
    // added only while they would round to at least one whole bin, so the
    // extension never overfills the upper tail.
    const std::size_t top = acc.size() - 1;
    if (top >= 1 && acc[top] > 0 && acc[top - 1] > 0) {
        double ratio = std::min(
            0.5, static_cast<double>(acc[top]) /
                     static_cast<double>(acc[top - 1]));
        const double sharpen =
            plan.policy == ff_plan::policy_kind::one_plus_beta
                ? 1.0
                : static_cast<double>(std::max<std::uint64_t>(
                      2, sc.d / std::max<std::uint64_t>(1, sc.k)));
        double expected = targets[top] * ratio;
        while (expected >= 1.0 && targets.size() < top + 64) {
            targets.push_back(expected);
            if (sharpen > 1.0) {
                ratio = std::pow(ratio, sharpen);
            }
            expected *= ratio;
        }
    }
    return targets;
}

} // namespace

ff_split fast_forward_split(const scenario& sc, std::uint64_t total_balls) {
    ff_split split;
    split.settle_balls = total_balls;
    const std::uint64_t settle_min =
        std::max<std::uint64_t>(sc.k, sc.n / 8);
    if (total_balls <= sc.n || total_balls <= settle_min) {
        return split; // nothing worth skipping
    }
    std::uint64_t ff = ((total_balls - settle_min) / sc.n) * sc.n;
    ff -= ff % std::max<std::uint64_t>(1, sc.k);
    if (ff == 0) {
        return split;
    }
    split.ff_balls = ff;
    split.settle_balls = total_balls - ff;
    return split;
}

ff_plan plan_fast_forward(const scenario& sc) {
    if (resolve_kernel(sc) != kernel_choice::level) {
        throw cli_error(
            "warmup=ff jump-starts a level profile; the scenario must "
            "resolve to kernel=level (kernel=perbin keeps per-bin state "
            "the fast-forward cannot synthesize)");
    }
    ff_plan plan;
    if (sc.family == "kd") {
        plan.policy = sc.d == 1 ? ff_plan::policy_kind::single
                                : ff_plan::policy_kind::kd;
    } else if (sc.family == "single") {
        plan.policy = ff_plan::policy_kind::single;
    } else if (sc.family == "dchoice") {
        plan.policy = ff_plan::policy_kind::dchoice;
    } else {
        // Only these four families have a level kernel to resolve to.
        KD_ASSERT(sc.family == "one_plus_beta");
        plan.policy = ff_plan::policy_kind::one_plus_beta;
    }
    return plan;
}

level_profile steady_state_profile(const scenario& sc, const ff_plan& plan,
                                   std::uint64_t ff_balls,
                                   std::uint64_t seed,
                                   const steady_state_options& options) {
    KD_EXPECTS(sc.n >= 1);
    KD_EXPECTS(ff_balls >= 1);

    const std::vector<double> targets =
        plan.policy == ff_plan::policy_kind::single
            ? poisson_targets(sc.n,
                              static_cast<double>(ff_balls) /
                                  static_cast<double>(sc.n))
            : pilot_targets(sc, plan, ff_balls, seed, options);

    // Floor every level (never overfill the upper tail — loads only ever
    // grow, so a synthesized bin above the true profile cannot be walked
    // back by the settle phase), then repair the two invariants exactly:
    // sum(counts) == n and sum(level * counts) == ff_balls. Residuals are
    // a handful of bins/balls and are absorbed at the fullest level, deep
    // in the profile's bulk.
    std::vector<std::uint64_t> counts(targets.size(), 0);
    std::uint64_t bins = 0;
    for (std::size_t level = 0; level < targets.size(); ++level) {
        counts[level] = static_cast<std::uint64_t>(
            std::floor(std::max(0.0, targets[level])));
        bins += counts[level];
    }
    for (std::size_t level = counts.size(); bins > sc.n && level-- > 0;) {
        const std::uint64_t drop = std::min(counts[level], bins - sc.n);
        counts[level] -= drop;
        bins -= drop;
    }
    if (bins < sc.n) {
        counts[fullest_level(counts, 0)] += sc.n - bins;
    }

    std::uint64_t balls = 0;
    for (std::size_t level = 0; level < counts.size(); ++level) {
        balls += static_cast<std::uint64_t>(level) * counts[level];
    }
    while (balls < ff_balls) {
        const std::size_t level = fullest_level(counts, 0);
        if (level + 1 >= counts.size()) {
            counts.push_back(0);
        }
        const std::uint64_t step =
            std::min(ff_balls - balls,
                     std::max<std::uint64_t>(1, counts[level] / 2));
        counts[level] -= step;
        counts[level + 1] += step;
        balls += step;
    }
    while (balls > ff_balls) {
        const std::size_t level = fullest_level(counts, 1);
        KD_ASSERT(counts[level] > 0);
        const std::uint64_t step =
            std::min(balls - ff_balls,
                     std::max<std::uint64_t>(1, counts[level] / 2));
        counts[level] -= step;
        counts[level - 1] += step;
        balls -= step;
    }
    return level_profile::from_counts(counts);
}

level_profile steady_state_profile(const scenario& sc,
                                   std::uint64_t ff_balls,
                                   std::uint64_t seed,
                                   const steady_state_options& options) {
    return steady_state_profile(sc, plan_fast_forward(sc), ff_balls, seed,
                                options);
}

any_process make_settled_process(const scenario& sc, const ff_plan& plan,
                                 level_profile initial, std::uint64_t seed) {
    switch (plan.policy) {
    case ff_plan::policy_kind::single:
        return any_process(
            single_choice_level_process(std::move(initial), seed));
    case ff_plan::policy_kind::dchoice:
        return any_process(
            d_choice_level_process(std::move(initial), sc.d, seed));
    case ff_plan::policy_kind::one_plus_beta:
        return any_process(
            one_plus_beta_level_process(std::move(initial), sc.beta, seed));
    case ff_plan::policy_kind::kd:
        break;
    }
    return any_process(
        kd_choice_level_process(std::move(initial), sc.k, sc.d, seed));
}

fast_forwarded_process::fast_forwarded_process(scenario sc, ff_plan plan,
                                               std::uint64_t seed)
    : sc_(std::move(sc)), plan_(plan), seed_(seed) {}

void fast_forwarded_process::run_balls(std::uint64_t balls) {
    if (inner_) {
        inner_->run_balls(balls);
        return;
    }
    // The first call fixes the split: only now is the run's total known.
    const ff_split split = fast_forward_split(sc_, balls);
    ff_balls_ = split.ff_balls;
    level_profile initial =
        split.ff_balls > 0
            ? steady_state_profile(sc_, plan_, split.ff_balls, seed_)
            : level_profile(sc_.n);
    inner_.emplace(
        make_settled_process(sc_, plan_, std::move(initial), seed_));
    if (split.settle_balls > 0) {
        inner_->run_balls(split.settle_balls);
    }
}

process_observation fast_forwarded_process::observe() const {
    if (!inner_) {
        process_observation obs;
        obs.empty_bins = sc_.n;
        return obs;
    }
    process_observation obs = inner_->observe();
    obs.balls_placed += ff_balls_;
    return obs;
}

std::vector<double> fast_forwarded_process::sorted_loads() const {
    if (!inner_) {
        return std::vector<double>(sc_.n, 0.0);
    }
    return inner_->sorted_loads();
}

ff_validation_result validate_fast_forward(const scenario& sc,
                                           std::uint32_t reps,
                                           std::uint64_t seed) {
    KD_EXPECTS_MSG(reps >= 2, "KS needs at least two repetitions per arm");
    scenario ff = sc;
    ff.warmup = warmup_mode::fast_forward;
    scenario full = sc;
    full.warmup = warmup_mode::full;
    const ff_plan plan = plan_fast_forward(ff);
    const std::uint64_t balls = resolved_balls(sc);

    std::vector<double> ff_max, full_max, ff_gap, full_gap;
    std::vector<double> ff_loads, full_loads;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        fast_forwarded_process fast(ff, plan, rng::derive_seed(seed, rep));
        fast.run_balls(balls);
        const process_observation obs = fast.observe();
        ff_max.push_back(obs.max_load);
        ff_gap.push_back(obs.gap);
        if (rep == 0) {
            ff_loads = fast.sorted_loads();
        }

        any_process reference =
            make_process(full, rng::derive_seed(seed, reps + rep));
        reference.run_balls(balls);
        const process_observation ref_obs = reference.observe();
        full_max.push_back(ref_obs.max_load);
        full_gap.push_back(ref_obs.gap);
        if (rep == 0) {
            full_loads = reference.sorted_loads();
        }
    }

    ff_validation_result result;
    result.reps = reps;
    result.max_load_ks = stats::ks_two_sample(ff_max, full_max);
    result.gap_ks = stats::ks_two_sample(ff_gap, full_gap);
    result.loads_ks = stats::ks_two_sample(std::move(ff_loads),
                                           std::move(full_loads));
    return result;
}

} // namespace kdc::core

// Steady-state fast-forward for the heavily loaded regime: jump a
// level-kernel run straight to (an approximation of) its fixed-point load
// profile instead of simulating every warmup ball.
//
// The paper's heavy regime (m >> n) spends almost all of its wall clock in
// a warmup whose outcome is statistically predictable: after q*n balls the
// load profile concentrates tightly around a policy-dependent fixed-point
// shape (mean level q, spread = the paper's GAP). `warmup=ff` in the
// scenario grammar exploits that:
//
//   1. fast_forward_split divides the requested T balls into a
//      fast-forwarded prefix (whole multiples of n balls, skipped) and a
//      SETTLE suffix of at least ~n/8 balls that is simulated exactly;
//   2. steady_state_profile synthesizes the prefix's profile — a Poisson
//      closed form for single-choice, a cheap small-n pilot simulation at
//      the same integer ball density (extrapolated with a theory-shaped
//      tail) for every other supported policy;
//   3. the settle suffix runs the ordinary level kernel from that profile,
//      regenerating the genuine top-tail randomness the deterministic
//      profile lacks.
//
// The construction is an APPROXIMATION, validated empirically:
// validate_fast_forward runs warmup=ff against warmup=full at a reachable
// n and KS-compares the resulting distributions (the suite gates on it at
// n = 10^5; `micro_throughput --scenario=... --validate-warmup=N` exposes
// the same check from the command line). It is exact in expectation for
// single-choice and within pilot noise elsewhere; it is NOT a bit-level
// replay of the skipped balls, which is why the settle suffix exists.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/level_profile.hpp"
#include "core/scenario.hpp"
#include "stats/hypothesis.hpp"

namespace kdc::core {

/// How a run's T balls divide under warmup=ff.
struct ff_split {
    std::uint64_t ff_balls = 0;     ///< skipped via the synthesized profile
    std::uint64_t settle_balls = 0; ///< simulated exactly on top of it
};

/// Splits `total_balls` into a fast-forwarded prefix and a settle suffix.
/// The prefix is a whole multiple of n balls, floored to a multiple of k
/// (whole rounds); the suffix keeps at least max(k, n/8) balls. Runs with
/// total_balls <= n are never fast-forwarded (ff_balls = 0): there is no
/// warmup to skip, so `warmup=ff` degenerates to `warmup=full` exactly.
[[nodiscard]] ff_split fast_forward_split(const scenario& sc,
                                          std::uint64_t total_balls);

/// The precomputed dispatch of a fast-forwarded scenario: which closed
/// form / pilot process the profile synthesis uses and which level kernel
/// settles. Built once by plan_fast_forward so repetition jobs only switch
/// on an enum.
struct ff_plan {
    enum class policy_kind { kd, single, dchoice, one_plus_beta };
    policy_kind policy = policy_kind::kd;
};

/// Resolves the scenario's fast-forward plan, throwing cli_error with a
/// precise message when warmup=ff is unsupported: the scenario must resolve
/// to kernel=level with with-replacement probes, which leaves the
/// level-capable policies 'kd', 'single', 'dchoice' and 'one_plus_beta' —
/// exactly the ones whose steady-state shape the synthesis knows.
[[nodiscard]] ff_plan plan_fast_forward(const scenario& sc);

/// Tuning knobs of the profile synthesis; the defaults are what warmup=ff
/// uses. Tests shrink pilot_bins to stress the extrapolation.
struct steady_state_options {
    std::uint64_t pilot_bins = 65536; ///< pilot runs at min(sc.n, pilot_bins)
    std::uint32_t pilot_reps = 3;     ///< averaged pilot repetitions
};

/// Synthesizes the load profile of `sc`'s process after ff_balls balls on
/// sc.n bins: the Poisson occupancy closed form for single-choice, else
/// pilot_reps small-n pilot runs at the same ball density, averaged,
/// rescaled to n bins and extended past the pilot's resolution with a
/// theory-shaped tail (geometric for (1+beta), doubly-exponential-flavored
/// for the multi-choice policies), floor-rounded so the upper tail is never
/// overfilled. The result holds exactly sc.n bins and exactly ff_balls
/// balls (a final rebalance moves the handful of rounding-residual bins).
[[nodiscard]] level_profile
steady_state_profile(const scenario& sc, const ff_plan& plan,
                     std::uint64_t ff_balls, std::uint64_t seed,
                     const steady_state_options& options = {});

/// Convenience overload resolving the plan itself (main-thread callers).
[[nodiscard]] level_profile
steady_state_profile(const scenario& sc, std::uint64_t ff_balls,
                     std::uint64_t seed,
                     const steady_state_options& options = {});

/// The warmup=ff execution wrapper make_process returns: defers the
/// fast-forward until the first run_balls call (only then is the total T
/// known), splits T, synthesizes the prefix profile, and settles the suffix
/// on the scenario's level kernel. Later run_balls calls forward directly.
///
/// Accounting: balls_placed (and observe().balls_placed) includes the
/// skipped prefix — the profile really holds those balls — but messages()
/// counts the settled suffix only (the skipped probes were never drawn;
/// see docs/scenario-grammar.md).
class fast_forwarded_process {
public:
    fast_forwarded_process(scenario sc, ff_plan plan, std::uint64_t seed);

    void run_balls(std::uint64_t balls);

    [[nodiscard]] process_observation observe() const;
    [[nodiscard]] std::vector<double> sorted_loads() const;

    [[nodiscard]] std::uint64_t n() const noexcept { return sc_.n; }
    /// Balls skipped by the fast-forward (0 before the first run_balls and
    /// for runs too light to split).
    [[nodiscard]] std::uint64_t skipped_balls() const noexcept {
        return ff_balls_;
    }

private:
    scenario sc_;
    ff_plan plan_;
    std::uint64_t seed_;
    std::uint64_t ff_balls_ = 0;
    std::optional<any_process> inner_;
};

/// The settle kernel behind fast_forwarded_process: the scenario's level
/// process started from `initial`. Exposed so snapshot staging and tests
/// can settle a synthesized (or reloaded) profile directly.
[[nodiscard]] any_process make_settled_process(const scenario& sc,
                                               const ff_plan& plan,
                                               level_profile initial,
                                               std::uint64_t seed);

/// One KS comparison of warmup=ff against warmup=full at the scenario's
/// own (reachable) n: `reps` independent repetitions of each, compared on
/// the per-rep max-load and gap distributions plus the pooled per-bin
/// loads of the first repetition pair.
struct ff_validation_result {
    stats::ks_result max_load_ks; ///< per-rep max loads, ff vs full
    stats::ks_result gap_ks;      ///< per-rep gaps, ff vs full
    stats::ks_result loads_ks;    ///< pooled loads of one rep each
    std::uint32_t reps = 0;
};

/// Runs the validation (sc must carry warmup=ff; its warmup=full twin is
/// derived internally). Deterministic in (sc, reps, seed).
[[nodiscard]] ff_validation_result
validate_fast_forward(const scenario& sc, std::uint32_t reps,
                      std::uint64_t seed);

} // namespace kdc::core

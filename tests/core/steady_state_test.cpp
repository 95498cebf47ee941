// Steady-state fast-forward (warmup=ff): split arithmetic, synthesized
// profile invariants, grammar/factory wiring, and the KS evidence that a
// fast-forwarded run is statistically indistinguishable from a full warmup
// — including the snapshot save/load/continue path.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/level_process.hpp"
#include "core/scenario.hpp"
#include "core/steady_state.hpp"
#include "rng/splitmix64.hpp"
#include "stats/hypothesis.hpp"
#include "support/cli.hpp"

using kdc::cli_error;
using kdc::core::fast_forward_split;
using kdc::core::fast_forwarded_process;
using kdc::core::ff_plan;
using kdc::core::ff_split;
using kdc::core::kd_choice_level_process;
using kdc::core::level_profile;
using kdc::core::make_process;
using kdc::core::parse_scenario;
using kdc::core::plan_fast_forward;
using kdc::core::resolved_balls;
using kdc::core::scenario;
using kdc::core::steady_state_options;
using kdc::core::steady_state_profile;
using kdc::core::validate_fast_forward;
using kdc::core::warmup_mode;

namespace {

/// The cli_error message for a parse, or "" when none is thrown.
std::string parse_error(const std::string& text) {
    try {
        (void)parse_scenario(text);
    } catch (const cli_error& error) {
        return error.what();
    }
    return "";
}

std::vector<double> pooled_loads(const level_profile& profile) {
    std::vector<double> loads;
    loads.reserve(profile.n());
    for (std::uint64_t level = 0; level <= profile.max_level(); ++level) {
        loads.insert(loads.end(), profile.bins_at(level),
                     static_cast<double>(level));
    }
    return loads;
}

} // namespace

TEST(FastForwardSplit, LightRunsAreNeverSplit) {
    const auto sc = parse_scenario("kd:n=10000,k=8,d=16");
    for (const std::uint64_t total : {1ull, 8ull, 9999ull, 10000ull}) {
        const ff_split split = fast_forward_split(sc, total);
        EXPECT_EQ(split.ff_balls, 0u);
        EXPECT_EQ(split.settle_balls, total);
    }
}

TEST(FastForwardSplit, HeavySplitInvariants) {
    for (const std::uint64_t n : {1000ull, 100000ull}) {
        for (const std::uint64_t k : {1ull, 8ull}) {
            auto sc = parse_scenario("kd:n=" + std::to_string(n) +
                                     ",k=" + std::to_string(k) +
                                     ",d=" + std::to_string(2 * k));
            for (const std::uint64_t total :
                 {n + 1, 2 * n, 10 * n, 10 * n + 37}) {
                const ff_split split = fast_forward_split(sc, total);
                EXPECT_EQ(split.ff_balls + split.settle_balls, total);
                EXPECT_EQ(split.ff_balls % k, 0u)
                    << "the skipped prefix must hold whole rounds";
                if (split.ff_balls > 0) {
                    // The settle suffix keeps enough balls to regenerate
                    // the top-tail randomness the synthesis lacks.
                    EXPECT_GE(split.settle_balls,
                              std::max<std::uint64_t>(k, n / 8));
                }
            }
        }
    }
    // The canonical heavy cell: m = 10n skips 9 whole waves of n balls.
    const auto sc = parse_scenario("kd:n=100000,k=8,d=16");
    const ff_split split = fast_forward_split(sc, 1'000'000);
    EXPECT_EQ(split.ff_balls, 900'000u);
    EXPECT_EQ(split.settle_balls, 100'000u);
}

TEST(FastForwardPlan, ResolvesPoliciesAndRejectsUnsupported) {
    EXPECT_EQ(plan_fast_forward(parse_scenario("kd:n=1024,k=2,d=4")).policy,
              ff_plan::policy_kind::kd);
    EXPECT_EQ(plan_fast_forward(parse_scenario("kd:n=1024,k=1,d=1")).policy,
              ff_plan::policy_kind::single);
    EXPECT_EQ(plan_fast_forward(parse_scenario("single:n=1024")).policy,
              ff_plan::policy_kind::single);
    EXPECT_EQ(plan_fast_forward(parse_scenario("dchoice:n=1024,d=2")).policy,
              ff_plan::policy_kind::dchoice);
    EXPECT_EQ(plan_fast_forward(
                  parse_scenario("one_plus_beta:n=1024,beta=0.5"))
                  .policy,
              ff_plan::policy_kind::one_plus_beta);
    // The per-bin kernel keeps state the fast-forward cannot synthesize.
    const auto kernel_message =
        parse_error("kd:n=1024,k=2,d=4,kernel=perbin,warmup=ff");
    EXPECT_NE(kernel_message.find("kernel=level"), std::string::npos);
    // A family without a level kernel is refused before the plan.
    const auto policy_message =
        parse_error("weighted:n=1024,k=2,d=4,kernel=level,warmup=ff");
    EXPECT_NE(policy_message.find("policy 'weighted' has no level-compressed "
                                  "kernel"),
              std::string::npos);
}

TEST(FastForwardPlan, LevelParRoundIsACliErrorNotAnAbort) {
    // There is no round-parallel level kernel to fast-forward: the grammar,
    // the plan and the factory all answer with the same precise cli_error.
    const auto message =
        parse_error("kd:n=1024,k=2,d=4,kernel=level,par=round,warmup=ff");
    EXPECT_NE(message.find("kernel=level has no round-parallel kernel"),
              std::string::npos)
        << message;
    scenario sc = parse_scenario("kd:n=1024,k=2,d=4,kernel=level,warmup=ff");
    sc.par = kdc::core::par_mode::round;
    EXPECT_THROW((void)plan_fast_forward(sc), cli_error);
    EXPECT_THROW((void)make_process(sc, /*seed=*/1), cli_error);
}

TEST(WarmupGrammar, ParsesRoundTripsAndValidates) {
    EXPECT_EQ(parse_scenario("kd:n=1024,k=2,d=4").warmup, warmup_mode::full);
    const auto sc = parse_scenario("kd:n=1024,k=2,d=4,warmup=ff");
    EXPECT_EQ(sc.warmup, warmup_mode::fast_forward);
    const std::string text = kdc::core::to_string(sc);
    EXPECT_NE(text.find("warmup=ff"), std::string::npos);
    EXPECT_EQ(parse_scenario(text).warmup, warmup_mode::fast_forward);

    const auto message = parse_error("kd:n=1024,k=2,d=4,warmup=bogus");
    EXPECT_NE(message.find("scenario key 'warmup'"), std::string::npos);
    EXPECT_NE(message.find("'ff'"), std::string::npos);
}

TEST(SteadyStateProfile, ExactBinsAndBallsForEveryPolicy) {
    // Small pilots stress the rescale/extrapolate path; the invariants must
    // hold exactly regardless: sum(counts) == n, sum(level*counts) == ff.
    const steady_state_options options{.pilot_bins = 4096, .pilot_reps = 2};
    const std::vector<std::string> texts{
        "kd:n=20000,k=8,d=16,kernel=level",
        "single:n=20000",
        "dchoice:n=20000,d=2",
        "one_plus_beta:n=20000,beta=0.5",
    };
    for (const auto& text : texts) {
        const auto sc = parse_scenario(text);
        const ff_plan plan = plan_fast_forward(sc);
        const level_profile profile =
            steady_state_profile(sc, plan, 200'000, /*seed=*/3, options);
        EXPECT_EQ(profile.n(), 20'000u) << text;
        EXPECT_EQ(profile.total_balls(), 200'000u) << text;
    }
}

TEST(SteadyStateProfile, SingleChoicePoissonShape) {
    // Single-choice at density 10 is Poisson(10): the closed form must put
    // the profile's mode at the distribution's (levels 9/10) and keep a
    // spread-out tail rather than piling everything on one level.
    const auto sc = parse_scenario("single:n=200000");
    const level_profile profile =
        steady_state_profile(sc, plan_fast_forward(sc), 2'000'000,
                             /*seed=*/5);
    std::uint64_t mode = 0;
    for (std::uint64_t level = 0; level <= profile.max_level(); ++level) {
        if (profile.bins_at(level) > profile.bins_at(mode)) {
            mode = level;
        }
    }
    EXPECT_GE(mode, 8u);
    EXPECT_LE(mode, 12u);
    EXPECT_GE(profile.max_level(), 15u);
    EXPECT_LT(profile.bins_at(mode), profile.n() / 2);
}

TEST(FastForwardedProcess, AccountingAndLightRunDegeneration) {
    const auto sc =
        parse_scenario("kd:n=10000,k=8,d=16,kernel=level,warmup=ff");
    const ff_plan plan = plan_fast_forward(sc);

    fast_forwarded_process heavy(sc, plan, /*seed=*/11);
    // Before the first run_balls nothing has happened yet.
    EXPECT_EQ(heavy.skipped_balls(), 0u);
    EXPECT_EQ(heavy.observe().balls_placed, 0u);
    EXPECT_EQ(heavy.observe().empty_bins, 10'000u);

    heavy.run_balls(100'000);
    const ff_split split = fast_forward_split(sc, 100'000);
    EXPECT_EQ(heavy.skipped_balls(), split.ff_balls);
    EXPECT_GT(heavy.skipped_balls(), 0u);
    // balls_placed counts the skipped prefix (the profile really holds
    // those balls); messages counts the settled suffix only.
    EXPECT_EQ(heavy.observe().balls_placed, 100'000u);
    EXPECT_EQ(heavy.observe().messages,
              split.settle_balls * (sc.d / sc.k));
    EXPECT_EQ(heavy.sorted_loads().size(), 10'000u);

    // total <= n: warmup=ff degenerates to warmup=full exactly.
    fast_forwarded_process light(sc, plan, /*seed=*/11);
    light.run_balls(10'000);
    EXPECT_EQ(light.skipped_balls(), 0u);
    EXPECT_EQ(light.observe().balls_placed, 10'000u);

    // Through the declarative factory the wrapper's own accounting wins
    // (any_process defers to the self-observable wrapper).
    auto process = make_process(sc, /*seed=*/11);
    process.run_balls(100'000);
    EXPECT_EQ(process.observe().balls_placed, 100'000u);
}

TEST(FastForwardValidation, IndistinguishableFromFullWarmupAtReachableN) {
    const auto sc = parse_scenario(
        "kd:n=100000,k=8,d=16,balls=1000000,kernel=level,warmup=ff");
    const auto result = validate_fast_forward(sc, /*reps=*/10,
                                              /*seed=*/2026);
    EXPECT_EQ(result.reps, 10u);
    // The acceptance gate mirrors `micro_throughput --validate-warmup`:
    // none of the three KS comparisons may reject at the 0.001 level.
    EXPECT_GT(result.max_load_ks.p_value, 0.001);
    EXPECT_GT(result.gap_ks.p_value, 0.001);
    EXPECT_GT(result.loads_ks.p_value, 0.001);
}

TEST(FastForwardSnapshot, ResumedRunMatchesUninterruptedKS) {
    // The snapshot-staging path end to end: synthesize the fast-forward
    // profile, persist it, reload it, continue the run from the reloaded
    // profile — and show the result is statistically indistinguishable
    // from an uninterrupted full simulation at n = 10^5.
    const auto sc = parse_scenario(
        "kd:n=100000,k=8,d=16,balls=1000000,kernel=level,warmup=ff");
    const ff_plan plan = plan_fast_forward(sc);
    const std::uint64_t total = resolved_balls(sc);
    const ff_split split = fast_forward_split(sc, total);
    ASSERT_EQ(split.ff_balls, 900'000u);

    const std::uint32_t reps = 10;
    std::vector<double> resumed_max, resumed_gap, full_max, full_gap;
    std::vector<double> resumed_loads, full_loads;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        const std::uint64_t seed = kdc::rng::derive_seed(77, rep);
        const level_profile synthesized =
            steady_state_profile(sc, plan, split.ff_balls, seed);
        std::stringstream buffer;
        synthesized.save(buffer);
        level_profile reloaded = level_profile::load(buffer);
        ASSERT_EQ(reloaded, synthesized);

        kd_choice_level_process resumed(std::move(reloaded), sc.k, sc.d,
                                        seed);
        resumed.run_balls(split.settle_balls);
        const auto metrics = resumed.profile().metrics();
        resumed_max.push_back(static_cast<double>(metrics.max_load));
        resumed_gap.push_back(metrics.gap);
        if (rep == 0) {
            resumed_loads = pooled_loads(resumed.profile());
        }

        kd_choice_level_process full(sc.n, sc.k, sc.d,
                                     kdc::rng::derive_seed(77, reps + rep));
        full.run_balls(total);
        const auto full_metrics = full.profile().metrics();
        full_max.push_back(static_cast<double>(full_metrics.max_load));
        full_gap.push_back(full_metrics.gap);
        if (rep == 0) {
            full_loads = pooled_loads(full.profile());
        }
    }

    const auto max_ks = kdc::stats::ks_two_sample(resumed_max, full_max);
    const auto gap_ks = kdc::stats::ks_two_sample(resumed_gap, full_gap);
    const auto loads_ks =
        kdc::stats::ks_two_sample(resumed_loads, full_loads);
    EXPECT_GT(max_ks.p_value, 0.001);
    EXPECT_GT(gap_ks.p_value, 0.001);
    EXPECT_GT(loads_ks.p_value, 0.001);
}

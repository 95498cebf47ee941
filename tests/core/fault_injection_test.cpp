// Deterministic fault injection: plan grammar, hit counting, action
// dispatch, the env-beats-flag arming rule, and the graceful-degradation
// paths the sites exist to exercise (perbin -> level fallback, sharded
// kernel propagation).
#include "core/fault_injection.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sharded_kernel.hpp"
#include "core/sweep.hpp"
#include "support/cli.hpp"

namespace {

using kdc::arg_parser;
using kdc::cli_error;
using kdc::core::arm_faults;
using kdc::core::arm_faults_from_cli;
using kdc::core::disarm_faults;
using kdc::core::fault_action;
using kdc::core::fault_plan;
using kdc::core::fault_point;
using kdc::core::fault_site;
using kdc::core::fault_site_count;
using kdc::core::fault_site_name;
using kdc::core::fault_site_names;
using kdc::core::faults_armed;
using kdc::core::injected_io_error;
using kdc::core::snapshot_path_sites;

/// Every test leaves the process disarmed, whatever happens inside.
class FaultInjection : public ::testing::Test {
protected:
    void TearDown() override {
        disarm_faults();
        unsetenv("KDC_FAULTS");
    }
};

TEST_F(FaultInjection, ParsesRulesHitsAndMultiRulePlans) {
    const auto plan = fault_plan::parse(
        "snapshot.write:io_error@1;snapshot.rename:crash@2;"
        "perbin.alloc:alloc_fail");
    ASSERT_EQ(plan.rules.size(), 3u);
    EXPECT_EQ(plan.rules[0].site, fault_site::snapshot_write);
    EXPECT_EQ(plan.rules[0].action, fault_action::io_error);
    EXPECT_EQ(plan.rules[0].hit, 1u);
    EXPECT_EQ(plan.rules[1].site, fault_site::snapshot_rename);
    EXPECT_EQ(plan.rules[1].action, fault_action::crash);
    EXPECT_EQ(plan.rules[1].hit, 2u);
    EXPECT_EQ(plan.rules[2].site, fault_site::perbin_alloc);
    EXPECT_EQ(plan.rules[2].action, fault_action::alloc_fail);
    EXPECT_EQ(plan.rules[2].hit, 1u); // default hit
}

TEST_F(FaultInjection, RejectsMalformedSpecsWithPreciseErrors) {
    EXPECT_THROW((void)fault_plan::parse("nosuch.site:crash"), cli_error);
    EXPECT_THROW((void)fault_plan::parse("snapshot.write:explode"),
                 cli_error);
    EXPECT_THROW((void)fault_plan::parse("snapshot.write"), cli_error);
    EXPECT_THROW((void)fault_plan::parse(":crash"), cli_error);
    EXPECT_THROW((void)fault_plan::parse("snapshot.write:crash@0"),
                 cli_error);
    EXPECT_THROW((void)fault_plan::parse("snapshot.write:crash@"),
                 cli_error);
    EXPECT_THROW((void)fault_plan::parse("snapshot.write:crash@two"),
                 cli_error);
    EXPECT_THROW((void)fault_plan::parse("snapshot.write:crash;;"),
                 cli_error);
}

TEST_F(FaultInjection, SiteNamesRoundTripThroughTheParser) {
    const auto names = fault_site_names();
    ASSERT_EQ(names.size(), fault_site_count);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto plan = fault_plan::parse(names[i] + ":crash");
        ASSERT_EQ(plan.rules.size(), 1u);
        EXPECT_EQ(plan.rules[0].site, static_cast<fault_site>(i));
        EXPECT_EQ(fault_site_name(plan.rules[0].site), names[i]);
    }
}

TEST_F(FaultInjection, FiresOnExactlyTheStatedHit) {
    arm_faults(fault_plan::parse("steady.pilot:io_error@3"));
    EXPECT_TRUE(faults_armed());
    EXPECT_NO_THROW(fault_point(fault_site::steady_pilot)); // hit 1
    EXPECT_NO_THROW(fault_point(fault_site::steady_pilot)); // hit 2
    try {
        fault_point(fault_site::steady_pilot); // hit 3: fires
        FAIL() << "hit 3 should have thrown";
    } catch (const injected_io_error& err) {
        EXPECT_EQ(err.site(), fault_site::steady_pilot);
    }
    // Hits PAST the stated one pass through again — this is what lets the
    // snapshot writer's retry succeed after an io_error@1.
    EXPECT_NO_THROW(fault_point(fault_site::steady_pilot)); // hit 4
    // Other sites are untouched.
    EXPECT_NO_THROW(fault_point(fault_site::snapshot_write));
}

TEST_F(FaultInjection, AllocFailThrowsBadAllocAndDisarmStops) {
    arm_faults(fault_plan::parse("perbin.alloc:alloc_fail@1"));
    EXPECT_THROW(fault_point(fault_site::perbin_alloc), std::bad_alloc);
    disarm_faults();
    EXPECT_FALSE(faults_armed());
    EXPECT_NO_THROW(fault_point(fault_site::perbin_alloc));
    // Re-arming resets the hit counters.
    arm_faults(fault_plan::parse("perbin.alloc:alloc_fail@1"));
    EXPECT_THROW(fault_point(fault_site::perbin_alloc), std::bad_alloc);
}

TEST_F(FaultInjection, EnvOverridesTheFlagAndEmptyEnvDoesNot) {
    arg_parser args;
    args.add_fault_options();
    const std::array argv{"prog",
                          "--inject-faults=snapshot.write:io_error@7"};
    ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));

    setenv("KDC_FAULTS", "resume.load:io_error@2", 1);
    EXPECT_TRUE(arm_faults_from_cli(args));
    EXPECT_NO_THROW(fault_point(fault_site::resume_load)); // hit 1
    EXPECT_THROW(fault_point(fault_site::resume_load), injected_io_error);
    // The flag's rule must NOT be armed: the env replaced it wholesale.
    for (int i = 0; i < 10; ++i) {
        EXPECT_NO_THROW(fault_point(fault_site::snapshot_write));
    }

    // An EMPTY env falls back to the flag.
    setenv("KDC_FAULTS", "", 1);
    EXPECT_TRUE(arm_faults_from_cli(args));
    for (int i = 0; i < 6; ++i) {
        EXPECT_NO_THROW(fault_point(fault_site::snapshot_write));
    }
    EXPECT_THROW(fault_point(fault_site::snapshot_write), injected_io_error);
}

TEST_F(FaultInjection, NoSpecAnywhereLeavesFaultsDisarmed) {
    arg_parser args;
    args.add_fault_options();
    const std::array argv{"prog"};
    ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
    unsetenv("KDC_FAULTS");
    EXPECT_FALSE(arm_faults_from_cli(args));
    EXPECT_FALSE(faults_armed());
}

TEST_F(FaultInjection, SnapshotPathSitesAreAllRealSites) {
    const auto sites = snapshot_path_sites();
    EXPECT_GE(sites.size(), 7u);
    for (const fault_site site : sites) {
        EXPECT_LT(static_cast<std::size_t>(site), fault_site_count);
        EXPECT_STRNE(fault_site_name(site), "invalid");
    }
}

TEST_F(FaultInjection, MakeProcessDegradesPerbinToLevelOnAllocFail) {
    // The graceful-degradation satellite: a bad_alloc during per-bin state
    // construction falls back to the level kernel when the policy has one
    // (kd does) — the returned process still runs and reports.
    kdc::core::scenario sc;
    sc.n = 1024;
    sc.k = 2;
    sc.d = 4;
    sc.kernel = kdc::core::kernel_choice::per_bin;
    arm_faults(fault_plan::parse("perbin.alloc:alloc_fail@1"));
    auto process = kdc::core::make_process(sc, 11);
    disarm_faults();
    process.run_balls(1024);
    const auto observed = process.observe();
    EXPECT_EQ(observed.balls_placed, 1024u);

    // The fallback must match the level kernel bit for bit (same factory,
    // same seed).
    sc.kernel = kdc::core::kernel_choice::level;
    auto level = kdc::core::make_process(sc, 11);
    level.run_balls(1024);
    EXPECT_EQ(level.observe().max_load, observed.max_load);
}

TEST_F(FaultInjection, MakeProcessRethrowsWhenNoLevelFallbackExists) {
    // greedy has no level kernel: the bad_alloc must surface, not vanish.
    kdc::core::scenario sc;
    sc.n = 256;
    sc.k = 2;
    sc.d = 4;
    sc.family = "greedy";
    arm_faults(fault_plan::parse("perbin.alloc:alloc_fail@1"));
    EXPECT_THROW((void)kdc::core::make_process(sc, 5), std::bad_alloc);

    // par=round has no level kernel either: the sharded per-bin build is
    // not retried under a level label.
    sc.family = "kd";
    sc.par = kdc::core::par_mode::round;
    arm_faults(fault_plan::parse("perbin.alloc:alloc_fail@1"));
    EXPECT_THROW((void)kdc::core::make_process(sc, 5), std::bad_alloc);
}

/// A three-rep, one-worker sweep of `sc` with `plan` armed for its run.
/// At this seed the kd kernels' first reps differ in empty bins (at seed 8
/// they happen to agree).
std::vector<kdc::core::repetition_result>
swept_reps(const kdc::core::scenario& sc, const char* plan) {
    const auto cell = kdc::core::make_scenario_cell(
        "cell", sc, {.balls = 4096, .reps = 3, .seed = 9});
    if (plan != nullptr) {
        arm_faults(fault_plan::parse(plan));
    }
    kdc::core::sweep_options options;
    options.threads = 1;
    auto outcomes = kdc::core::run_sweep({cell}, options);
    disarm_faults();
    return std::move(outcomes[0].result.reps);
}

TEST_F(FaultInjection, SweepCellDegradesPerbinToLevelOnAllocFail) {
    // Sweep cells build through the same path as make_process: the first
    // rep hits the armed site and runs on the level kernel, the rest stay
    // per-bin.
    auto sc = kdc::core::parse_scenario("kd:n=4096,k=2,d=4,kernel=perbin");
    const auto faulted = swept_reps(sc, "perbin.alloc:alloc_fail@1");
    const auto perbin = swept_reps(sc, nullptr);
    sc.kernel = kdc::core::kernel_choice::level;
    const auto level = swept_reps(sc, nullptr);
    const auto same = [](const kdc::core::repetition_result& a,
                         const kdc::core::repetition_result& b) {
        return a.max_load == b.max_load && a.gap == b.gap &&
               a.empty_bins == b.empty_bins;
    };
    ASSERT_EQ(faulted.size(), 3u);
    EXPECT_TRUE(same(faulted[0], level[0]));
    EXPECT_FALSE(same(faulted[0], perbin[0]));
    for (std::size_t rep = 1; rep < faulted.size(); ++rep) {
        EXPECT_TRUE(same(faulted[rep], perbin[rep])) << rep;
    }
}

TEST_F(FaultInjection, SweepCellRethrowsWhenNoLevelFallbackExists) {
    const auto sc = kdc::core::parse_scenario("greedy:n=4096,k=2,d=4");
    EXPECT_THROW((void)swept_reps(sc, "perbin.alloc:alloc_fail@1"),
                 std::bad_alloc);
}

TEST_F(FaultInjection, ShardedKernelPropagatesInjectedIoErrors) {
    // The shard.* sites sit at the phase boundaries of the per-bin sharded
    // kernel; an io_error there must unwind out of run_balls.
    const auto names = std::vector<std::string>{
        "shard.pregen", "shard.bucket", "shard.gather", "shard.select",
        "shard.commit"};
    for (const auto& name : names) {
        arm_faults(fault_plan::parse(name + ":io_error@1"));
        kdc::core::sharded_kd_process process(2048, 2, 4, 17);
        EXPECT_THROW(process.run_balls(2048), injected_io_error) << name;
        disarm_faults();
    }
}

} // namespace

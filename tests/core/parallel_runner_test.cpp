#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::core::experiment_config;
using kdc::core::experiment_result;
using kdc::core::run_experiment;
using kdc::core::run_parallel_experiment;
using kdc::core::thread_pool;

/// The serial reference: `text` (a per-bin scenario) through the scenario
/// entry point.
experiment_result serial(const char* text, const experiment_config& config) {
    return kdc::core::run_scenario_experiment(kdc::core::parse_scenario(text),
                                              config);
}

auto kd_factory(std::uint64_t n, std::uint64_t k, std::uint64_t d) {
    return [=](std::uint64_t seed) {
        return kdc::core::kd_choice_process(n, k, d, seed);
    };
}

/// Rep-for-rep and aggregate-for-aggregate bitwise equality. running_stats
/// and histogram aggregates are compared through their exact accessors, so
/// any fold-order difference (which would perturb floating-point sums) fails.
void expect_identical(const experiment_result& serial,
                      const experiment_result& parallel) {
    ASSERT_EQ(serial.reps.size(), parallel.reps.size());
    for (std::size_t i = 0; i < serial.reps.size(); ++i) {
        EXPECT_EQ(serial.reps[i].max_load, parallel.reps[i].max_load) << i;
        EXPECT_EQ(serial.reps[i].gap, parallel.reps[i].gap) << i;
        EXPECT_EQ(serial.reps[i].messages, parallel.reps[i].messages) << i;
        EXPECT_EQ(serial.reps[i].empty_bins, parallel.reps[i].empty_bins)
            << i;
    }
    EXPECT_EQ(serial.max_load_set(), parallel.max_load_set());
    EXPECT_EQ(serial.max_load_stats.count(), parallel.max_load_stats.count());
    // Bitwise, not approximate: the parallel runner promises the identical
    // fold, so even the variance accumulators must match exactly.
    EXPECT_EQ(serial.max_load_stats.mean(), parallel.max_load_stats.mean());
    EXPECT_EQ(serial.max_load_stats.variance(),
              parallel.max_load_stats.variance());
    EXPECT_EQ(serial.gap_stats.mean(), parallel.gap_stats.mean());
    EXPECT_EQ(serial.gap_stats.variance(), parallel.gap_stats.variance());
    EXPECT_EQ(serial.message_stats.mean(), parallel.message_stats.mean());
    EXPECT_EQ(serial.message_stats.variance(),
              parallel.message_stats.variance());
}

TEST(ParallelRunner, MatchesSerialAtOneTwoAndEightThreads) {
    const experiment_config config{.balls = 512, .reps = 12, .seed = 42};
    const auto reference = serial("kd:n=512,k=2,d=4,kernel=perbin", config);
    for (const unsigned threads : {1u, 2u, 8u}) {
        const auto parallel =
            run_parallel_experiment(config, kd_factory(512, 2, 4), threads);
        expect_identical(reference, parallel);
    }
}

TEST(ParallelRunner, MatchesSerialForSingleAndDChoice) {
    const experiment_config config{.balls = 256, .reps = 9, .seed = 7};
    for (const unsigned threads : {1u, 2u, 8u}) {
        expect_identical(
            serial("single:n=256,kernel=perbin", config),
            run_parallel_experiment(
                config,
                [](std::uint64_t seed) {
                    return kdc::core::single_choice_process(256, seed);
                },
                threads));
        expect_identical(
            serial("dchoice:n=256,d=3,kernel=perbin", config),
            run_parallel_experiment(
                config,
                [](std::uint64_t seed) {
                    return kdc::core::d_choice_process(256, 3, seed);
                },
                threads));
    }
}

TEST(ParallelRunner, MatchesSerialWithCustomFactory) {
    const experiment_config config{.balls = 300, .reps = 10, .seed = 3};
    const auto factory = [](std::uint64_t seed) {
        return kdc::core::kd_choice_process(300, 3, 7, seed);
    };
    const auto serial = run_experiment(config, factory);
    for (const unsigned threads : {1u, 2u, 8u}) {
        expect_identical(serial,
                         run_parallel_experiment(config, factory, threads));
    }
}

TEST(ParallelRunner, ZeroThreadsMeansHardwareConcurrency) {
    const experiment_config config{.balls = 128, .reps = 4, .seed = 11};
    expect_identical(serial("kd:n=128,k=2,d=4,kernel=perbin", config),
                     run_parallel_experiment(config, kd_factory(128, 2, 4), 0));
}

TEST(ParallelRunner, MoreThreadsThanRepsIsFine) {
    const experiment_config config{.balls = 64, .reps = 2, .seed = 5};
    expect_identical(serial("kd:n=64,k=2,d=4,kernel=perbin", config),
                     run_parallel_experiment(config, kd_factory(64, 2, 4), 16));
}

TEST(ParallelRunner, DefaultBallsRoundsDownToWholeRounds) {
    // n = 100, k = 3: the scenario default is the 99-ball whole-rounds
    // count, exactly what the parallel runner gets from whole_rounds_balls.
    const experiment_config config{.balls = 0, .reps = 3, .seed = 2};
    const experiment_config whole_rounds{
        .balls = kdc::core::whole_rounds_balls(100, 3), .reps = 3, .seed = 2};
    expect_identical(serial("kd:n=100,k=3,d=7,kernel=perbin", config),
                     run_parallel_experiment(whole_rounds,
                                             kd_factory(100, 3, 7), 4));
}

TEST(ParallelRunner, PropagatesFactoryExceptions) {
    const experiment_config config{.balls = 30, .reps = 8, .seed = 1};
    EXPECT_THROW(
        (void)run_parallel_experiment(
            config,
            [](std::uint64_t seed) {
                if (seed != 0) { // every derived seed in practice
                    throw std::runtime_error("factory failed");
                }
                return kdc::core::single_choice_process(16, seed);
            },
            4),
        std::runtime_error);
}

TEST(ParallelRunner, RejectsZeroReps) {
    const experiment_config config{.balls = 16, .reps = 0, .seed = 1};
    EXPECT_THROW((void)run_parallel_experiment(config, kd_factory(16, 2, 4), 2),
                 kdc::contract_violation);
}

TEST(ThreadPool, RunsEverySubmittedJobAcrossWorkers) {
    thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&counter] { ++counter; });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleWithNothingSubmittedReturns) {
    thread_pool pool(2);
    pool.wait_idle();
}

TEST(ThreadPool, CanBeReusedAfterWaitIdle) {
    thread_pool pool(3);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i) {
            pool.submit([&counter] { ++counter; });
        }
        pool.wait_idle();
    }
    EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPool, RejectsZeroWorkers) {
    EXPECT_THROW(thread_pool pool(0), kdc::contract_violation);
}

TEST(ThreadPool, DrainsManyTinyJobsAcrossStealingWorkers) {
    // Far more jobs than workers: round-robin placement plus stealing must
    // still execute every job exactly once.
    thread_pool pool(8);
    std::atomic<int> counter{0};
    for (int i = 0; i < 2000; ++i) {
        pool.submit([&counter] { ++counter; });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 2000);
}

TEST(ThreadPool, SubmitFromInsideAJobIsSafe) {
    // Workers may enqueue follow-up work; wait_idle must cover jobs
    // submitted by jobs.
    thread_pool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&pool, &counter] {
            for (int child = 0; child < 8; ++child) {
                pool.submit([&counter] { ++counter; });
            }
        });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 16 * 8);
}

TEST(ThreadPool, SingleWorkerStillDrainsEverything) {
    thread_pool pool(1);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&counter] { ++counter; });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 50);
}

} // namespace

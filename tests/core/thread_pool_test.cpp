#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/process.hpp"
#include "core/sweep.hpp"
#include "support/contracts.hpp"

namespace {

using kdc::core::make_sweep_cell;
using kdc::core::persistent_pool;
using kdc::core::resolve_thread_count;
using kdc::core::run_sweep;
using kdc::core::sweep_options;
using kdc::core::thread_pool;

std::vector<kdc::core::sweep_cell> small_grid() {
    std::vector<kdc::core::sweep_cell> cells;
    cells.push_back(make_sweep_cell(
        "kd(2,4)", {.balls = 64, .reps = 6, .seed = 3},
        [](std::uint64_t s) {
            return kdc::core::kd_choice_process(64, 2, 4, s);
        }));
    cells.push_back(make_sweep_cell(
        "single", {.balls = 48, .reps = 4, .seed = 9},
        [](std::uint64_t s) {
            return kdc::core::single_choice_process(48, s);
        }));
    return cells;
}

/// The set of worker thread ids that executed at least one job of a sweep
/// on the persistent pool.
std::set<std::thread::id> worker_ids_during_sweep(unsigned threads) {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    auto cells = small_grid();
    for (auto& cell : cells) {
        const auto inner = cell.run_rep;
        cell.run_rep = [inner, &mutex, &ids](std::uint64_t seed) {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                ids.insert(std::this_thread::get_id());
            }
            return inner(seed);
        };
    }
    sweep_options options;
    options.threads = threads;
    (void)run_sweep(cells, options);
    return ids;
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
    // Far more jobs than workers: the shared queue must still hand every
    // job to exactly one worker.
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

TEST(ThreadPool, PhaseRangeDealsLikeShardLayout) {
    for (const std::uint64_t total : {1ull, 7ull, 64ull, 1001ull}) {
        for (std::size_t parts = 1; parts <= 9; ++parts) {
            std::uint64_t cursor = 0;
            std::uint64_t previous_size = total; // sizes are non-increasing
            for (std::size_t part = 0; part < parts; ++part) {
                const auto [begin, end] =
                    thread_pool::phase_range(total, parts, part);
                EXPECT_EQ(begin, cursor);
                EXPECT_GE(end, begin);
                EXPECT_LE(end - begin, previous_size);
                previous_size = end - begin;
                cursor = end;
            }
            EXPECT_EQ(cursor, total);
        }
    }
}

TEST(ThreadPool, RunRangesCoversEveryIndexExactlyOnce) {
    thread_pool pool(4);
    std::vector<std::uint32_t> hits(1000, 0);
    pool.run_ranges(hits.size(), 7,
                    [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
                        for (std::uint64_t i = begin; i < end; ++i) {
                            ++hits[i]; // ranges are disjoint: no race
                        }
                    });
    for (const auto hit : hits) {
        EXPECT_EQ(hit, 1u);
    }
    // More parts than indices: the empty tail ranges must be harmless.
    std::fill(hits.begin(), hits.end(), 0u);
    pool.run_ranges(5, 9,
                    [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
                        for (std::uint64_t i = begin; i < end; ++i) {
                            ++hits[i];
                        }
                    });
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(hits[i], 1u);
    }
}

TEST(ThreadPool, RunRangesInsideJobsCompletesWhileEveryWorkerIsBusy) {
    // The sharded kernel calls run_ranges from inside engine jobs. Here both
    // workers hold an outer job when run_ranges starts, so no helper can run
    // until the callers have drained their own parts.
    thread_pool pool(2);
    std::atomic<int> started{0};
    std::vector<std::vector<std::uint32_t>> hits(
        2, std::vector<std::uint32_t>(1000, 0));
    for (std::size_t job = 0; job < hits.size(); ++job) {
        pool.submit([&, job] {
            ++started;
            while (started.load() < 2) {
                std::this_thread::yield();
            }
            pool.run_ranges(
                1000, 8,
                [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t i = begin; i < end; ++i) {
                        ++hits[job][i];
                    }
                });
        });
    }
    pool.wait_idle();
    for (const auto& job_hits : hits) {
        for (const auto hit : job_hits) {
            EXPECT_EQ(hit, 1u);
        }
    }
}

TEST(ThreadPool, DestructorRunsEveryQueuedJobBeforeJoining) {
    std::atomic<int> counter{0};
    {
        thread_pool pool(1);
        // Occupy the only worker so the jobs below are still queued when
        // the destructor starts.
        pool.submit([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });
        for (int i = 0; i < 50; ++i) {
            pool.submit([&counter] { ++counter; });
        }
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PersistentPoolReusesWorkersAcrossConsecutiveSweeps) {
    // Warm the pool at a fixed size, then run two sweeps: the process-wide
    // spawn counter must not move (no thread was re-spawned), and every
    // job-executing thread id must belong to the warm pool's worker set.
    thread_pool& pool = persistent_pool(3);
    ASSERT_EQ(pool.size(), 3u);
    const std::uint64_t spawned_before = thread_pool::threads_spawned();

    const auto first = worker_ids_during_sweep(3);
    const auto second = worker_ids_during_sweep(3);
    EXPECT_EQ(thread_pool::threads_spawned(), spawned_before)
        << "consecutive sweeps respawned pool workers";
    EXPECT_FALSE(first.empty());
    EXPECT_FALSE(second.empty());

    // Same singleton, untouched.
    EXPECT_EQ(&persistent_pool(3), &pool);

    // Both sweeps ran on workers of one 3-thread pool.
    std::set<std::thread::id> all(first.begin(), first.end());
    all.insert(second.begin(), second.end());
    EXPECT_LE(all.size(), 3u);
}

TEST(ThreadPool, PersistentPoolResizesOnlyWhenTheRequestChanges) {
    thread_pool& two = persistent_pool(2);
    EXPECT_EQ(two.size(), 2u);
    const std::uint64_t spawned_before = thread_pool::threads_spawned();
    EXPECT_EQ(persistent_pool(2).size(), 2u);
    EXPECT_EQ(thread_pool::threads_spawned(), spawned_before)
        << "same-size request must not respawn";
    // A different request tears down and respawns at the new size.
    EXPECT_EQ(persistent_pool(5).size(), 5u);
    EXPECT_EQ(thread_pool::threads_spawned(), spawned_before + 5);
}

TEST(ThreadPool, PersistentPoolResolvesZeroToHardwareThreads) {
    EXPECT_EQ(persistent_pool(0).size(), resolve_thread_count(0));
}

TEST(ThreadPool, SubmitExceptionRethrowsAtWaitIdleAndPoolStaysUsable) {
    thread_pool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&ran, i] {
            if (i == 4) {
                throw std::runtime_error("job 4 failed");
            }
            ++ran;
        });
    }
    try {
        pool.wait_idle();
        FAIL() << "wait_idle should rethrow the job's exception";
    } catch (const std::runtime_error& err) {
        EXPECT_STREQ(err.what(), "job 4 failed");
    }
    EXPECT_EQ(ran.load(), 7);

    // The error is cleared on rethrow: the pool is reusable and a clean
    // second batch neither throws nor resurrects the old exception.
    ran = 0;
    for (int i = 0; i < 8; ++i) {
        pool.submit([&ran] { ++ran; });
    }
    EXPECT_NO_THROW(pool.wait_idle());
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, FirstSubmitExceptionWinsWhenManyJobsThrow) {
    thread_pool pool(4);
    for (int i = 0; i < 32; ++i) {
        pool.submit([] { throw std::runtime_error("boom"); });
    }
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // Exactly one exception is kept; the rest were swallowed, and the
    // pool drains clean afterwards.
    EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, RunPhaseBodyExceptionRethrowsAtTheBarrier) {
    thread_pool pool(4);
    std::atomic<std::uint32_t> executed{0};
    try {
        pool.run_ranges(64, 64,
                        [&](std::size_t part, std::uint64_t, std::uint64_t) {
                            if (part == 10) {
                                throw std::runtime_error(
                                    "phase body 10 failed");
                            }
                            ++executed;
                        });
        FAIL() << "run_ranges should rethrow the body's exception";
    } catch (const std::runtime_error& err) {
        EXPECT_STREQ(err.what(), "phase body 10 failed");
    }
    // The thrower short-circuits the remaining indices, so not all 63
    // healthy bodies need have run — but the barrier completed (we are
    // here) and nothing ran twice.
    EXPECT_LE(executed.load(), 63u);

    // The next phase on the same pool is clean and complete.
    executed = 0;
    EXPECT_NO_THROW(pool.run_ranges(
        64, 64,
        [&](std::size_t, std::uint64_t, std::uint64_t) { ++executed; }));
    EXPECT_EQ(executed.load(), 64u);
}

TEST(ThreadPool, RunPhaseFirstExceptionWinsUnderConcurrentThrowers) {
    thread_pool pool(4);
    for (int round = 0; round < 20; ++round) {
        EXPECT_THROW(pool.run_ranges(16, 16,
                                     [](std::size_t, std::uint64_t,
                                        std::uint64_t) {
                                         throw std::runtime_error("any");
                                     }),
                     std::runtime_error);
        // Each failed phase leaves the pool reusable for the next round.
    }
    std::atomic<std::uint32_t> executed{0};
    pool.run_ranges(16, 16, [&](std::size_t, std::uint64_t, std::uint64_t) {
        ++executed;
    });
    EXPECT_EQ(executed.load(), 16u);
}

TEST(ThreadPool, SpawnCounterTracksPrivatePools) {
    const std::uint64_t before = thread_pool::threads_spawned();
    {
        thread_pool pool(4);
        EXPECT_EQ(thread_pool::threads_spawned(), before + 4);
    }
    EXPECT_EQ(thread_pool::threads_spawned(), before + 4);
}

} // namespace

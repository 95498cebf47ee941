// Work-stealing thread pool plus the process-wide persistent pool every
// execution-engine entry point shares.
//
// The pool used to live inside core/parallel_runner.hpp and was re-spawned
// by every bench invocation; it is now its own layer so that run_sweep,
// run_grid and run_parallel_experiment can all reuse ONE set of workers for
// the lifetime of the process (see persistent_pool below). Scheduling order
// never influences results: callers fold per-job outputs in a fixed order of
// their own.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace kdc::core {

/// Work-stealing pool of worker threads. Each worker owns a deque of jobs;
/// submit() distributes jobs round-robin across the deques, a worker drains
/// its own deque front-first (FIFO) and, when empty, steals from the back of
/// a random victim's deque.
///
/// Exception contract: a job that throws does NOT kill its worker. The
/// pool captures the FIRST exception (later ones are dropped), finishes
/// draining, and rethrows it from the next wait_idle() call — after which
/// the pool is clean and fully reusable. run_ranges captures and rethrows
/// its first exception at the phase barrier instead (see run_ranges).
/// submit() is safe from any thread, including from inside a running job;
/// wait_idle() must be called from outside the pool's own workers.
class thread_pool {
public:
    /// Spawns `threads` workers (>= 1 enforced by contract).
    explicit thread_pool(unsigned threads);

    /// Joins all workers; pending jobs are still drained first.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Enqueues a job for execution on some worker.
    void submit(std::function<void()> job);

    /// Blocks until every submitted job has finished executing, then
    /// rethrows the first exception any of them threw (clearing it, so the
    /// pool stays usable afterwards).
    void wait_idle();

    /// Partitions [0, total) into `parts` contiguous ranges, runs
    /// body(part, begin, end) for each across the pool and returns when ALL
    /// of them have finished — the barrier primitive behind the sharded
    /// round-parallel kernel's phases (core/sharded_kernel.hpp); with
    /// parts == total every part is the single index begin.
    ///
    /// The calling thread PARTICIPATES: it claims parts like any worker,
    /// so run_ranges makes progress even when every worker is busy with
    /// other jobs, and is therefore safe to call from inside a running job
    /// (unlike wait_idle). Parts are claimed dynamically in an unspecified
    /// order; bodies must write to disjoint state per part (the sharded
    /// kernel's phases do). A body that throws short-circuits the phase:
    /// remaining parts are abandoned (already-started ones still finish),
    /// the barrier completes, and the FIRST exception is rethrown here on
    /// the calling thread. Nested run_ranges calls from inside a body are
    /// not supported.
    void run_ranges(std::uint64_t total, std::size_t parts,
                    const std::function<void(std::size_t, std::uint64_t,
                                             std::uint64_t)>& body);

    /// The [begin, end) slice part `part` owns when [0, total) is dealt
    /// into `parts` contiguous ranges: floor(total/parts) each, +1 for the
    /// first total mod parts — the same dealing rule as shard_layout, so
    /// range partitions and bin shards slice identically. Deterministic,
    /// pool-independent. Requires part < parts.
    [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t>
    phase_range(std::uint64_t total, std::size_t parts,
                std::size_t part) noexcept;

    [[nodiscard]] unsigned size() const noexcept {
        return static_cast<unsigned>(workers_.size());
    }

    /// Total worker threads ever spawned by any thread_pool in this process.
    /// Monotone; lets tests assert that consecutive sweeps on the persistent
    /// pool did NOT re-spawn workers.
    [[nodiscard]] static std::uint64_t threads_spawned() noexcept;

private:
    /// Runs body(0), ..., body(count - 1) across the pool under
    /// run_ranges's contract; run_ranges is this with the index space
    /// pre-sliced by phase_range.
    void run_phase(std::size_t count,
                   const std::function<void(std::size_t)>& body);

    /// One worker's job deque. Guarded by its own mutex so pushes, local
    /// pops and steals on different workers never contend with each other;
    /// the control mutex below is only taken for the brief counter updates.
    struct worker_deque {
        std::mutex mutex;
        std::deque<std::function<void()>> jobs;
    };

    void worker_loop(unsigned index);
    [[nodiscard]] bool try_pop_front(std::size_t queue_index,
                                     std::function<void()>& job);
    [[nodiscard]] bool try_steal_back(std::size_t queue_index,
                                      std::function<void()>& job);

    std::vector<std::unique_ptr<worker_deque>> deques_;

    // Counter invariant (both guarded by control_mutex_): a job is pushed to
    // a deque and counted in one critical section, so once a worker claims a
    // ticket (decrements unclaimed_) a matching job is guaranteed to sit in
    // some deque until that worker takes it.
    std::mutex control_mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    std::size_t unclaimed_ = 0;  // pushed but not yet claimed by a worker
    std::size_t in_flight_ = 0;  // unclaimed + currently executing jobs
    bool stopping_ = false;
    std::exception_ptr first_error_;  // first submit()-job exception, if any

    std::atomic<std::size_t> next_deque_{0};  // round-robin submit cursor
    std::vector<std::thread> workers_;
};

/// Resolves a user-facing thread-count request: 0 means "all hardware
/// threads" (at least 1 even if the runtime cannot tell), anything else is
/// taken literally.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested) noexcept;

/// The process-wide persistent pool: created on first use, then reused by
/// every subsequent call for the rest of the process (joined at exit).
/// `threads` is resolved via resolve_thread_count; asking for the size the
/// pool already has returns the live pool untouched — consecutive sweeps,
/// grids and experiments share one set of workers instead of re-spawning
/// them per invocation. Asking for a *different* resolved size tears the old
/// pool down (after its jobs drain) and spawns a fresh one; the previous
/// reference dangles, so callers must not hold the reference across a
/// resize. Serialized internally; must not be called from inside the pool's
/// own workers (resizing would join the calling thread).
[[nodiscard]] thread_pool& persistent_pool(unsigned threads = 0);

} // namespace kdc::core

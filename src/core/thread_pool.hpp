// FIFO thread pool plus the process-wide persistent pool every
// execution-engine entry point shares.
//
// One set of workers lives for the whole process (see persistent_pool
// below), so run_sweep and run_engine_grid never re-spawn threads between
// sweeps. Scheduling order never influences results: callers place each
// job's output by index and fold it in a fixed order of their own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace kdc::core {

/// Pool of worker threads sharing one FIFO job queue: submit() appends a
/// job, and each idle worker pops the front.
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

    void worker_loop();

    // The queue, the counters and the flags below are guarded by
    // control_mutex_.
    std::mutex control_mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    std::deque<std::function<void()>> jobs_;  // submitted, not yet started
    std::size_t in_flight_ = 0;  // queued plus currently executing jobs
    bool stopping_ = false;
    std::exception_ptr first_error_;  // first submit()-job exception, if any

    std::vector<std::thread> workers_;
};

/// Resolves a user-facing thread-count request: 0 means "all hardware
/// threads" (at least 1 even if the runtime cannot tell), anything else is
/// taken literally.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested) noexcept;

/// The process-wide persistent pool: created on first use, then reused by
/// every subsequent call for the rest of the process (joined at exit).
/// `threads` is resolved via resolve_thread_count; asking for the size the
/// pool already has returns the live pool untouched — consecutive sweeps
/// share one set of workers instead of re-spawning them per invocation. Asking for a *different* resolved size tears the old
/// pool down (after its jobs drain) and spawns a fresh one; the previous
/// reference dangles, so callers must not hold the reference across a
/// resize. Serialized internally; must not be called from inside the pool's
/// own workers (resizing would join the calling thread).
[[nodiscard]] thread_pool& persistent_pool(unsigned threads = 0);

} // namespace kdc::core

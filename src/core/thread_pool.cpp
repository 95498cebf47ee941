#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "support/contracts.hpp"

namespace kdc::core {

namespace {

std::atomic<std::uint64_t> threads_spawned_total{0};

} // namespace

std::uint64_t thread_pool::threads_spawned() noexcept {
    return threads_spawned_total.load(std::memory_order_relaxed);
}

thread_pool::thread_pool(unsigned threads) {
    KD_EXPECTS_MSG(threads >= 1, "a thread pool needs at least one worker");
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    threads_spawned_total.fetch_add(threads, std::memory_order_relaxed);
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(control_mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void thread_pool::submit(std::function<void()> job) {
    KD_EXPECTS_MSG(job != nullptr, "cannot submit an empty job");
    {
        const std::lock_guard<std::mutex> lock(control_mutex_);
        KD_EXPECTS_MSG(!stopping_, "pool is shutting down");
        jobs_.push_back(std::move(job));
        ++in_flight_;
    }
    work_available_.notify_one();
}

void thread_pool::wait_idle() {
    std::unique_lock<std::mutex> lock(control_mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    if (first_error_ != nullptr) {
        // First exception wins; clearing it here is what keeps the pool
        // reusable after a throwing batch.
        const std::exception_ptr error = std::exchange(first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

namespace {

/// Shared state of one run_phase call. Held by shared_ptr: helper jobs that
/// only get scheduled after the phase has completed (the caller does not
/// wait for them) find no indices left and just drop their reference.
struct phase_state {
    std::atomic<std::size_t> next{0};      // next unclaimed index
    std::size_t count = 0;
    std::mutex mutex;                      // guards completed + error + cv
    std::condition_variable all_complete;
    std::size_t completed = 0;
    std::exception_ptr error;              // first body exception, if any
};

/// Claims and executes indices until none are left; returns how many this
/// participant finished. A throwing body records the phase's first error
/// and short-circuits the index counter — the failed index still counts as
/// finished so the completion barrier is reached, not deadlocked.
std::size_t drain_phase(phase_state& state,
                        const std::function<void(std::size_t)>& body) {
    std::size_t finished = 0;
    for (;;) {
        const std::size_t index =
            state.next.fetch_add(1, std::memory_order_relaxed);
        if (index >= state.count) {
            return finished;
        }
        try {
            body(index);
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(state.mutex);
                if (state.error == nullptr) {
                    state.error = std::current_exception();
                }
            }
            // Abandon the unclaimed remainder: bump the counter past the
            // end so no participant claims another index, and credit this
            // participant with the failed index plus everything the bump
            // skipped — the completion count still reaches state.count, so
            // the barrier is reached, not deadlocked.
            const std::size_t stop = state.next.exchange(
                state.count, std::memory_order_relaxed);
            finished += 1;
            if (stop < state.count) {
                finished += state.count - stop;
            }
            continue;
        }
        ++finished;
    }
}

void record_finished(phase_state& state, std::size_t finished) {
    if (finished == 0) {
        return;
    }
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.completed += finished;
    if (state.completed == state.count) {
        state.all_complete.notify_all();
    }
}

} // namespace

void thread_pool::run_phase(std::size_t count,
                            const std::function<void(std::size_t)>& body) {
    if (count == 0) {
        return;
    }
    auto state = std::make_shared<phase_state>();
    state->count = count;
    // At most one helper per worker beyond the caller; each helper loops
    // over the shared index counter, so a single helper suffices for
    // correctness and the rest only add parallelism.
    const std::size_t helpers =
        std::min<std::size_t>(workers_.size(), count > 1 ? count - 1 : 0);
    for (std::size_t i = 0; i < helpers; ++i) {
        submit([state, &body] {
            // `body` stays alive until the caller returns, and the caller
            // cannot return before every index is finished — any helper
            // still inside drain_phase holds an unfinished index.
            record_finished(*state, drain_phase(*state, body));
        });
    }
    record_finished(*state, drain_phase(*state, body));
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_complete.wait(lock,
                             [&] { return state->completed == state->count; });
    if (state->error != nullptr) {
        const std::exception_ptr error = state->error;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void thread_pool::run_ranges(
    std::uint64_t total, std::size_t parts,
    const std::function<void(std::size_t, std::uint64_t, std::uint64_t)>&
        body) {
    if (total == 0 || parts == 0) {
        return;
    }
    run_phase(parts, [total, parts, &body](std::size_t part) {
        const auto [begin, end] = phase_range(total, parts, part);
        body(part, begin, end);
    });
}

std::pair<std::uint64_t, std::uint64_t>
thread_pool::phase_range(std::uint64_t total, std::size_t parts,
                         std::size_t part) noexcept {
    const std::uint64_t base = total / parts;
    const std::uint64_t extra = total % parts;
    const std::uint64_t begin =
        part * base + std::min<std::uint64_t>(part, extra);
    return {begin, begin + base + (part < extra ? 1 : 0)};
}

void thread_pool::worker_loop() {
    std::unique_lock<std::mutex> lock(control_mutex_);
    for (;;) {
        work_available_.wait(lock,
                             [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) {
            return; // stopping_ and every queued job taken
        }
        std::function<void()> job = std::move(jobs_.front());
        jobs_.pop_front();
        lock.unlock();
        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            error = std::current_exception();
        }
        job = nullptr; // release the job's captures outside the lock
        lock.lock();
        if (error != nullptr && first_error_ == nullptr) {
            first_error_ = std::move(error);
        }
        if (--in_flight_ == 0) {
            all_done_.notify_all();
        }
    }
}

unsigned resolve_thread_count(unsigned requested) noexcept {
    if (requested != 0) {
        return requested;
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware != 0 ? hardware : 1;
}

thread_pool& persistent_pool(unsigned threads) {
    // The unique_ptr (not a plain static pool) makes the resize path
    // explicit: same resolved size -> hand back the live pool, different
    // size -> drain, join and respawn. Destroyed on process exit like any
    // other function-local static.
    static std::mutex pool_mutex;
    static std::unique_ptr<thread_pool> pool;

    const unsigned resolved = resolve_thread_count(threads);
    const std::lock_guard<std::mutex> lock(pool_mutex);
    if (!pool || pool->size() != resolved) {
        pool.reset(); // join the old workers before spawning replacements
        pool = std::make_unique<thread_pool>(resolved);
    }
    return *pool;
}

} // namespace kdc::core

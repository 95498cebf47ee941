// The allocation service's dispatcher: accepts batched requests from a
// channel and serves them one by one, in id order, against a single
// per-bin load vector.
//
// A batch is served in two passes. Pass 1 draws every allocate's tape —
// probes and tie keys from a generator seeded derive_seed(seed, id),
// probes-then-keys per pool (one pool of d for batch mode, k pools of d
// for per-task mode) — into per-batch scratch, and prefetches the load of
// every probed bin and each release's live-table entry. Pass 2 walks the
// batch in id order: each allocate selects against the live loads and
// commits at once, so the next request of the same batch already sees it.
// The tape is a pure function of the request, so drawing it early changes
// nothing, and every choice sees exactly the loads a one-request-at-a-time
// server would: the chosen bins equal the serial oracle's
// (serve/service.hpp) for every batching.
//
// Batch-mode selection keeps the k smallest candidates by (height, key,
// probe index) in one pass (core::top_k, core/round_kernel.hpp).
//
// Releases are resolved SERVER-side: a release names the id of an earlier
// allocate, and the dispatcher looks the bins up in its live table. Clients
// never echo bins back, so a request's content cannot depend on an
// in-flight response — one of the two properties (with per-request tapes)
// that make the oracle comparison byte-exact.
//
// The live table is dense and indexed by request id: k bins per id and a
// state byte (never allocated / live / released), grown geometrically to
// cover the highest allocate id. Its memory is O(highest id * k), and
// every check (a release of a non-live or future id, a second allocate of
// one id) is O(1). An id is allocated at most once, and released at most
// once.
//
// Fault sites (docs/robustness.md): serve.accept fires when a non-empty
// batch is drained from the channel, serve.batch before a batch is served.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/round_kernel.hpp"
#include "core/types.hpp"
#include "serve/channel.hpp"
#include "serve/message.hpp"

namespace kdc::core {
class thread_pool;
} // namespace kdc::core

namespace kdc::serve {

struct dispatcher_config {
    std::uint64_t bins = 1;
    std::uint64_t k = 1;          ///< balls per allocate request
    std::uint64_t d = 2;          ///< probe budget per allocate request
    probing mode = probing::batch;
    std::uint64_t seed = 1;       ///< master seed; request id selects the stream
    std::uint64_t shards = 1;     ///< unread; perfbench/main.cpp still sets it
};

class dispatcher {
public:
    /// `pool` is unread; perfbench/main.cpp still passes one.
    explicit dispatcher(const dispatcher_config& config,
                        core::thread_pool* pool = nullptr);

    /// Drains up to `max` requests from `in` (FIFO, so ids arrive in
    /// increasing order when the sender respects arrival order). Fires the
    /// serve.accept fault site once per non-empty batch.
    [[nodiscard]] std::vector<request>
    accept(memory_channel<request>& in, std::size_t max);

    /// Serves one batch (ids strictly increasing) in id order and writes
    /// the responses, in id order, over `out`: it ends with one response
    /// per request, and each keeps the capacity of the `bins` it reuses.
    /// Fires serve.batch before the first request.
    void process(std::span<const request> batch, std::vector<response>& out);

    /// process into a fresh vector.
    [[nodiscard]] std::vector<response>
    process(const std::vector<request>& batch);

    [[nodiscard]] const dispatcher_config& config() const noexcept {
        return config_;
    }

    /// The per-bin load vector.
    [[nodiscard]] const core::load_vector& loads() const noexcept {
        return loads_;
    }

    /// Moves the per-bin load vector out instead of copying it. The
    /// dispatcher is spent: loads() is empty, balls_held() is 0 and
    /// process() throws.
    [[nodiscard]] core::load_vector take_loads() noexcept;

    /// Allocations not yet released.
    [[nodiscard]] std::uint64_t live_allocations() const noexcept {
        return live_count_;
    }

    /// Ids the live table covers; it grows geometrically past the highest
    /// allocate id.
    [[nodiscard]] std::uint64_t table_ids() const noexcept {
        return state_.size();
    }

    /// Probe messages the service has spent so far: d per batch-mode
    /// allocate, k*d per per-task allocate, 0 per release.
    [[nodiscard]] std::uint64_t probe_messages() const noexcept {
        return probe_messages_;
    }

    [[nodiscard]] std::uint64_t balls_held() const noexcept;

private:
    /// Draws request `id`'s tape into the batch scratch at `first` and
    /// prefetches the loads it probes.
    void draw_tape(std::uint64_t id, std::size_t first);
    /// Selects and commits from the tape drawn at `first`.
    void allocate(const request& req, std::size_t first, response& resp);
    void release(const request& req, response& resp);

    enum class id_state : std::uint8_t { never, live, released };

    dispatcher_config config_;
    core::load_vector loads_;
    // The live table: state_[id], and bins_[id * k, id * k + k) while live.
    std::vector<id_state> state_;
    std::vector<std::uint32_t> bins_;
    std::uint64_t live_count_ = 0;
    std::uint64_t probe_messages_ = 0;
    // Probes and tie keys per allocate: d in batch mode, k * d per-task.
    std::uint64_t tape_size_;
    // Scratch reused across batches: request i's tape at
    // [i * tape_size_, (i + 1) * tape_size_), and batch mode's kept
    // candidates.
    std::vector<std::uint32_t> tape_probes_;
    std::vector<std::uint64_t> tape_keys_;
    std::vector<core::packed_slot> kept_;
};

} // namespace kdc::serve

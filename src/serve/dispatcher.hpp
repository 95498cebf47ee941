// The allocation service's dispatcher: accepts batched requests from a
// channel and routes them through gather / select / commit phases over the
// per-shard bin state (serve/bin_shard.hpp).
//
// One batch is processed like one chunk of the sharded kernel, shrunk to
// request granularity:
//
//   pregen  (parallel over requests)  every request's probes and tie keys
//           are drawn from a generator seeded derive_seed(seed, id), so the
//           tape is a pure function of the request — independent of how
//           requests were batched or which worker draws them;
//   gather  (parallel over shards)    each shard copies the batch-start
//           load of every probed bin it owns into the batch's slot table —
//           the only phase that reads shard state, and it reads only the
//           owner's stripe;
//   select  (serial, id order)        requests are resolved one by one in
//           id order against gathered loads PLUS an overlay of the deltas
//           committed earlier in this batch. Effective load = batch-start
//           load + overlay delta is exactly the live load a serial server
//           would see, so the chosen bins equal the serial oracle's
//           (serve/service.hpp) choice for every batching;
//   commit  (parallel over shards)    each shard applies its own bins'
//           deltas, in batch id order per shard, to its loads. Disjoint
//           ownership makes this phase lock-free; +1/-1 deltas make
//           cross-shard order irrelevant.
//
// Releases are resolved SERVER-side: a release names the id of an earlier
// allocate, and the dispatcher keeps an id -> bins map of live allocations
// (erased on release). Clients never echo bins back, so a request's content
// cannot depend on an in-flight response — one of the two properties (with
// per-request tapes) that make the oracle comparison byte-exact.
//
// Fault sites (docs/robustness.md): serve.accept fires when a non-empty
// batch is drained from the channel, serve.batch before a batch's phases,
// serve.commit before the parallel commit phase.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/sharded_kernel.hpp"
#include "core/types.hpp"
#include "serve/bin_shard.hpp"
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
    std::uint64_t shards = 1;     ///< resolved shard count (1 <= shards <= bins)
};

class dispatcher {
public:
    /// `pool` may be null (every phase runs on the calling thread). The
    /// pool is borrowed — keep it alive for the dispatcher's lifetime.
    dispatcher(const dispatcher_config& config, core::thread_pool* pool);

    /// Drains up to `max` requests from `in` (FIFO, so ids arrive in
    /// increasing order when the sender respects arrival order). Fires the
    /// serve.accept fault site once per non-empty batch.
    [[nodiscard]] std::vector<request> accept(channel<request>& in,
                                              std::size_t max);

    /// Processes one batch (ids strictly increasing) through the four
    /// phases and returns responses in id order. Fires serve.batch before
    /// the phases and serve.commit before the commit phase.
    [[nodiscard]] std::vector<response>
    process(const std::vector<request>& batch);

    [[nodiscard]] const dispatcher_config& config() const noexcept {
        return config_;
    }

    /// Concatenation of the shard stripes: the full per-bin load vector.
    [[nodiscard]] core::load_vector loads() const;

    /// Allocations not yet released (id -> bins).
    [[nodiscard]] std::uint64_t live_allocations() const noexcept {
        return live_.size();
    }

    /// Probe messages the service has spent so far: d per batch-mode
    /// allocate, k*d per per-task allocate, 0 per release.
    [[nodiscard]] std::uint64_t probe_messages() const noexcept {
        return probe_messages_;
    }

    [[nodiscard]] std::uint64_t balls_held() const noexcept;

private:
    /// Runs body(0..count) on the pool's phase barrier, or serially when
    /// the dispatcher has no pool. Bodies write disjoint state per index.
    void run_phase(std::size_t count,
                   const std::function<void(std::size_t)>& body);

    dispatcher_config config_;
    core::thread_pool* pool_;
    core::shard_layout layout_;
    std::vector<bin_shard> shards_;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> live_;
    std::uint64_t probe_messages_ = 0;
};

} // namespace kdc::serve

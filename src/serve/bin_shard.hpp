// One shard of the allocation service's bin state: the exclusive owner of
// a contiguous stripe of bins.
//
// The stripe boundaries come from core/sharded_kernel.hpp's shard_layout —
// the same dealing rule the round-parallel kernel uses — so the service's
// shards, the kernel's bin windows and thread_pool::phase_range all slice
// [0, n) identically. Exclusivity is the whole concurrency story: during a
// batch's parallel gather and commit phases each shard is touched only by
// the worker that owns it (thread_pool::run_phase hands out disjoint shard
// indices), so loads need no locks and no atomics — the dispatcher
// (serve/dispatcher.hpp) serializes phases with the pool's barrier instead.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/sharded_kernel.hpp"
#include "core/types.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {

class bin_shard {
public:
    /// The shard owning stripe `index` of `layout`, all bins empty.
    bin_shard(const core::shard_layout& layout, std::uint64_t index)
        : begin_(layout.begin(index)), loads_(layout.size(index), 0) {}

    /// First global bin of the stripe.
    [[nodiscard]] std::uint64_t begin() const noexcept { return begin_; }
    /// One past the last global bin of the stripe.
    [[nodiscard]] std::uint64_t end() const noexcept {
        return begin_ + loads_.size();
    }
    [[nodiscard]] std::uint64_t size() const noexcept {
        return loads_.size();
    }

    /// Load of a GLOBAL bin id owned by this shard.
    [[nodiscard]] core::bin_load load(std::uint64_t bin) const {
        KD_EXPECTS(bin >= begin_ && bin < end());
        return loads_[bin - begin_];
    }

    /// Adds one ball to `bin` (global id). Caller must be the shard's
    /// owning worker for the current phase — no synchronization inside.
    void commit_alloc(std::uint64_t bin) {
        KD_EXPECTS(bin >= begin_ && bin < end());
        loads_[bin - begin_] += 1;
    }

    /// Removes one ball from `bin` (global id); the churn direction.
    /// Requires the bin to be non-empty.
    void commit_release(std::uint64_t bin) {
        KD_EXPECTS(bin >= begin_ && bin < end());
        core::bin_load& load = loads_[bin - begin_];
        KD_EXPECTS_MSG(load > 0, "release of an empty bin");
        load -= 1;
    }

    /// The stripe's per-bin loads (local index = global bin - begin()).
    [[nodiscard]] const core::load_vector& loads() const noexcept {
        return loads_;
    }

    /// Balls currently held by the stripe.
    [[nodiscard]] std::uint64_t balls_held() const noexcept {
        return std::accumulate(loads_.begin(), loads_.end(),
                               std::uint64_t{0});
    }

private:
    std::uint64_t begin_;
    core::load_vector loads_;
};

} // namespace kdc::serve

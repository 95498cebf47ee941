// Sampling utilities built on the unbiased bounded-uniform primitive:
// with-replacement bin sampling (the (k,d)-choice probe step), Floyd's
// without-replacement sampling, Fisher-Yates shuffling and random
// permutations (used by the serialized process of Definition 1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/uniform.hpp"
#include "support/contracts.hpp"
#include "support/huge_pages.hpp"

namespace kdc::rng {

/// Batched Lemire sampler for a FIXED bound: fills a block of raw 64-bit
/// generator words ahead of time and reduces one per next() call, so a hot
/// loop drawing millions of uniforms below the same bound (the level-kernel
/// probe step samples below n for an entire run) is a tight
/// pop-multiply-compare instead of a generator call per draw. The rejection
/// threshold is computed once at construction — uniform_below pays its
/// division on every unlucky low product instead.
///
/// next() consumes generator words in exactly the order repeated
/// uniform_below(gen, bound) calls would, and accepts/rejects on the same
/// condition, so the output stream is bit-identical to uniform_below for a
/// same-seeded 64-bit generator.
///
/// The sampler holds no reference to the generator — next(gen) takes it per
/// call, so the class is plain copyable state (bound, threshold, buffered
/// words) and a process owning both a generator and a sampler can use the
/// compiler-generated copy/move without dangling. Pass the SAME generator
/// to every next() call: buffered words from one generator must not be
/// mixed with refills from another.
class batched_uniform {
public:
    /// Requires bound >= 1.
    explicit batched_uniform(std::uint64_t bound) : bound_(bound) {
        KD_EXPECTS(bound >= 1); // before the % below: no division by zero
        threshold_ = (0 - bound) % bound;
    }

    [[nodiscard]] std::uint64_t bound() const noexcept { return bound_; }

    /// One draw uniform in [0, bound), unbiased.
    template <bit_generator_64 G>
    [[nodiscard]] std::uint64_t next(G& gen) {
        // GCC/Clang extension; pragma scoped as in uniform.hpp.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
        using u128 = unsigned __int128;
#pragma GCC diagnostic pop
        for (;;) {
            if (pos_ == buffer_.size()) {
                for (auto& word : buffer_) {
                    word = gen();
                }
                pos_ = 0;
            }
            const u128 m = static_cast<u128>(buffer_[pos_++]) *
                           static_cast<u128>(bound_);
            if (static_cast<std::uint64_t>(m) >= threshold_) {
                return static_cast<std::uint64_t>(m >> 64);
            }
            ++rejected_; // cold: P(reject) = threshold / 2^64 < bound / 2^64
        }
    }

    // -- Introspection for exact parallel replay (core/sharded_kernel.cpp).
    //
    // A worker reconstructing the sampler state a known number of draws
    // ahead needs three things: how far the current refill block has been
    // consumed, a way to reposition inside a block it regenerated itself,
    // and a rejection count to detect when the no-rejection position
    // arithmetic was violated (and fall back to a serial replay).

    /// Words refilled per generator burst: next() consumes the generator in
    /// blocks of exactly this many calls.
    static constexpr std::size_t block_size = 256;

    /// Unconsumed words left in the current refill block (0 when the next
    /// draw triggers a refill).
    [[nodiscard]] std::size_t buffered() const noexcept {
        return buffer_.size() - pos_;
    }

    /// Discards `count` buffered words as if next() had drawn (and
    /// accepted) them. Requires count <= buffered().
    void drop(std::size_t count) {
        KD_EXPECTS(count <= buffered());
        pos_ += count;
    }

    /// Forces an immediate refill block (256 generator calls), discarding
    /// any buffered words — the state right after next()'s own refill.
    template <bit_generator_64 G>
    void refill(G& gen) {
        for (auto& word : buffer_) {
            word = gen();
        }
        pos_ = 0;
    }

    /// Rejected (re-drawn) words since construction. Monotone; the Lemire
    /// rejection probability is bound / 2^64 per draw, so this stays 0 for
    /// any realistic run length — which is exactly what the parallel tape
    /// pregeneration asserts before trusting its reconstruction.
    [[nodiscard]] std::uint64_t rejections() const noexcept {
        return rejected_;
    }

private:
    std::uint64_t bound_;
    std::uint64_t threshold_ = 0;
    std::uint64_t rejected_ = 0;
    std::array<std::uint64_t, 256> buffer_{};
    std::size_t pos_ = buffer_.size(); // first next() triggers a fill
};

/// Fills `out` with indices drawn i.u.r. *with replacement* from [0, n).
/// This is exactly the probe step of the (k,d)-choice process.
template <typename G>
    requires std::uniform_random_bit_generator<G>
void sample_with_replacement(G& gen, std::uint64_t n,
                             std::span<std::uint32_t> out) {
    KD_EXPECTS(n >= 1);
    for (auto& slot : out) {
        slot = static_cast<std::uint32_t>(uniform_below(gen, n));
    }
}

/// In-place Fisher-Yates shuffle.
template <typename G, typename T>
    requires std::uniform_random_bit_generator<G>
void shuffle(G& gen, std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(uniform_below(gen, i));
        std::swap(items[i - 1], items[j]);
    }
}

/// Reusable epoch-stamp scratch for sample_without_replacement: one stamp per
/// domain element, so the membership test "was this index already chosen?" is
/// O(1) instead of a linear scan over the chosen prefix. Hold one of these
/// per sampler (e.g. per allocation process) to amortize the O(n) stamp
/// array across calls.
struct sample_scratch {
    std::vector<std::uint32_t> stamps;
    std::uint32_t epoch = 0;
};

/// Fills `out` with out.size() distinct indices from [0, n) via Robert
/// Floyd's algorithm: O(out.size()) expected work per call once `scratch` is
/// warm. Output order is randomized.
template <typename G>
    requires std::uniform_random_bit_generator<G>
void sample_without_replacement(G& gen, std::uint64_t n,
                                sample_scratch& scratch,
                                std::span<std::uint32_t> out) {
    const std::uint64_t count = out.size();
    KD_EXPECTS(count <= n);
    if (scratch.stamps.size() < n) {
        scratch.stamps = zeroed_vector<std::uint32_t>(n);
        scratch.epoch = 0;
    }
    if (++scratch.epoch == 0) { // stamp wrap-around: clear and restart
        std::fill(scratch.stamps.begin(), scratch.stamps.end(), 0u);
        scratch.epoch = 1;
    }
    std::size_t written = 0;
    for (std::uint64_t j = n - count; j < n; ++j) {
        const auto candidate =
            static_cast<std::uint32_t>(uniform_below(gen, j + 1));
        const auto pick = scratch.stamps[candidate] != scratch.epoch
                              ? candidate
                              : static_cast<std::uint32_t>(j);
        scratch.stamps[pick] = scratch.epoch;
        out[written++] = pick;
    }
    // Floyd's algorithm biases the *order* (later slots tend to hold larger
    // values); shuffle so callers may treat the output as a random sequence.
    shuffle(gen, out);
    KD_ENSURES(written == count);
}

/// Returns `count` distinct indices from [0, n) via Robert Floyd's algorithm.
/// Convenience overload that builds its own scratch (O(n) stamp allocation);
/// hot paths should hold a sample_scratch and use the overload above. The
/// output sequence is identical for a same-seeded generator.
template <typename G>
    requires std::uniform_random_bit_generator<G>
[[nodiscard]] std::vector<std::uint32_t>
sample_without_replacement(G& gen, std::uint64_t n, std::uint64_t count) {
    std::vector<std::uint32_t> chosen(count);
    sample_scratch scratch;
    sample_without_replacement(gen, n, scratch,
                               std::span<std::uint32_t>(chosen));
    return chosen;
}

/// Returns a uniformly random permutation of {0, 1, ..., n-1}.
template <typename G>
    requires std::uniform_random_bit_generator<G>
[[nodiscard]] std::vector<std::uint32_t> random_permutation(G& gen,
                                                            std::uint32_t n) {
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        perm[i] = i;
    }
    shuffle(gen, std::span<std::uint32_t>(perm));
    return perm;
}

} // namespace kdc::rng

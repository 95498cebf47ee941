// One round of the (k,d)-choice process.
//
// The paper resolves the multi-sampling ambiguity (Section 1, scenarios
// (a)-(c)) with the rule "a bin sampled m >= 1 times receives at most m
// balls", equivalently: place d balls sequentially into the d sampled bins,
// then remove the d-k balls of maximal height. This kernel implements that
// rule directly as slot selection:
//
//   * every occurrence of bin b in the sample multiset contributes one
//     candidate slot with height load(b) + occurrence_index;
//   * the k slots of smallest height are kept, ties broken uniformly at
//     random via per-slot 64-bit keys ("ties broken randomly", Section 1.1);
//   * keeping the k smallest is self-consistent: a bin's slots have strictly
//     increasing heights, so a kept slot implies all lower slots of the same
//     bin are kept — exactly "remove the d-k balls with maximal height".
//
// Slot order and tie order. Slots are numbered in the order their keys are
// drawn: sample order when the round probes d distinct bins, and otherwise
// sorted-group order (bins ascending, a bin's occurrences consecutive). The
// kept slots are the k smallest by (height, tie_key, slot number), so when
// two slots share a height and a key the earlier slot wins. The order is a
// total order fixed here, independent of any standard library's selection
// algorithm.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "rng/uniform.hpp"
#include "support/contracts.hpp"
#include "support/huge_pages.hpp"

namespace kdc::core {

// GCC/Clang extension; the pragma scopes the -Wpedantic exemption to this
// one alias.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
/// A candidate slot packed as height (bits 96-127), tie_key (bits 32-95) and
/// slot number (bits 0-31): one unsigned comparison orders slots by
/// (height, tie_key, slot number), a total order with no equal elements.
using packed_slot = unsigned __int128;
#pragma GCC diagnostic pop

/// Reusable scratch buffers so the per-round hot path never allocates.
struct round_scratch {
    /// The kept slots, ascending.
    std::vector<packed_slot> kept;
    /// Duplicate-round samples and their radix-sort partner buffer.
    std::vector<std::uint32_t> sorted_samples;
    std::vector<std::uint32_t> radix_buffer;
    /// Epoch stamps for O(d) duplicate detection (one entry per bin).
    std::vector<std::uint32_t> stamps;
    std::uint32_t epoch = 0;
};

namespace detail {

/// Sorts `values` ascending, all below `bound`, with an LSD radix sort on
/// 8-bit digits: only as many passes as `bound - 1` has significant bytes.
inline void radix_sort(std::vector<std::uint32_t>& values,
                       std::vector<std::uint32_t>& buffer,
                       std::uint64_t bound) {
    buffer.resize(values.size());
    for (unsigned shift = 0; shift < 32 && ((bound - 1) >> shift) != 0;
         shift += 8) {
        std::array<std::uint32_t, 256> offset{};
        for (const std::uint32_t v : values) {
            ++offset[(v >> shift) & 0xffu];
        }
        std::uint32_t sum = 0;
        for (auto& entry : offset) {
            const std::uint32_t count = entry;
            entry = sum;
            sum += count;
        }
        for (const std::uint32_t v : values) {
            buffer[offset[(v >> shift) & 0xffu]++] = v;
        }
        values.swap(buffer);
    }
}

} // namespace detail

/// Keeps the k smallest slots offered in a sorted prefix of `kept` (room
/// for k slots): the first k are inserted in order, after which one
/// comparison against the k-th rejects most slots. After at least k offers,
/// kept[0, k) holds the k smallest by (height, tie_key, slot), ascending.
/// place_round, the service's dispatcher (serve/dispatcher.cpp) and the
/// level kernel's duplicate rounds (core/level_process.cpp) select with it.
class top_k {
public:
    top_k(packed_slot* kept, std::size_t k) : kept_(kept), k_(k) {}

    void offer(bin_load height, std::uint64_t tie_key, std::uint32_t slot) {
        const packed_slot s = (static_cast<packed_slot>(height) << 96) |
                              (static_cast<packed_slot>(tie_key) << 32) | slot;
        if (held_ < k_) {
            insert(s, held_++);
        } else if (s < kept_[k_ - 1]) {
            insert(s, k_ - 1);
        }
    }

private:
    /// Inserts s into kept_[0, end), overwriting kept_[end].
    void insert(packed_slot s, std::size_t end) {
        std::size_t i = end;
        for (; i > 0 && s < kept_[i - 1]; --i) {
            kept_[i] = kept_[i - 1];
        }
        kept_[i] = s;
    }

    packed_slot* kept_;
    std::size_t k_;
    std::size_t held_ = 0;
};

/// Places `k` balls into `loads` for one round whose probe step sampled the
/// bins in `samples` (a multiset: duplicates are meaningful). Appends the
/// placed balls (bin, height) to `placed` when non-null, in increasing
/// (height, tie_key, slot number) order. Requires 1 <= k <= samples.size()
/// and all samples < loads.size().
template <typename G>
    requires std::uniform_random_bit_generator<G>
void place_round(load_vector& loads, std::span<const std::uint32_t> samples,
                 std::size_t k, G& gen, round_scratch& scratch,
                 std::vector<placed_ball>* placed = nullptr) {
    KD_EXPECTS(k >= 1);
    KD_EXPECTS_MSG(k <= samples.size(), "need at least k candidate slots");
    KD_EXPECTS_MSG(samples.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "slot numbers are 32-bit");

    // Duplicate samples matter (a bin sampled m times owns m slots), but at
    // n >> d^2 they are rare, so detect them in O(d) with epoch stamps and
    // only take the radix-group path when one exists.
    if (scratch.stamps.size() < loads.size()) {
        scratch.stamps = zeroed_vector<std::uint32_t>(loads.size());
        scratch.epoch = 0;
    }
    if (++scratch.epoch == 0) { // stamp wrap-around: clear and restart
        std::fill(scratch.stamps.begin(), scratch.stamps.end(), 0u);
        scratch.epoch = 1;
    }
    const std::uint32_t epoch = scratch.epoch;
    std::uint32_t* const stamps = scratch.stamps.data();
    std::size_t first_duplicate = samples.size();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::uint32_t bin = samples[i];
        KD_EXPECTS(bin < loads.size());
        if (stamps[bin] == epoch) {
            first_duplicate = i;
            break;
        }
        stamps[bin] = epoch;
    }
    const bool has_duplicates = first_duplicate < samples.size();

    // Keep the k smallest slots in one pass over the slots in slot order,
    // drawing each slot's key as it is offered (the generator is consumed
    // exactly once per slot). Past the first k, a slot costs one comparison
    // unless it beats the k-th kept slot, so the k = 1, large-d cells of
    // Table 1 stay O(d) per round; the kept prefix comes out in increasing
    // height order, as the serialized process of Definition 1 requires.
    if (scratch.kept.size() < k) {
        scratch.kept.resize(k);
    }
    top_k select(scratch.kept.data(), k);
    const bin_load* const load = loads.data();
    std::span<const std::uint32_t> slot_bins = samples;
    if (!has_duplicates) {
        for (std::uint32_t slot = 0; slot < samples.size(); ++slot) {
            select.offer(load[samples[slot]] + 1,
                         static_cast<std::uint64_t>(gen()), slot);
        }
    } else {
        // The stamp loop stopped at the first duplicate, so the samples
        // after it are unchecked: check them before the sort and the loads
        // read them.
        for (const std::uint32_t bin : samples.subspan(first_duplicate + 1)) {
            KD_EXPECTS(bin < loads.size());
        }
        // Group duplicates so each occurrence gets its own slot height.
        auto& sorted = scratch.sorted_samples;
        sorted.assign(samples.begin(), samples.end());
        detail::radix_sort(sorted, scratch.radix_buffer, loads.size());
        bin_load occurrence = 0;
        for (std::uint32_t slot = 0; slot < sorted.size(); ++slot) {
            const std::uint32_t bin = sorted[slot];
            occurrence =
                (slot > 0 && sorted[slot - 1] == bin) ? occurrence + 1 : 1;
            select.offer(load[bin] + occurrence,
                         static_cast<std::uint64_t>(gen()), slot);
        }
        slot_bins = sorted;
    }

    for (std::size_t i = 0; i < k; ++i) {
        const packed_slot s = scratch.kept[i];
        const std::uint32_t bin = slot_bins[static_cast<std::uint32_t>(s)];
        loads[bin] += 1;
        if (placed != nullptr) {
            placed->push_back(
                placed_ball{bin, static_cast<bin_load>(s >> 96)});
        }
    }
}

} // namespace kdc::core

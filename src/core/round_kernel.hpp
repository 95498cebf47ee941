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
#include <bit>
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
    /// Duplicate-round slot heights, in slot order.
    std::vector<bin_load> heights;
    /// Filtered rounds: each slot's tie key and bucket, in slot order, and
    /// the slot numbers kept below the cut bucket and those inside it.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint8_t> buckets;
    std::vector<std::uint32_t> below_cut;
    std::vector<std::uint32_t> in_cut;
    /// Epoch stamps for O(d) duplicate detection (one entry per bin).
    std::vector<std::uint32_t> stamps;
    std::uint32_t epoch = 0;
    /// Rounds that selected through the bucket filter (tests check that
    /// both selection paths run).
    std::uint64_t filtered_rounds = 0;
};

namespace detail {

/// Writes `values` to `sorted` in ascending order, all below `bound`, with
/// an LSD radix sort: as many passes as `bound - 1` has significant bytes,
/// its bits split evenly over them (15 bits sort in passes of 8 and 7), and
/// one counting pass over the values for every digit at once.
inline void radix_sort(std::span<const std::uint32_t> values,
                       std::vector<std::uint32_t>& sorted,
                       std::vector<std::uint32_t>& buffer,
                       std::uint64_t bound) {
    const auto bits = static_cast<unsigned>(std::bit_width(bound - 1));
    const unsigned passes = (bits + 7) / 8;
    sorted.assign(values.begin(), values.end());
    if (passes == 0) {
        return; // every value is 0
    }
    const unsigned width = (bits + passes - 1) / passes;
    const std::uint32_t mask = (std::uint32_t{1} << width) - 1;
    std::array<std::array<std::uint32_t, 256>, 4> offset;
    for (unsigned pass = 0; pass < passes; ++pass) {
        std::fill_n(offset[pass].begin(), mask + 1, 0u);
    }
    for (const std::uint32_t v : values) {
        for (unsigned pass = 0; pass < passes; ++pass) {
            ++offset[pass][(v >> (pass * width)) & mask];
        }
    }
    buffer.resize(values.size());
    for (unsigned pass = 0; pass < passes; ++pass) {
        std::uint32_t sum = 0;
        for (std::uint32_t digit = 0; digit <= mask; ++digit) {
            const std::uint32_t count = offset[pass][digit];
            offset[pass][digit] = sum;
            sum += count;
        }
        for (const std::uint32_t v : sorted) {
            buffer[offset[pass][(v >> (pass * width)) & mask]++] = v;
        }
        sorted.swap(buffer);
    }
}

/// The bucket filter in front of top_k. A slot's bucket is its height
/// level above the round's lowest slot height, followed by the top bits of
/// its tie key: the level takes as many of the filter_bits bits as the
/// round's height spread needs and the key the rest. Bucket order agrees
/// with the (height, tie_key, slot) order, so every slot in a bucket below
/// the one holding the k-th smallest slot (the cut bucket) is kept, and
/// top_k runs only over the cut bucket. A round whose spread needs more
/// than filter_bits bits falls back to plain top_k. So do rounds where
/// plain top_k measured cheaper: those with fewer than filter_min_slots
/// slots, and those with more than filter_slots_per_k slots per kept
/// ball, where top_k's insertions (about k ln(d/k) a round) are rare.
inline constexpr unsigned filter_bits = 7;
inline constexpr std::size_t filter_buckets = std::size_t{1} << filter_bits;
inline constexpr std::size_t filter_min_slots = 8;
inline constexpr std::size_t filter_slots_per_k = 48;

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
        // The slot is built as two 64-bit words, height:key-high and
        // key-low:slot. Past the first k, the high word alone rejects a
        // slot above the k-th kept one, which is most slots.
        const std::uint64_t high =
            (static_cast<std::uint64_t>(height) << 32) | (tie_key >> 32);
        if (held_ == k_ &&
            high > static_cast<std::uint64_t>(kept_[k_ - 1] >> 64)) {
            return;
        }
        const packed_slot s = (static_cast<packed_slot>(high) << 64) |
                              ((tie_key << 32) | slot);
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
                 std::size_t k, G& generator, round_scratch& scratch,
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
    // The stamp loop stopped at the first duplicate, so the samples after
    // it are unchecked: check them before the sort and the loads read them.
    for (std::size_t i = first_duplicate + 1; i < samples.size(); ++i) {
        KD_EXPECTS(samples[i] < loads.size());
    }

    // The generator runs on a local copy, written back once per round, so
    // its state stays in registers across the slot loops' stores.
    G gen = generator;
    const std::uint32_t slots = static_cast<std::uint32_t>(samples.size());
    const bin_load* const load = loads.data();

    // Selects over slots [0, slots) owned by slot_bins, slot s at height
    // height_of(s), drawing each slot's key in slot order (the generator is
    // consumed exactly once per slot).
    const auto select = [&](std::span<const std::uint32_t> slot_bins,
                            auto height_of) {
        if (scratch.kept.size() < k) {
            scratch.kept.resize(k);
        }
        // Without a placed log the kept slots' order does not matter, so
        // the bucket filter may select them (detail::filter_bits).
        bin_load lowest = std::numeric_limits<bin_load>::max();
        bin_load spread = detail::filter_buckets;
        if (placed == nullptr && k > 1 && slots >= detail::filter_min_slots &&
            k * detail::filter_slots_per_k >= slots) {
            bin_load highest = 0;
            for (std::uint32_t slot = 0; slot < slots; ++slot) {
                lowest = std::min(lowest, height_of(slot));
                highest = std::max(highest, height_of(slot));
            }
            spread = highest - lowest;
        }
        if (spread >= detail::filter_buckets) {
            // One pass over the slots: past the first k, a slot costs one
            // comparison unless it beats the k-th kept slot, and the kept
            // prefix comes out in increasing height order, as the
            // serialized process of Definition 1 requires.
            top_k select(scratch.kept.data(), k);
            for (std::uint32_t slot = 0; slot < slots; ++slot) {
                select.offer(height_of(slot),
                             static_cast<std::uint64_t>(gen()), slot);
            }
            for (std::size_t i = 0; i < k; ++i) {
                const packed_slot s = scratch.kept[i];
                const std::uint32_t bin =
                    slot_bins[static_cast<std::uint32_t>(s)];
                loads[bin] += 1;
                if (placed != nullptr) {
                    placed->push_back(
                        placed_ball{bin, static_cast<bin_load>(s >> 96)});
                }
            }
            return;
        }

        // The bucket filter: count the slots per bucket, find the cut
        // bucket, keep every slot below it and let top_k pick the rest from
        // the cut bucket alone.
        scratch.keys.resize(slots);
        scratch.buckets.resize(slots);
        scratch.below_cut.resize(slots);
        scratch.in_cut.resize(slots);
        std::uint64_t* const keys = scratch.keys.data();
        std::uint8_t* const buckets = scratch.buckets.data();
        const auto key_bits = static_cast<unsigned>(
            detail::filter_bits - std::bit_width(spread));
        std::array<std::uint32_t, detail::filter_buckets> counts{};
        for (std::uint32_t slot = 0; slot < slots; ++slot) {
            const std::uint64_t key = gen();
            // (key >> 1) >> (63 - key_bits) is key's top key_bits bits,
            // and 0 when key_bits is 0.
            const std::uint32_t bucket = static_cast<std::uint32_t>(
                (std::uint64_t{height_of(slot) - lowest} << key_bits) |
                ((key >> 1) >> (63 - key_bits)));
            keys[slot] = key;
            buckets[slot] = static_cast<std::uint8_t>(bucket);
            ++counts[bucket];
        }
        std::uint32_t cut = 0;
        std::size_t below = 0;
        for (; below + counts[cut] < k; ++cut) {
            below += counts[cut];
        }
        // Split the slots into those below the cut and those in it, with
        // no branch on the bucket.
        std::uint32_t* const below_cut = scratch.below_cut.data();
        std::uint32_t* const in_cut = scratch.in_cut.data();
        std::size_t kept_below = 0;
        std::size_t cut_size = 0;
        for (std::uint32_t slot = 0; slot < slots; ++slot) {
            const std::uint32_t bucket = buckets[slot];
            below_cut[kept_below] = slot;
            in_cut[cut_size] = slot;
            kept_below += (bucket - cut) >> 31;
            cut_size += bucket == cut ? 1 : 0;
        }
        const std::size_t rest = k - below;
        if (rest < cut_size) {
            top_k select(scratch.kept.data(), rest);
            for (std::size_t i = 0; i < cut_size; ++i) {
                const std::uint32_t slot = in_cut[i];
                select.offer(height_of(slot), keys[slot], slot);
            }
            for (std::size_t i = 0; i < rest; ++i) {
                in_cut[i] = static_cast<std::uint32_t>(scratch.kept[i]);
            }
        }
        for (std::size_t i = 0; i < kept_below; ++i) {
            loads[slot_bins[below_cut[i]]] += 1;
        }
        for (std::size_t i = 0; i < rest; ++i) {
            loads[slot_bins[in_cut[i]]] += 1;
        }
        scratch.filtered_rounds += 1;
    };

    if (first_duplicate == samples.size()) {
        select(samples,
               [&](std::uint32_t slot) { return load[samples[slot]] + 1; });
    } else {
        // Group duplicates so each occurrence gets its own slot height.
        auto& sorted = scratch.sorted_samples;
        detail::radix_sort(samples, sorted, scratch.radix_buffer,
                           loads.size());
        auto& heights = scratch.heights;
        heights.resize(slots);
        bin_load occurrence = 0;
        for (std::uint32_t slot = 0; slot < slots; ++slot) {
            const std::uint32_t bin = sorted[slot];
            occurrence =
                (slot > 0 && sorted[slot - 1] == bin) ? occurrence + 1 : 1;
            heights[slot] = load[bin] + occurrence;
        }
        select(sorted, [&](std::uint32_t slot) { return heights[slot]; });
    }
    generator = gen;
}

} // namespace kdc::core

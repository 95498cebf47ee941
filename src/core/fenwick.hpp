// Fenwick (binary indexed) tree over small value domains. The SA_{x0}
// process (Definition 3) needs, per ball, the number of bins whose load
// exceeds the chosen bin's load; loads move by +1 steps so a Fenwick tree
// indexed by load value answers both the query and the update in O(log L).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/contracts.hpp"

namespace kdc::core {

class fenwick_tree {
public:
    explicit fenwick_tree(std::size_t size = 0) : tree_(size + 1, 0) {}

    [[nodiscard]] std::size_t size() const noexcept {
        return tree_.size() - 1;
    }

    /// Grows the domain to at least `size` positions (amortized; existing
    /// counts are preserved by rebuilding).
    void grow_to(std::size_t size) {
        if (size <= this->size()) {
            return;
        }
        std::vector<std::uint64_t> values(this->size(), 0);
        for (std::size_t i = 0; i < values.size(); ++i) {
            values[i] = value_at(i);
        }
        values.resize(std::max(size, this->size() * 2), 0);
        tree_.assign(values.size() + 1, 0);
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] != 0) {
                add(i, static_cast<std::int64_t>(values[i]));
            }
        }
    }

    /// Adds `delta` at position `index` (index < size()).
    void add(std::size_t index, std::int64_t delta) {
        KD_EXPECTS(index < size());
        for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1)) {
            tree_[i] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(tree_[i]) + delta);
        }
    }

    /// Sum of positions [0, index) — i.e. strictly below `index`.
    [[nodiscard]] std::uint64_t prefix_sum(std::size_t index) const {
        KD_EXPECTS(index <= size());
        std::uint64_t sum = 0;
        for (std::size_t i = index; i > 0; i -= i & (~i + 1)) {
            sum += tree_[i];
        }
        return sum;
    }

    /// Sum of positions [index, size()).
    [[nodiscard]] std::uint64_t suffix_sum(std::size_t index) const {
        return total() - prefix_sum(index);
    }

    [[nodiscard]] std::uint64_t total() const { return prefix_sum(size()); }

    /// Smallest index i with prefix_sum(i + 1) > target, i.e. the position
    /// holding the (target + 1)-th unit when positions are laid out as runs
    /// of their counts. This is weighted sampling in O(log size): draw
    /// target uniform in [0, total()) and descend the implicit tree once,
    /// instead of binary-searching prefix_sum. Requires target < total()
    /// and every per-position count to be non-negative.
    [[nodiscard]] std::size_t find_kth(std::uint64_t target) const {
        KD_EXPECTS(target < total());
        std::size_t pos = 0;
        for (std::size_t step = std::bit_floor(tree_.size() - 1); step > 0;
             step >>= 1) {
            const std::size_t next = pos + step;
#if defined(__GNUC__) || defined(__clang__)
            // The descent's next probe is one of two known positions; issue
            // both loads early so large trees overlap the memory latency
            // with the compare.
            const std::size_t half = step >> 1;
            if (half > 0) {
                const std::size_t last = tree_.size() - 1;
                __builtin_prefetch(tree_.data() + std::min(pos + half, last));
                __builtin_prefetch(tree_.data() + std::min(next + half, last));
            }
#endif
            if (next < tree_.size() && tree_[next] <= target) {
                target -= tree_[next];
                pos = next;
            }
        }
        return pos; // 0-based position; pos < size() because target < total()
    }

    /// Count at a single position.
    [[nodiscard]] std::uint64_t value_at(std::size_t index) const {
        return prefix_sum(index + 1) - prefix_sum(index);
    }

private:
    std::vector<std::uint64_t> tree_;
};

} // namespace kdc::core

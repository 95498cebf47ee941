// Level-compressed state for exchangeable allocation processes: the number
// of bins at each load level, instead of one entry per bin.
//
// The (k,d)-choice process is exchangeable over bins — every probe is
// uniform and every rule depends only on loads — so its distribution is
// fully captured by the LOAD PROFILE c_l = #bins with load l. That is
// O(max load + 1) words of state instead of O(n): a billion-bin,
// heavily-loaded run fits in a few kilobytes, and the per-probe operation
// "pick a uniform random bin and tell me its load" becomes "pick level l
// with probability c_l / n" — answered in O(log L) by a Fenwick tree over
// levels (core/fenwick.hpp) instead of an O(1)-but-cache-missing load on a
// multi-gigabyte array.
//
// The profile also supports temporary EXTRACTION of single bins. One round
// of (k,d)-choice needs probes *without* replacement from the not-yet-probed
// bins (core/level_process.hpp simulates the with-replacement collisions
// explicitly); extract_bin removes one bin at a level from the sampling
// population, and insert_bin returns it at its post-round level.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/fenwick.hpp"
#include "core/metrics.hpp"
#include "core/types.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

class level_profile {
public:
    /// n bins, all at level 0. Requires n >= 1.
    explicit level_profile(std::uint64_t n);

    /// The profile of an existing per-bin load vector (snapshot resume and
    /// the per-bin/level equivalence tests).
    [[nodiscard]] static level_profile from_loads(const load_vector& loads);

    /// The profile with the given bins-per-level counts (level = index).
    /// n is the sum of the counts; requires at least one bin.
    [[nodiscard]] static level_profile
    from_counts(const std::vector<std::uint64_t>& counts);

    /// Total bins, including any currently extracted ones.
    [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

    /// Bins currently in the sampling population (== n() unless a round is
    /// mid-probe with extracted bins).
    [[nodiscard]] std::uint64_t remaining_bins() const {
        return fenwick_.total();
    }

    /// Balls held by the non-extracted bins.
    [[nodiscard]] std::uint64_t total_balls() const noexcept {
        return total_balls_;
    }

    /// Highest level with at least one (non-extracted) bin.
    [[nodiscard]] std::uint64_t max_level() const noexcept {
        return max_level_;
    }

    /// Number of (non-extracted) bins at `level`; zero beyond capacity.
    [[nodiscard]] std::uint64_t bins_at(std::uint64_t level) const {
        return level < counts_.size() ? counts_[level] : 0;
    }

    /// Addressable levels [0, level_capacity()); insert_bin targets must
    /// stay below this. Grown amortized by ensure_levels.
    [[nodiscard]] std::uint64_t level_capacity() const noexcept {
        return counts_.size();
    }

    /// Grows the level domain to at least `level_count` levels (amortized
    /// doubling; existing counts preserved).
    void ensure_levels(std::uint64_t level_count);

    /// Removes one bin at `level` from the sampling population. Requires
    /// bins_at(level) >= 1.
    void extract_bin(std::uint64_t level);

    /// Returns one bin to the population at `level` (< level_capacity()).
    void insert_bin(std::uint64_t level);

    /// extract_bin(from) + insert_bin(to): one bin's load changes.
    void move_bin(std::uint64_t from, std::uint64_t to) {
        extract_bin(from);
        insert_bin(to);
    }

    /// The level of the bin with the given rank when the remaining bins are
    /// laid out level by level: uniform `rank` in [0, remaining_bins())
    /// yields a level with probability proportional to its count — the
    /// O(log L) "sample a uniform bin, observe its load" primitive.
    [[nodiscard]] std::uint64_t level_at_rank(std::uint64_t rank) const {
        return fenwick_.find_kth(rank);
    }

    /// The sorted (descending) load vector this profile represents — the
    /// lossless view for metrics and distribution tests. O(n) output;
    /// intended for small-n verification, not billion-bin runs. Requires no
    /// bin to be extracted.
    [[nodiscard]] load_vector to_sorted_loads() const;

    /// Load metrics straight from the profile in O(L) — no per-bin pass.
    /// Requires no bin to be extracted.
    [[nodiscard]] load_metrics metrics() const;

    /// Writes a small text snapshot (format v2: "kdc-level-profile 2", n
    /// and the level count, the per-level counts up to max_level, then a
    /// "crc32 <hex>" trailer over every preceding byte) — O(L) bytes even
    /// for billion-bin runs, which is what makes those runs resumable:
    /// save the profile, reload it later and hand it to a level process's
    /// snapshot constructor. Requires no bin to be extracted. See
    /// docs/robustness.md for the format.
    void save(std::ostream& out) const;

    /// Reconstructs a profile from a save() snapshot. The CRC trailer is
    /// verified BEFORE any field is parsed, so every single-byte
    /// corruption and every truncation is rejected; throws cli_error
    /// (support/cli.hpp) with a precise message on any malformed input
    /// (bad CRC, bad magic/version, missing or surplus fields, counts
    /// that do not sum to n). Version-1 snapshots (no trailer) are
    /// refused — regenerate them.
    [[nodiscard]] static level_profile load(std::istream& in);

    /// Structural equality: same bins-per-level counts (capacity beyond the
    /// top level is ignored). Extracted bins count as absent.
    [[nodiscard]] bool operator==(const level_profile& other) const;

private:
    std::vector<std::uint64_t> counts_;
    fenwick_tree fenwick_;
    std::uint64_t n_ = 0;
    std::uint64_t total_balls_ = 0;
    std::uint64_t max_level_ = 0;
};

/// Reads a whole CRC-trailed snapshot stream (format v2's shared envelope:
/// arbitrary text body followed by a final "crc32 <8 hex>" line), verifies
/// the trailer against the body, and returns the body. Shared by
/// level_profile::load, weight_profile::load and the snapshot-stage
/// journal. Throws cli_error — prefixed with `what` — when the trailer is
/// missing or malformed or the CRC does not match (which catches every
/// single-byte corruption and every truncation before parsing starts).
[[nodiscard]] std::string checked_snapshot_body(std::istream& in,
                                                const char* what);

} // namespace kdc::core

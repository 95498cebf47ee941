// Level-compressed state for exchangeable allocation processes: the number
// of bins at each load level, instead of one entry per bin.
//
// The (k,d)-choice process is exchangeable over bins — every probe is
// uniform and every rule depends only on loads — so its distribution is
// fully captured by the LOAD PROFILE c_l = #bins with load l. That is
// O(max load + 1) words of state instead of O(n): a billion-bin,
// heavily-loaded run fits in a few kilobytes, and the per-probe operation
// "pick a uniform random bin and tell me its load" becomes "pick level l
// with probability c_l / n".
//
// Two types share that view. level_profile is the value a process exposes:
// it is built, observed, compared and snapshotted, never mutated bin by bin.
// level_state is the one working form every level kernel runs on: the same
// counts as a plain array plus the occupied span, where "pick level l with
// probability c_l / n" is a short subtract-scan from the lowest occupied
// level. A kernel builds a level_state from its profile, runs a whole
// run_balls call on it and flushes it back through
// level_profile::from_counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

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
    from_counts(std::vector<std::uint64_t> counts);

    /// Total bins.
    [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

    /// Balls held by all bins.
    [[nodiscard]] std::uint64_t total_balls() const noexcept {
        return total_balls_;
    }

    /// Highest level with at least one bin.
    [[nodiscard]] std::uint64_t max_level() const noexcept {
        return max_level_;
    }

    /// Number of bins at `level`; zero beyond capacity.
    [[nodiscard]] std::uint64_t bins_at(std::uint64_t level) const {
        return level < counts_.size() ? counts_[level] : 0;
    }

    /// Levels [0, level_capacity()) the profile stores a count for (at
    /// least max_level() + 1); a level_state built from it starts with
    /// this many.
    [[nodiscard]] std::uint64_t level_capacity() const noexcept {
        return counts_.size();
    }

    /// The sorted (descending) load vector this profile represents — the
    /// lossless view for metrics and distribution tests. O(n) output;
    /// intended for small-n verification, not billion-bin runs.
    [[nodiscard]] load_vector to_sorted_loads() const;

    /// Load metrics straight from the profile in O(L) — no per-bin pass.
    [[nodiscard]] load_metrics metrics() const;

    /// Writes a small text snapshot (format v2: "kdc-level-profile 2", n
    /// and the level count, the per-level counts up to max_level, then a
    /// "crc32 <hex>" trailer over every preceding byte) — O(L) bytes even
    /// for billion-bin runs, which is what makes those runs resumable:
    /// save the profile, reload it later and hand it to a level process's
    /// snapshot constructor. See docs/robustness.md for the format.
    void save(std::ostream& out) const;

    /// Reconstructs a profile from a save() snapshot. The CRC trailer is
    /// verified BEFORE any field is parsed, so every single-byte
    /// corruption and every truncation is rejected; throws cli_error
    /// (support/cli.hpp) with a precise message on any malformed input
    /// (bad CRC, bad magic/version, missing or surplus fields, counts
    /// that do not sum to n, a ball total beyond 64 bits). Version-1
    /// snapshots (no trailer) are refused — regenerate them.
    [[nodiscard]] static level_profile load(std::istream& in);

    /// Structural equality: same bins-per-level counts (capacity beyond the
    /// top level is ignored).
    [[nodiscard]] bool operator==(const level_profile& other) const;

private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t n_ = 0;
    std::uint64_t total_balls_ = 0;
    std::uint64_t max_level_ = 0;
};

/// The working state of a level kernel: the dense bins-per-level counts of
/// a profile plus its occupied span [base, top]. Kernels mutate it with
/// plain array arithmetic — decrement a level to take a probed bin out of
/// the sampling population, increment a level to put it back — and flush it
/// through level_profile::from_counts(counts) once per run_balls call.
struct level_state {
    std::vector<std::uint64_t> counts;
    std::uint64_t base = 0; // no bin sits below this level
    std::uint64_t top = 0;  // no bin sits above this level

    explicit level_state(const level_profile& profile);

    /// Guarantees levels [0, top + headroom] are addressable.
    void ensure_headroom(std::uint64_t headroom) {
        if (top + headroom >= counts.size()) {
            counts.resize(
                std::max<std::size_t>(counts.size() * 2, top + headroom + 1),
                0);
        }
    }

    /// The level of the bin with rank `r` when the bins are laid out level
    /// by level: the smallest level whose running count exceeds r, so a
    /// uniform r below the bin count picks a level with probability
    /// proportional to its count. The scan starts at `base` and walks at
    /// most the min-to-max load span, which for every process here is the
    /// paper's gap: a handful of levels, each probe a couple of L1 loads.
    [[nodiscard]] std::uint64_t level_of_rank(std::uint64_t r) const {
        std::uint64_t level = base;
        while (counts[level] <= r) {
            r -= counts[level];
            ++level;
        }
        return level;
    }
};

/// Reads a whole CRC-trailed snapshot stream (format v2's shared envelope:
/// arbitrary text body followed by a final "crc32 <8 hex>" line), verifies
/// the trailer against the body, and returns the body. Shared by
/// level_profile::load and the snapshot-stage journal. Throws cli_error —
/// prefixed with `what` — when the trailer is missing or malformed or the
/// CRC does not match (which catches every single-byte corruption and every
/// truncation before parsing starts).
[[nodiscard]] std::string checked_snapshot_body(std::istream& in,
                                                const char* what);

} // namespace kdc::core

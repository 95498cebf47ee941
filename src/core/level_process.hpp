// Allocation processes on the level-compressed state of
// core/level_profile.hpp: O(max-load) words instead of O(n), so the heavily
// loaded m >> n regime runs at billion-bin scale in a few kilobytes.
//
// Every process here is DISTRIBUTIONALLY IDENTICAL to its per-bin
// counterpart in core/process.hpp (verified against the exact small-n
// distributions of core/exact.cpp and by two-sample tests in the suite) but
// draws from a different point of the RNG stream, so individual runs are
// not bit-identical across kernels — see "Choosing a kernel" in README.md.
//
// The subtle part is the paper's with-replacement probe step (Section 1.1):
// duplicates in a round's d probes are meaningful (a bin sampled m times
// owns m candidate slots). The level kernel simulates the collisions
// explicitly. With j distinct bins probed so far, one uniform draw
// v in [0, n) decides probe i exactly:
//
//   * v < j       — the probe duplicates distinct probe v (each previously
//                   probed bin is hit with probability exactly 1/n);
//   * v >= j      — the probe lands on a fresh bin, and v - j is uniform in
//                   [0, n - j), i.e. a without-replacement draw from the
//                   remaining profile (extract_bin keeps the Fenwick
//                   weights in sync).
//
// One draw per probe, one level per distinct bin: the whole round never
// touches per-bin state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/level_profile.hpp"
#include "rng/sampling.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

namespace detail {

/// The dense per-level counts behind a profile, plus the occupied span.
/// The level-process fast paths run whole run_balls calls on this mirror —
/// plain array arithmetic, no Fenwick updates, no per-probe contract
/// checks — and flush it back through level_profile::from_counts once at
/// the end of the call.
struct dense_mirror {
    std::vector<std::uint64_t> counts;
    std::uint64_t base = 0; // minimum occupied level
    std::uint64_t top = 0;  // maximum occupied level

    explicit dense_mirror(const level_profile& profile);

    /// Guarantees levels [0, top + headroom] are addressable.
    void ensure_headroom(std::uint64_t headroom) {
        if (top + headroom >= counts.size()) {
            counts.resize(
                std::max<std::size_t>(counts.size() * 2, top + headroom + 1),
                0);
        }
    }

    /// The level of the bin with rank `r` among the mirrored bins — the
    /// subtract-scan replacement for fenwick_tree::find_kth. The scan
    /// starts at the minimum occupied level and walks at most the
    /// min-to-max load span, which for every process here is the paper's
    /// gap: a handful of levels, each probe a couple of L1 loads.
    [[nodiscard]] std::uint64_t level_of_rank(std::uint64_t r) const {
        std::uint64_t level = base;
        while (counts[level] <= r) {
            r -= counts[level];
            ++level;
        }
        return level;
    }
};

} // namespace detail

/// The (k,d)-choice process of Section 1.1 on level-compressed state.
/// Distributionally identical to kd_choice_process; O(max-load) memory and
/// O(d log L) work per round. Requires 1 <= k < d <= n.
class kd_choice_level_process {
public:
    kd_choice_level_process(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                            std::uint64_t seed);

    /// Starts from an existing profile (snapshot resume, heavily loaded
    /// starts). balls_placed()/messages() count only post-construction
    /// activity.
    kd_choice_level_process(level_profile initial, std::uint64_t k,
                            std::uint64_t d, std::uint64_t seed);

    /// Runs one round: d probes (with-replacement collisions simulated
    /// exactly), k balls kept by the multiplicity rule. This is the
    /// reference implementation, operating directly on the Fenwick-backed
    /// profile; run_balls takes a faster dense-counts path that consumes
    /// the RNG stream in exactly the same order and keeps exactly the same
    /// slots, so both paths produce byte-identical profiles.
    void run_round();

    /// Places `balls` balls (must be a multiple of k: whole rounds).
    /// Byte-identical to calling run_round balls/k times, but runs on a
    /// dense per-level counts mirror: the probe→level lookup is a short
    /// subtract-scan from the minimum occupied level (the span between the
    /// minimum and maximum load is the paper's GAP — O(ln ln n), a handful
    /// of levels) instead of a Fenwick descent, and extraction/reinsertion
    /// are plain array decrements/increments. The mirror is flushed back
    /// into the profile once per call.
    void run_balls(std::uint64_t balls);

    [[nodiscard]] const level_profile& profile() const noexcept {
        return profile_;
    }
    [[nodiscard]] std::uint64_t balls_placed() const noexcept {
        return balls_placed_;
    }
    [[nodiscard]] std::uint64_t rounds_run() const noexcept {
        return rounds_run_;
    }
    /// Probe messages issued so far: d per round (footnote 1 of the paper).
    [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }

    [[nodiscard]] std::uint64_t n() const noexcept { return profile_.n(); }
    [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
    [[nodiscard]] std::uint64_t d() const noexcept { return d_; }

private:
    /// One distinct bin probed this round: its pre-round level and how many
    /// of the d probes hit it.
    struct distinct_probe {
        std::uint64_t level = 0;
        std::uint32_t multiplicity = 0;
    };
    /// One candidate slot of the multiplicity rule: height level + occurrence
    /// index, random tie key, owning distinct probe.
    struct slot {
        std::uint64_t height = 0;
        std::uint64_t tie_key = 0;
        std::uint32_t probe = 0;
    };

    /// Fills kept_per_probe_ with each distinct probe's kept-slot count —
    /// the k smallest slots of slots_ under the strict weak order
    /// (height, tie_key). Instead of sorting, slots are bucketed by height
    /// (the height range is the load span plus d — a handful of buckets):
    /// every slot strictly below the threshold height is kept outright and
    /// only the few slots AT the threshold compare tie keys, which keeps
    /// the identical slot set as a full (height, tie_key) sort (tie keys
    /// are unique w.p. 1) at a fraction of the branches.
    void count_kept();

    /// The dense-mirror fast path behind run_balls (see its comment).
    void run_rounds_fast(std::uint64_t rounds);

    /// Finishes a round whose probe step hit a with-replacement duplicate
    /// (rare at large n): falls back to the generic multiplicity-rule
    /// selection over materialized slots, on the same mirror.
    void run_duplicate_round_tail(detail::dense_mirror& mirror,
                                  std::uint64_t j, std::uint64_t probe,
                                  std::uint64_t dup_at);

    level_profile profile_;
    std::uint64_t k_;
    std::uint64_t d_;
    std::uint64_t balls_placed_ = 0;
    std::uint64_t rounds_run_ = 0;
    std::uint64_t messages_ = 0;
    std::vector<distinct_probe> distinct_;
    std::vector<slot> slots_;
    std::vector<std::uint32_t> kept_per_probe_;
    std::vector<std::uint32_t> height_hist_;     // selection scratch
    std::vector<std::uint32_t> threshold_slots_; // selection scratch
    std::vector<std::uint64_t> fast_levels_;     // fast-path probe levels
    std::vector<std::uint64_t> fast_cum_;        // fast-path running cumsum
    rng::xoshiro256ss gen_;
    rng::batched_uniform probe_draws_; // bound n, batched
};

/// Classical single-choice on level-compressed state: one probe, one ball,
/// O(log L) per ball. Distributionally identical to single_choice_process.
class single_choice_level_process {
public:
    single_choice_level_process(std::uint64_t n, std::uint64_t seed);

    /// Starts from an existing profile (snapshot resume, steady-state
    /// fast-forward). balls_placed()/messages() count only
    /// post-construction activity.
    single_choice_level_process(level_profile initial, std::uint64_t seed);

    void run_balls(std::uint64_t balls);

    [[nodiscard]] const level_profile& profile() const noexcept {
        return profile_;
    }
    [[nodiscard]] std::uint64_t balls_placed() const noexcept {
        return balls_placed_;
    }
    [[nodiscard]] std::uint64_t messages() const noexcept {
        return balls_placed_; // one probe per ball
    }
    [[nodiscard]] std::uint64_t n() const noexcept { return profile_.n(); }

private:
    level_profile profile_;
    std::uint64_t balls_placed_ = 0;
    rng::xoshiro256ss gen_;
    rng::batched_uniform probe_draws_;
};

/// Classical d-choice of Azar et al. on level-compressed state. For k = 1
/// probe collisions are irrelevant (the ball goes to the minimum-level
/// probe either way), so each ball is just "min of d level draws", O(d log
/// L). Distributionally identical to d_choice_process.
class d_choice_level_process {
public:
    d_choice_level_process(std::uint64_t n, std::uint64_t d,
                           std::uint64_t seed);

    /// Starts from an existing profile (snapshot resume, steady-state
    /// fast-forward). balls_placed()/messages() count only
    /// post-construction activity.
    d_choice_level_process(level_profile initial, std::uint64_t d,
                           std::uint64_t seed);

    void run_balls(std::uint64_t balls);

    [[nodiscard]] const level_profile& profile() const noexcept {
        return profile_;
    }
    [[nodiscard]] std::uint64_t balls_placed() const noexcept {
        return balls_placed_;
    }
    [[nodiscard]] std::uint64_t messages() const noexcept {
        return balls_placed_ * d_;
    }
    [[nodiscard]] std::uint64_t n() const noexcept { return profile_.n(); }
    [[nodiscard]] std::uint64_t d() const noexcept { return d_; }

private:
    level_profile profile_;
    std::uint64_t d_;
    std::uint64_t balls_placed_ = 0;
    rng::xoshiro256ss gen_;
    rng::batched_uniform probe_draws_;
};

} // namespace kdc::core

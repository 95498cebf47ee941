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
//                   unprobed bins (each probed bin's level is decremented
//                   in the working state, so the rank lookup skips it).
//
// One draw per probe, one level per distinct bin: the whole round never
// touches per-bin state. Every process here runs a whole run_balls call on
// a level_state (core/level_profile.hpp) and flushes it into its profile at
// the end.
#pragma once

#include <cstdint>
#include <vector>

#include "core/level_profile.hpp"
#include "core/round_kernel.hpp"
#include "rng/sampling.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

/// The (k,d)-choice process of Section 1.1 on level-compressed state.
/// Distributionally identical to kd_choice_process; O(max-load) memory, and
/// each of a round's d probes is one scan over the occupied load span.
/// Requires 1 <= k < d <= n.
class kd_choice_level_process {
public:
    kd_choice_level_process(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                            std::uint64_t seed);

    /// Starts from an existing profile (snapshot resume, heavily loaded
    /// starts). balls_placed()/messages() count only post-construction
    /// activity.
    kd_choice_level_process(level_profile initial, std::uint64_t k,
                            std::uint64_t d, std::uint64_t seed);

    /// Places `balls` balls (must be a multiple of k: whole rounds): each
    /// round makes d probes (with-replacement collisions simulated exactly)
    /// and keeps k balls by the multiplicity rule. The probe-to-level lookup
    /// is a scan of the occupied span (the span between the minimum and
    /// maximum load is the paper's GAP — O(ln ln n), a handful of levels),
    /// and extraction/reinsertion are plain decrements/increments of the
    /// working state, flushed into the profile once per call.
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

    /// Finishes a round whose probe step hit a with-replacement duplicate
    /// (rare at large n): draws the remaining probes, then keeps the k
    /// smallest slots with core::top_k, on the same working state.
    void run_duplicate_round_tail(level_state& state, std::uint64_t j,
                                  std::uint64_t probe, std::uint64_t dup_at);

    level_profile profile_;
    std::uint64_t k_;
    std::uint64_t d_;
    std::uint64_t balls_placed_ = 0;
    std::uint64_t rounds_run_ = 0;
    std::uint64_t messages_ = 0;
    std::vector<distinct_probe> distinct_;
    std::vector<packed_slot> kept_;              // duplicate-tail selection
    std::vector<std::uint32_t> kept_per_probe_;  // duplicate-tail gains
    std::vector<std::uint32_t> height_hist_;     // probed bins per level
    std::vector<std::uint64_t> fast_levels_;     // fresh probes' levels
    std::vector<std::uint64_t> fast_cum_;        // narrow-span running cumsum
    rng::xoshiro256ss gen_;
    rng::batched_uniform probe_draws_; // bound n, batched
};

/// Classical single-choice on level-compressed state: one probe, one ball,
/// one scan of the occupied span per ball. Distributionally identical to
/// single_choice_process.
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
/// probe either way), so each ball is just "min of d level draws", d scans
/// of the occupied span. Distributionally identical to d_choice_process.
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

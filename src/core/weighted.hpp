// Weighted (k,d)-choice: balls carry weights, bins accumulate weight.
//
// The unweighted paper sits in a line of work on weighted balanced
// allocations (Talwar-Wieder [17], Peres-Talwar-Wieder [14], both cited in
// Section 1). This module extends the (k,d) batch discipline to weighted
// balls so the two axes can be studied together:
//
//   * each round draws k ball weights from a weight distribution;
//   * d bins are probed i.u.r. with replacement;
//   * candidate slots are ordered by *current weight load*, and the k
//     heaviest balls of the round are matched to the k lightest slots
//     (heaviest-ball-to-lightest-slot, the standard greedy matching);
//   * the multiplicity rule carries over: a bin sampled m times receives at
//     most m of the round's balls.
//
// With unit weights this reduces exactly to the paper's process (tested).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

/// Weight loads are doubles (weights need not be integral).
using weight_vector = std::vector<double>;

/// Draws one ball weight; must return a positive finite value.
using weight_distribution = std::function<double(rng::xoshiro256ss&)>;

/// All balls weigh 1 (recovers the unweighted process).
[[nodiscard]] weight_distribution unit_weights();

/// Weights uniform in [lo, hi], 0 < lo <= hi.
[[nodiscard]] weight_distribution uniform_weights(double lo, double hi);

/// Exponentially distributed weights with the given mean.
[[nodiscard]] weight_distribution exponential_weights(double mean);

/// Pareto(shape) weights with minimum x_min (heavy-tailed; shape > 1 for a
/// finite mean).
[[nodiscard]] weight_distribution pareto_weights(double shape, double x_min);

/// The weighted (k,d)-choice process on per-bin double loads.
class weighted_kd_process {
public:
    weighted_kd_process(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                        std::uint64_t seed, weight_distribution weights);

    void run_round();
    /// Runs one round with explicit probes and explicit ball weights
    /// (|weights| == k, |samples| == d). Used by tests.
    void run_round_with(std::span<const std::uint32_t> samples,
                        std::span<const double> ball_weights);
    void run_rounds(std::uint64_t rounds);
    /// Places `balls` balls (must be a multiple of k: whole rounds) — the
    /// run_balls spelling every other process shares.
    void run_balls(std::uint64_t balls);

    [[nodiscard]] const weight_vector& loads() const noexcept {
        return loads_;
    }
    [[nodiscard]] std::uint64_t balls_placed() const noexcept {
        return balls_placed_;
    }
    [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
    [[nodiscard]] double total_weight() const noexcept {
        return total_weight_;
    }
    [[nodiscard]] std::uint64_t n() const noexcept { return loads_.size(); }
    [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
    [[nodiscard]] std::uint64_t d() const noexcept { return d_; }

    /// Max weight load and the weighted gap (max - total/n).
    [[nodiscard]] double max_load() const;
    [[nodiscard]] double gap() const;

private:
    weight_vector loads_;
    std::uint64_t k_;
    std::uint64_t d_;
    std::uint64_t balls_placed_ = 0;
    std::uint64_t messages_ = 0;
    double total_weight_ = 0.0;
    weight_distribution weights_;
    std::vector<std::uint32_t> sample_buffer_;
    std::vector<double> weight_buffer_;
    rng::xoshiro256ss gen_;

    struct slot {
        double load = 0.0;      // bin weight at selection time
        std::uint64_t key = 0;  // random tie-break
        std::uint32_t bin = 0;
        std::uint32_t occurrence = 0; // multiplicity index within the round
    };
    // Per-round scratch, reused so a round does not allocate.
    std::vector<slot> slots_;
    std::vector<std::uint32_t> sorted_samples_;
    std::vector<double> weights_desc_;
    std::vector<bool> used_;
};

} // namespace kdc::core

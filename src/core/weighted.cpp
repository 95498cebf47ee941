#include "core/weighted.hpp"

#include <algorithm>
#include <cmath>

#include "rng/sampling.hpp"
#include "rng/uniform.hpp"
#include "support/huge_pages.hpp"

namespace kdc::core {

weight_distribution unit_weights() {
    return [](rng::xoshiro256ss&) { return 1.0; };
}

weight_distribution uniform_weights(double lo, double hi) {
    KD_EXPECTS(lo > 0.0 && lo <= hi);
    return [lo, hi](rng::xoshiro256ss& gen) {
        return lo + (hi - lo) * rng::uniform_double(gen);
    };
}

weight_distribution exponential_weights(double mean) {
    KD_EXPECTS(mean > 0.0);
    return [mean](rng::xoshiro256ss& gen) {
        return rng::exponential(gen, mean);
    };
}

weight_distribution pareto_weights(double shape, double x_min) {
    KD_EXPECTS(shape > 0.0);
    KD_EXPECTS(x_min > 0.0);
    return [shape, x_min](rng::xoshiro256ss& gen) {
        // Inverse CDF: x_min * (1 - U)^(-1/shape); 1 - U in (0, 1].
        return x_min *
               std::pow(1.0 - rng::uniform_double(gen), -1.0 / shape);
    };
}

weighted_kd_process::weighted_kd_process(std::uint64_t n, std::uint64_t k,
                                         std::uint64_t d, std::uint64_t seed,
                                         weight_distribution weights)
    : loads_(zeroed_vector<double>(n)), k_(k), d_(d),
      weights_(std::move(weights)), gen_(seed) {
    KD_EXPECTS_MSG(k >= 1 && k < d && d <= n, "requires 1 <= k < d <= n");
    KD_EXPECTS_MSG(static_cast<bool>(weights_),
                   "weight distribution must be callable");
    sample_buffer_.resize(d);
    weight_buffer_.resize(k);
}

void weighted_kd_process::run_round() {
    rng::sample_with_replacement(gen_, loads_.size(),
                                 std::span<std::uint32_t>(sample_buffer_));
    for (auto& w : weight_buffer_) {
        w = weights_(gen_);
        KD_ENSURES_MSG(w > 0.0 && std::isfinite(w),
                       "ball weights must be positive and finite");
    }
    run_round_with(sample_buffer_, weight_buffer_);
}

void weighted_kd_process::run_round_with(
    std::span<const std::uint32_t> samples,
    std::span<const double> ball_weights) {
    KD_EXPECTS_MSG(samples.size() == d_, "a round probes exactly d bins");
    KD_EXPECTS_MSG(ball_weights.size() == k_, "a round places exactly k balls");

    // Build one slot per sample occurrence (multiplicity rule).
    slots_.clear();
    slots_.reserve(samples.size());
    // Count occurrences: sort a copy of the samples so occurrence indices
    // are well defined (duplicates are adjacent after sorting).
    auto& sorted = sorted_samples_;
    sorted.assign(samples.begin(), samples.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size();) {
        const std::uint32_t bin = sorted[i];
        KD_EXPECTS(bin < loads_.size());
        std::uint32_t occurrence = 0;
        for (; i < sorted.size() && sorted[i] == bin; ++i) {
            slots_.push_back(slot{loads_[bin],
                                  static_cast<std::uint64_t>(gen_()), bin,
                                  occurrence++});
        }
    }

    // Order slots by current load (ties random); order the round's balls by
    // descending weight; match heaviest ball to lightest slot. A slot's
    // effective load for the s-th extra ball in the same bin includes the
    // balls already matched to lower occurrences, which the greedy matching
    // below accounts for by updating loads as it assigns.
    std::sort(slots_.begin(), slots_.end(), [](const slot& a, const slot& b) {
        if (a.load != b.load) {
            return a.load < b.load;
        }
        if (a.bin != b.bin) {
            return a.key < b.key;
        }
        return a.occurrence < b.occurrence;
    });

    auto& weights_desc = weights_desc_;
    weights_desc.assign(ball_weights.begin(), ball_weights.end());
    std::sort(weights_desc.begin(), weights_desc.end(), std::greater<>{});

    // Greedy: for each ball (heaviest first) pick the currently lightest
    // remaining slot. Slots of the same bin become heavier as earlier balls
    // land, so re-scan; k and d are small (k < d <= a few hundred in all
    // experiments), so the quadratic scan is cheap. Every buffer of the
    // round is member scratch, so a round allocates only while they grow.
    auto& used = used_;
    used.assign(slots_.size(), false);
    for (const double w : weights_desc) {
        std::size_t best = slots_.size();
        double best_load = 0.0;
        for (std::size_t s = 0; s < slots_.size(); ++s) {
            if (used[s]) {
                continue;
            }
            const double current = loads_[slots_[s].bin];
            if (best == slots_.size() || current < best_load ||
                (current == best_load &&
                 slots_[s].key < slots_[best].key)) {
                best = s;
                best_load = current;
            }
        }
        KD_ASSERT(best < slots_.size());
        used[best] = true;
        loads_[slots_[best].bin] += w;
        total_weight_ += w;
    }

    balls_placed_ += k_;
    messages_ += d_;
}

void weighted_kd_process::run_rounds(std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) {
        run_round();
    }
}

void weighted_kd_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    run_rounds(balls / k_);
}

double weighted_kd_process::max_load() const {
    KD_EXPECTS(!loads_.empty());
    return *std::max_element(loads_.begin(), loads_.end());
}

double weighted_kd_process::gap() const {
    return max_load() - total_weight_ / static_cast<double>(loads_.size());
}

} // namespace kdc::core

#include "core/baselines.hpp"

#include <algorithm>
#include <utility>

#include "rng/sampling.hpp"
#include "rng/uniform.hpp"
#include "support/huge_pages.hpp"

namespace kdc::core {

one_plus_beta_process::one_plus_beta_process(std::uint64_t n, double beta,
                                             std::uint64_t seed)
    : loads_(zeroed_vector<bin_load>(n)), beta_(beta), gen_(seed) {
    KD_EXPECTS(n >= 1);
    KD_EXPECTS_MSG(beta >= 0.0 && beta <= 1.0, "beta must lie in [0, 1]");
}

void one_plus_beta_process::run_balls(std::uint64_t balls) {
    const std::uint64_t n = loads_.size();
    for (std::uint64_t i = 0; i < balls; ++i) {
        auto chosen = static_cast<std::uint32_t>(rng::uniform_below(gen_, n));
        ++messages_;
        if (rng::bernoulli(gen_, beta_)) {
            const auto second =
                static_cast<std::uint32_t>(rng::uniform_below(gen_, n));
            ++messages_;
            if (loads_[second] < loads_[chosen] ||
                (loads_[second] == loads_[chosen] &&
                 rng::bernoulli(gen_, 0.5))) {
                chosen = second;
            }
        }
        loads_[chosen] += 1;
    }
    balls_placed_ += balls;
}

one_plus_beta_level_process::one_plus_beta_level_process(std::uint64_t n,
                                                         double beta,
                                                         std::uint64_t seed)
    : one_plus_beta_level_process(level_profile(n), beta, seed) {}

one_plus_beta_level_process::one_plus_beta_level_process(level_profile initial,
                                                         double beta,
                                                         std::uint64_t seed)
    : profile_(std::move(initial)), beta_(beta), gen_(seed),
      probe_draws_(profile_.n()) {
    KD_EXPECTS(profile_.n() >= 1);
    KD_EXPECTS_MSG(beta >= 0.0 && beta <= 1.0, "beta must lie in [0, 1]");
}

void one_plus_beta_level_process::run_balls(std::uint64_t balls) {
    if (balls == 0) {
        return;
    }
    level_state state(profile_);
    for (std::uint64_t ball = 0; ball < balls; ++ball) {
        state.ensure_headroom(1);
        while (state.counts[state.base] == 0) {
            ++state.base; // no bin ever moves below its probed level
        }
        const std::uint64_t l1 =
            state.level_of_rank(probe_draws_.next(gen_));
        ++messages_;
        std::uint64_t winner = l1;
        if (rng::bernoulli(gen_, beta_)) {
            ++messages_;
            // Second probe, with replacement: take the first bin out, then
            // one draw v in [0, n) decides duplicate (v == 0, probability
            // exactly 1/n) vs a fresh bin among the remaining n - 1 (rank
            // v - 1). On l1 <= l2 the first bin wins (on a tie either bin
            // gives the same profile transition, so no coin is needed).
            --state.counts[l1];
            const std::uint64_t v = probe_draws_.next(gen_);
            if (v != 0) {
                winner = std::min(l1, state.level_of_rank(v - 1));
            }
            ++state.counts[l1];
        }
        --state.counts[winner];
        ++state.counts[winner + 1];
        state.top = std::max(state.top, winner + 1);
    }
    profile_ = level_profile::from_counts(std::move(state.counts));
    balls_placed_ += balls;
}

batched_greedy_process::batched_greedy_process(std::uint64_t n,
                                               std::uint64_t k,
                                               std::uint64_t d,
                                               std::uint64_t seed)
    : batched_greedy_process(zeroed_vector<bin_load>(n), k, d, seed) {}

batched_greedy_process::batched_greedy_process(load_vector initial_loads,
                                               std::uint64_t k,
                                               std::uint64_t d,
                                               std::uint64_t seed)
    : loads_(std::move(initial_loads)), k_(k), d_(d), gen_(seed) {
    KD_EXPECTS_MSG(k >= 1 && k < d && d <= loads_.size(),
                   "requires 1 <= k < d <= n");
    sample_buffer_.resize(d);
}

void batched_greedy_process::run_round() {
    rng::sample_with_replacement(gen_, loads_.size(),
                                 std::span<std::uint32_t>(sample_buffer_));
    run_round_with_samples(sample_buffer_);
}

void batched_greedy_process::run_round_with_samples(
    std::span<const std::uint32_t> samples) {
    KD_EXPECTS_MSG(samples.size() == d_, "a round probes exactly d bins");

    distinct_buffer_.assign(samples.begin(), samples.end());
    std::sort(distinct_buffer_.begin(), distinct_buffer_.end());
    distinct_buffer_.erase(
        std::unique(distinct_buffer_.begin(), distinct_buffer_.end()),
        distinct_buffer_.end());

    // Section 7 policy: every ball goes to the currently least loaded
    // distinct candidate, no multiplicity cap. Ties broken uniformly via
    // reservoir sampling over the minima.
    for (std::uint64_t ball = 0; ball < k_; ++ball) {
        std::uint32_t best = distinct_buffer_.front();
        bin_load best_load = loads_[best];
        std::uint64_t ties = 1;
        for (std::size_t i = 1; i < distinct_buffer_.size(); ++i) {
            const std::uint32_t candidate = distinct_buffer_[i];
            const bin_load load = loads_[candidate];
            if (load < best_load) {
                best = candidate;
                best_load = load;
                ties = 1;
            } else if (load == best_load) {
                ++ties;
                if (rng::uniform_below(gen_, ties) == 0) {
                    best = candidate;
                }
            }
        }
        loads_[best] += 1;
    }

    balls_placed_ += k_;
    messages_ += d_;
}

void batched_greedy_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    for (std::uint64_t placed = 0; placed < balls; placed += k_) {
        run_round();
    }
}

adaptive_threshold_process::adaptive_threshold_process(std::uint64_t n,
                                                       bin_load threshold,
                                                       std::uint32_t max_probes,
                                                       std::uint64_t seed)
    : loads_(zeroed_vector<bin_load>(n)), threshold_(threshold),
      max_probes_(max_probes), gen_(seed) {
    KD_EXPECTS(n >= 1);
    KD_EXPECTS_MSG(max_probes >= 1, "a ball must probe at least once");
}

void adaptive_threshold_process::run_balls(std::uint64_t balls) {
    const std::uint64_t n = loads_.size();
    for (std::uint64_t i = 0; i < balls; ++i) {
        std::uint32_t best = 0;
        bin_load best_load = 0;
        for (std::uint32_t probe = 0; probe < max_probes_; ++probe) {
            const auto candidate =
                static_cast<std::uint32_t>(rng::uniform_below(gen_, n));
            ++messages_;
            if (probe == 0 || loads_[candidate] < best_load) {
                best = candidate;
                best_load = loads_[candidate];
            }
            if (best_load < threshold_) {
                break;
            }
        }
        loads_[best] += 1;
    }
    balls_placed_ += balls;
}

} // namespace kdc::core

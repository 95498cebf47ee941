#include "core/process.hpp"

#include <algorithm>

#include "rng/uniform.hpp"
#include "support/huge_pages.hpp"

namespace kdc::core {

kd_choice_process::kd_choice_process(std::uint64_t n, std::uint64_t k,
                                     std::uint64_t d, std::uint64_t seed)
    : kd_choice_process(zeroed_vector<bin_load>(n), k, d, seed) {}

kd_choice_process::kd_choice_process(load_vector initial_loads,
                                     std::uint64_t k, std::uint64_t d,
                                     std::uint64_t seed)
    : loads_(std::move(initial_loads)), k_(k), d_(d), gen_(seed),
      probe_draws_(loads_.size()) {
    KD_EXPECTS_MSG(k >= 1, "k must be positive");
    KD_EXPECTS_MSG(k < d, "(k,d)-choice requires k < d");
    KD_EXPECTS_MSG(d <= loads_.size(), "cannot probe more bins than exist");
    sample_buffer_.resize(d);
}

void kd_choice_process::run_round() {
    const std::span<std::uint32_t> samples(sample_buffer_);
    if (probe_mode_ == probe_mode::with_replacement) {
        probe_draws_.fill(gen_, samples);
    } else {
        rng::sample_without_replacement(gen_, loads_.size(), sample_scratch_,
                                        samples);
    }
    run_round_with_samples(samples);
}

void kd_choice_process::run_round_with_samples(
    std::span<const std::uint32_t> samples) {
    KD_EXPECTS_MSG(samples.size() == d_, "a round probes exactly d bins");
    place_round(loads_, samples, k_, gen_, scratch_,
                record_heights_ ? &height_log_ : nullptr);
    balls_placed_ += k_;
    rounds_run_ += 1;
    messages_ += d_;
}

void kd_choice_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    if (record_heights_) {
        // Every round appends exactly k entries; one up-front reserve
        // replaces the reallocation churn of the figure benches' long runs.
        height_log_.reserve(height_log_.size() + balls);
    }
    // The probe-mode branch, the sample span, k and the height log are
    // loop-invariant: test the mode once and run a tight per-round loop
    // instead of re-deciding (and reloading members) every round as
    // run_round() must. The generator runs on a local copy so its state can
    // stay in registers across the kernel's stores instead of round-tripping
    // through the object every draw.
    const std::uint64_t rounds = balls / k_;
    const std::size_t k = k_;
    const std::uint64_t n = loads_.size();
    const std::span<std::uint32_t> samples(sample_buffer_);
    std::vector<placed_ball>* const log =
        record_heights_ ? &height_log_ : nullptr;
    rng::xoshiro256ss gen = gen_;
    if (probe_mode_ == probe_mode::with_replacement) {
        // The probe step goes through the batched Lemire sampler: the bound
        // is n for the whole experiment, so every probe is a
        // pop-multiply-compare off a prefilled 256-word block instead of a
        // generator call (rng/sampling.hpp, batched_uniform).
        for (std::uint64_t round = 0; round < rounds; ++round) {
            probe_draws_.fill(gen, samples);
            place_round(loads_, samples, k, gen, scratch_, log);
        }
    } else {
        for (std::uint64_t round = 0; round < rounds; ++round) {
            rng::sample_without_replacement(gen, n, sample_scratch_, samples);
            place_round(loads_, samples, k, gen, scratch_, log);
        }
    }
    gen_ = gen;
    balls_placed_ += rounds * k_;
    rounds_run_ += rounds;
    messages_ += rounds * d_;
}

single_choice_process::single_choice_process(std::uint64_t n,
                                             std::uint64_t seed)
    : loads_(zeroed_vector<bin_load>(n)), gen_(seed), probe_draws_(n) {
    KD_EXPECTS(n >= 1);
}

void single_choice_process::run_balls(std::uint64_t balls) {
    // batched_uniform consumes generator words exactly as repeated
    // uniform_below calls would, so this is the same process bit for bit.
    for (std::uint64_t i = 0; i < balls; ++i) {
        loads_[probe_draws_.next(gen_)] += 1;
    }
    balls_placed_ += balls;
}

d_choice_process::d_choice_process(std::uint64_t n, std::uint64_t d,
                                   std::uint64_t seed)
    : loads_(zeroed_vector<bin_load>(n)), d_(d), gen_(seed), probe_draws_(n) {
    KD_EXPECTS(d >= 1);
    KD_EXPECTS(d <= n);
}

void d_choice_process::run_balls(std::uint64_t balls) {
    for (std::uint64_t i = 0; i < balls; ++i) {
        // Least loaded of d probes; ties go to the first minimum seen, which
        // is uniform over tied bins because probe order is itself random.
        std::uint32_t best =
            static_cast<std::uint32_t>(probe_draws_.next(gen_));
        bin_load best_load = loads_[best];
        for (std::uint64_t probe = 1; probe < d_; ++probe) {
            const auto candidate =
                static_cast<std::uint32_t>(probe_draws_.next(gen_));
            if (loads_[candidate] < best_load) {
                best = candidate;
                best_load = loads_[candidate];
            }
        }
        loads_[best] += 1;
    }
    balls_placed_ += balls;
}

} // namespace kdc::core

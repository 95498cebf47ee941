#include "core/serialized.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "support/huge_pages.hpp"

namespace kdc::core {

namespace {

void check_permutation(const std::vector<std::uint32_t>& sigma,
                       std::size_t k) {
    KD_ENSURES_MSG(sigma.size() == k, "sigma_r must have size k");
    std::vector<bool> seen(k, false);
    for (const auto v : sigma) {
        KD_ENSURES_MSG(v < k && !seen[v], "sigma_r must be a permutation");
        seen[v] = true;
    }
}

} // namespace

sigma_schedule identity_schedule() {
    return [](std::uint64_t, std::size_t k) {
        std::vector<std::uint32_t> sigma(k);
        std::iota(sigma.begin(), sigma.end(), 0u);
        return sigma;
    };
}

sigma_schedule reverse_schedule() {
    return [](std::uint64_t, std::size_t k) {
        std::vector<std::uint32_t> sigma(k);
        std::iota(sigma.rbegin(), sigma.rend(), 0u);
        return sigma;
    };
}

sigma_schedule random_schedule(std::uint64_t seed) {
    // Owns its own generator; shared_ptr keeps the schedule copyable.
    auto gen = std::make_shared<rng::xoshiro256ss>(seed);
    return [gen](std::uint64_t, std::size_t k) {
        return rng::random_permutation(*gen, static_cast<std::uint32_t>(k));
    };
}

sigma_schedule fixed_schedule(std::vector<std::uint32_t> sigma) {
    return [sigma = std::move(sigma)](std::uint64_t, std::size_t) {
        return sigma;
    };
}

serialized_process::serialized_process(std::uint64_t n, std::uint64_t k,
                                       std::uint64_t d, std::uint64_t seed,
                                       sigma_schedule schedule)
    : loads_(zeroed_vector<bin_load>(n)), k_(k), d_(d),
      schedule_(std::move(schedule)), gen_(seed), probe_draws_(n) {
    KD_EXPECTS_MSG(k >= 1 && k < d && d <= n, "requires 1 <= k < d <= n");
    KD_EXPECTS_MSG(static_cast<bool>(schedule_), "schedule must be callable");
    sample_buffer_.resize(d);
}

void serialized_process::run_round() {
    for (auto& slot : sample_buffer_) {
        slot = static_cast<std::uint32_t>(probe_draws_.next(gen_));
    }
    run_round_with_samples(sample_buffer_);
}

void serialized_process::run_round_with_samples(
    std::span<const std::uint32_t> samples) {
    KD_EXPECTS_MSG(samples.size() == d_, "a round probes exactly d bins");

    // The kernel appends the k kept slots in increasing height order; those
    // are the round's destinations regardless of sigma (Property (i)).
    round_slots_.clear();
    place_round(loads_, samples, k_, gen_, scratch_, &round_slots_);

    const auto sigma = schedule_(rounds_run_, k_);
    check_permutation(sigma, k_);
    for (std::size_t s = 0; s < k_; ++s) {
        placements_.push_back(round_slots_[sigma[s]]);
    }

    balls_placed_ += k_;
    rounds_run_ += 1;
    messages_ += d_;
}

void serialized_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    for (std::uint64_t placed = 0; placed < balls; placed += k_) {
        run_round();
    }
}

} // namespace kdc::core

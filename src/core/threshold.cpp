#include "core/threshold.hpp"

#include "rng/uniform.hpp"
#include "support/huge_pages.hpp"

namespace kdc::core {

sa_threshold_process::sa_threshold_process(std::uint64_t n, std::uint64_t x0,
                                           std::uint64_t seed)
    : loads_(zeroed_vector<bin_load>(n)), x0_(x0), bins_at_load_(8),
      gen_(seed) {
    KD_EXPECTS(n >= 1);
    KD_EXPECTS_MSG(x0 <= n, "rank threshold cannot exceed the bin count");
    bins_at_load_.add(0, static_cast<std::int64_t>(n));
}

void sa_threshold_process::run_balls(std::uint64_t balls) {
    const std::uint64_t n = loads_.size();
    for (std::uint64_t i = 0; i < balls; ++i) {
        ++balls_offered_;
        const auto bin =
            static_cast<std::uint32_t>(rng::uniform_below(gen_, n));
        const bin_load load = loads_[bin];
        if (load + 2 > bins_at_load_.size()) {
            bins_at_load_.grow_to(load + 2);
        }

        // Rank with random tie order among equally loaded bins.
        const std::uint64_t strictly_above = bins_at_load_.suffix_sum(load + 1);
        const std::uint64_t tied = bins_at_load_.value_at(load);
        KD_ASSERT(tied >= 1);
        const std::uint64_t rank =
            strictly_above + 1 + rng::uniform_below(gen_, tied);

        if (rank <= x0_) {
            continue; // discarded: the chosen bin is among the x0 most loaded
        }
        bins_at_load_.add(load, -1);
        bins_at_load_.add(load + 1, +1);
        loads_[bin] = load + 1;
        ++balls_placed_;
    }
}

} // namespace kdc::core

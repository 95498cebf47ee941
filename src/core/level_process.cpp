#include "core/level_process.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/process.hpp"

namespace kdc::core {

static_assert(allocation_process<kd_choice_level_process>);
static_assert(allocation_process<single_choice_level_process>);
static_assert(allocation_process<d_choice_level_process>);

kd_choice_level_process::kd_choice_level_process(std::uint64_t n,
                                                 std::uint64_t k,
                                                 std::uint64_t d,
                                                 std::uint64_t seed)
    : kd_choice_level_process(level_profile(n), k, d, seed) {}

kd_choice_level_process::kd_choice_level_process(level_profile initial,
                                                 std::uint64_t k,
                                                 std::uint64_t d,
                                                 std::uint64_t seed)
    : profile_(std::move(initial)), k_(k), d_(d), gen_(seed),
      probe_draws_(profile_.n()) {
    KD_EXPECTS_MSG(k >= 1, "k must be positive");
    KD_EXPECTS_MSG(k < d, "(k,d)-choice requires k < d");
    KD_EXPECTS_MSG(d <= profile_.n(), "cannot probe more bins than exist");
    distinct_.reserve(d);
    kept_.resize(k);
    kept_per_probe_.reserve(d);
}

void kd_choice_level_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    if (balls == 0) {
        return;
    }
    const std::uint64_t rounds = balls / k_;
    level_state state(profile_);
    if (fast_levels_.size() < d_) {
        fast_levels_.resize(d_);
    }

    for (std::uint64_t round = 0; round < rounds; ++round) {
        // A bin sampled m times can gain up to m <= d balls this round.
        state.ensure_headroom(d_);
        while (state.counts[state.base] == 0) {
            ++state.base; // reinsertions never land below a probed level
        }

        // Probe step (see the header comment): extraction is a plain
        // decrement, so the rank lookup always sees the without-replacement
        // remainder. A per-level histogram of the probed bins is built as a
        // side effect: it drives both the selection threshold and the
        // wholesale reinsert below.
        const std::size_t width =
            static_cast<std::size_t>(state.top - state.base) + 1;
        if (width > height_hist_.size()) {
            height_hist_.resize(width);
        }
        std::fill(height_hist_.begin(),
                  height_hist_.begin() + static_cast<std::ptrdiff_t>(width),
                  0u);
        std::uint64_t j = 0;
        std::uint64_t probe = 0;
        std::uint64_t dup_at = d_; // first duplicated draw, d_ if none
        if (width <= 64) [[likely]] {
            // Branch-eliminated probe loop: ranks resolve against an
            // inclusive running cumulative of the span's counts — the
            // level index is a sum of branchless compares and extraction
            // is a compare-subtract sweep, so the only data-dependent
            // branch left is the (almost never taken) duplicate check.
            if (fast_cum_.size() < width) {
                fast_cum_.resize(width);
            }
            std::uint64_t running = 0;
            for (std::size_t i = 0; i < width; ++i) {
                running += state.counts[state.base + i];
                fast_cum_[i] = running;
            }
            for (; probe < d_; ++probe) {
                const std::uint64_t v = probe_draws_.next(gen_);
                if (v >= j) [[likely]] {
                    const std::uint64_t r = v - j;
                    std::uint64_t e = 0;
                    for (std::size_t i = 0; i < width; ++i) {
                        e += fast_cum_[i] <= r ? 1 : 0;
                    }
                    for (std::size_t i = 0; i < width; ++i) {
                        fast_cum_[i] -= i >= e ? 1 : 0;
                    }
                    const std::uint64_t level = state.base + e;
                    --state.counts[level];
                    fast_levels_[j++] = level;
                    ++height_hist_[static_cast<std::size_t>(e)];
                } else {
                    dup_at = v;
                    break;
                }
            }
        } else {
            // Wide spans (snapshot starts far from steady state): the
            // subtract-scan's early exit beats a full-span sweep.
            for (; probe < d_; ++probe) {
                const std::uint64_t v = probe_draws_.next(gen_);
                if (v >= j) [[likely]] {
                    const std::uint64_t level = state.level_of_rank(v - j);
                    --state.counts[level];
                    fast_levels_[j++] = level;
                    ++height_hist_[static_cast<std::size_t>(level -
                                                            state.base)];
                } else {
                    dup_at = v;
                    break;
                }
            }
        }

        if (probe < d_) [[unlikely]] {
            run_duplicate_round_tail(state, j, probe, dup_at);
            continue;
        }

        // All multiplicities are 1: slot t is exactly probe t at height
        // level+1, so the k kept slots are the probes with the k smallest
        // (level, tie_key) pairs. No tie keys are drawn and none are
        // compared: every slot at the threshold height sits on a bin at
        // the same level,
        // and bins at a level are exchangeable — any `need` of them
        // winning yields the same counts vector.
        std::uint64_t need = k_;
        std::size_t bucket = 0;
        while (need > height_hist_[bucket]) {
            need -= height_hist_[bucket];
            ++bucket;
        }

        // Wholesale reinsert straight from the histogram: probed bins
        // below the threshold level gain their slot's ball, `need` of the
        // threshold-level bins gain theirs, the rest return unchanged.
        for (std::size_t b = 0; b < bucket; ++b) {
            state.counts[state.base + b + 1] += height_hist_[b];
        }
        state.counts[state.base + bucket] += height_hist_[bucket] - need;
        state.counts[state.base + bucket + 1] += need;
        for (std::size_t b = bucket + 1; b < width; ++b) {
            state.counts[state.base + b] += height_hist_[b];
        }
        state.top = std::max(state.top, state.base + bucket + 1);
    }

    profile_ = level_profile::from_counts(std::move(state.counts));
    balls_placed_ += rounds * k_;
    rounds_run_ += rounds;
    messages_ += rounds * d_;
}

void kd_choice_level_process::run_duplicate_round_tail(level_state& state,
                                                       std::uint64_t j,
                                                       std::uint64_t probe,
                                                       std::uint64_t dup_at) {
    // Rare at large n (probability ~ d^2/2n per round): rebuild the
    // distinct-probe list from the fast prefix and finish the round with
    // the multiplicity rule over explicit slots. RNG order is unchanged.
    distinct_.clear();
    for (std::uint64_t t = 0; t < j; ++t) {
        distinct_.push_back({fast_levels_[t], 1});
    }
    ++distinct_[static_cast<std::size_t>(dup_at)].multiplicity;
    for (++probe; probe < d_; ++probe) {
        const std::uint64_t v = probe_draws_.next(gen_);
        const auto seen = static_cast<std::uint64_t>(distinct_.size());
        if (v < seen) {
            ++distinct_[static_cast<std::size_t>(v)].multiplicity;
        } else {
            const std::uint64_t level = state.level_of_rank(v - seen);
            --state.counts[level];
            distinct_.push_back({level, 1});
        }
    }

    // The m occurrences of a bin at level l own slots of heights l+1..l+m;
    // keep the k smallest by (height, tie_key, slot number), one fresh key
    // per slot in slot order. Heights are offered relative to the lowest
    // occupied level, which fits top_k's 32-bit height field where an
    // absolute level need not. The probe number stands in for the slot
    // number: slots are numbered in probe order and one probe's slots
    // differ in height, so the order is the same.
    KD_EXPECTS_MSG(state.top - state.base + d_ <=
                       std::numeric_limits<bin_load>::max(),
                   "duplicate-round slot heights above the lowest level "
                   "and probe numbers must fit 32 bits");
    top_k select(kept_.data(), k_);
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        const auto& dp = distinct_[t];
        for (std::uint32_t occurrence = 1; occurrence <= dp.multiplicity;
             ++occurrence) {
            select.offer(
                static_cast<bin_load>(dp.level - state.base + occurrence),
                static_cast<std::uint64_t>(gen_()), t);
        }
    }
    // A kept slot implies all lower slots of the same bin are kept, so a
    // probe's kept-slot count IS its bin's ball gain.
    kept_per_probe_.assign(distinct_.size(), 0);
    for (std::size_t i = 0; i < k_; ++i) {
        ++kept_per_probe_[static_cast<std::uint32_t>(kept_[i])];
    }
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        const std::uint64_t level = distinct_[t].level + kept_per_probe_[t];
        ++state.counts[level];
        state.top = std::max(state.top, level);
    }
}

single_choice_level_process::single_choice_level_process(std::uint64_t n,
                                                         std::uint64_t seed)
    : single_choice_level_process(level_profile(n), seed) {}

single_choice_level_process::single_choice_level_process(
    level_profile initial, std::uint64_t seed)
    : profile_(std::move(initial)), gen_(seed), probe_draws_(profile_.n()) {}

void single_choice_level_process::run_balls(std::uint64_t balls) {
    if (balls == 0) {
        return;
    }
    level_state state(profile_);
    for (std::uint64_t ball = 0; ball < balls; ++ball) {
        state.ensure_headroom(1);
        while (state.counts[state.base] == 0) {
            ++state.base; // single choice never inserts below its probe
        }
        const std::uint64_t level =
            state.level_of_rank(probe_draws_.next(gen_));
        --state.counts[level];
        ++state.counts[level + 1];
        state.top = std::max(state.top, level + 1);
    }
    profile_ = level_profile::from_counts(std::move(state.counts));
    balls_placed_ += balls;
}

d_choice_level_process::d_choice_level_process(std::uint64_t n,
                                               std::uint64_t d,
                                               std::uint64_t seed)
    : d_choice_level_process(level_profile(n), d, seed) {}

d_choice_level_process::d_choice_level_process(level_profile initial,
                                               std::uint64_t d,
                                               std::uint64_t seed)
    : profile_(std::move(initial)), d_(d), gen_(seed),
      probe_draws_(profile_.n()) {
    KD_EXPECTS(d >= 1);
    KD_EXPECTS(d <= profile_.n());
}

void d_choice_level_process::run_balls(std::uint64_t balls) {
    if (balls == 0) {
        return;
    }
    level_state state(profile_);
    for (std::uint64_t ball = 0; ball < balls; ++ball) {
        state.ensure_headroom(1);
        while (state.counts[state.base] == 0) {
            ++state.base;
        }
        // Least loaded of d probes: only the minimum level matters, and any
        // duplicate probes cannot change it, so d independent level draws
        // are exact (no extraction between them). Once a probe hits level 0
        // no later probe can go lower, so the rest are not drawn: the
        // per-bin d_choice_process always draws all d, so the two kernels
        // agree in distribution, not draw for draw. messages() still
        // counts d per ball.
        std::uint64_t best = state.level_of_rank(probe_draws_.next(gen_));
        for (std::uint64_t probe = 1; probe < d_ && best > 0; ++probe) {
            best = std::min(best,
                            state.level_of_rank(probe_draws_.next(gen_)));
        }
        --state.counts[best];
        ++state.counts[best + 1];
        state.top = std::max(state.top, best + 1);
    }
    profile_ = level_profile::from_counts(std::move(state.counts));
    balls_placed_ += balls;
}

} // namespace kdc::core

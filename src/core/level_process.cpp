#include "core/level_process.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "core/process.hpp"

namespace kdc::core {

static_assert(allocation_process<kd_choice_level_process>);
static_assert(allocation_process<single_choice_level_process>);
static_assert(allocation_process<d_choice_level_process>);

namespace detail {

dense_mirror::dense_mirror(const level_profile& profile)
    : counts(std::max<std::uint64_t>(profile.level_capacity(),
                                     profile.max_level() + 1),
             0),
      top(profile.max_level()) {
    for (std::uint64_t level = 0; level <= top; ++level) {
        counts[level] = profile.bins_at(level);
    }
    while (counts[base] == 0) {
        ++base;
    }
}

} // namespace detail

using detail::dense_mirror;

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
    slots_.reserve(d);
    kept_per_probe_.reserve(d);
}

void kd_choice_level_process::count_kept() {
    kept_per_probe_.assign(distinct_.size(), 0);
    const std::size_t s = slots_.size();
    if (k_ >= s) {
        for (const slot& sl : slots_) {
            ++kept_per_probe_[sl.probe];
        }
        return;
    }

    // Bucket the slot heights. The range is (load span + d) — both tiny.
    std::uint64_t min_h = slots_[0].height;
    std::uint64_t max_h = slots_[0].height;
    for (const slot& sl : slots_) {
        min_h = std::min(min_h, sl.height);
        max_h = std::max(max_h, sl.height);
    }
    const std::size_t width = static_cast<std::size_t>(max_h - min_h) + 1;
    if (width > height_hist_.size()) {
        height_hist_.resize(width);
    }
    std::fill(height_hist_.begin(),
              height_hist_.begin() + static_cast<std::ptrdiff_t>(width), 0u);
    for (const slot& sl : slots_) {
        ++height_hist_[static_cast<std::size_t>(sl.height - min_h)];
    }

    // Threshold bucket: the k-th smallest slot's height. Everything below
    // is kept outright; `need` slots at the threshold win by tie key.
    std::uint64_t need = k_;
    std::size_t threshold = 0;
    while (need > height_hist_[threshold]) {
        need -= height_hist_[threshold];
        ++threshold;
    }

    if (need == height_hist_[threshold]) {
        // The whole threshold bucket is kept — no tie keys to compare.
        for (const slot& sl : slots_) {
            if (sl.height - min_h <= threshold) {
                ++kept_per_probe_[sl.probe];
            }
        }
        return;
    }
    threshold_slots_.clear();
    for (std::uint32_t i = 0; i < s; ++i) {
        const std::uint64_t bucket = slots_[i].height - min_h;
        if (bucket < threshold) {
            ++kept_per_probe_[slots_[i].probe];
        } else if (bucket == threshold) {
            threshold_slots_.push_back(i);
        }
    }
    // Partial selection of the `need` smallest tie keys at the threshold.
    for (std::uint64_t won = 0; won < need; ++won) {
        std::size_t min_at = won;
        for (std::size_t t = won + 1; t < threshold_slots_.size(); ++t) {
            if (slots_[threshold_slots_[t]].tie_key <
                slots_[threshold_slots_[min_at]].tie_key) {
                min_at = t;
            }
        }
        std::swap(threshold_slots_[won], threshold_slots_[min_at]);
        ++kept_per_probe_[slots_[threshold_slots_[won]].probe];
    }
}

void kd_choice_level_process::run_round() {
    // A bin sampled m times can gain up to m <= d balls this round.
    profile_.ensure_levels(profile_.max_level() + d_ + 1);

    // Probe step: one uniform-below-n draw decides collision vs fresh bin
    // (see the header comment for the exactness argument). Fresh bins are
    // extracted so later draws sample the remaining profile without
    // replacement.
    distinct_.clear();
    for (std::uint64_t probe = 0; probe < d_; ++probe) {
        const std::uint64_t v = probe_draws_.next(gen_);
        const auto j = static_cast<std::uint64_t>(distinct_.size());
        if (v < j) {
            ++distinct_[static_cast<std::size_t>(v)].multiplicity;
        } else {
            const std::uint64_t level = profile_.level_at_rank(v - j);
            profile_.extract_bin(level);
            distinct_.push_back({level, 1});
        }
    }

    // Multiplicity rule as slot selection, the same rule as place_round:
    // the m occurrences of a bin at level l own slots of heights l+1..l+m;
    // keep the k smallest (height, tie_key). Random tie keys are drawn ONLY in
    // rounds with a duplicated probe: without duplicates every slot at a
    // height sits on a bin at the same level, and bins at a level are
    // exchangeable, so any deterministic tie-break (here: probe order)
    // yields the same profile — skipping d serially dependent generator
    // calls on almost every round at large n.
    const bool has_duplicate = distinct_.size() < d_;
    slots_.clear();
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        const auto& probe = distinct_[t];
        for (std::uint32_t occurrence = 1; occurrence <= probe.multiplicity;
             ++occurrence) {
            slots_.push_back(
                slot{probe.level + occurrence,
                     has_duplicate ? static_cast<std::uint64_t>(gen_()) : t,
                     t});
        }
    }
    // A kept slot implies all lower slots of the same bin are kept, so the
    // per-bin kept count IS the bin's ball gain; reinsert each distinct bin
    // at its post-round level.
    count_kept();
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        profile_.insert_bin(distinct_[t].level + kept_per_probe_[t]);
    }

    balls_placed_ += k_;
    rounds_run_ += 1;
    messages_ += d_;
}

void kd_choice_level_process::run_rounds_fast(std::uint64_t rounds) {
    dense_mirror mirror(profile_);
    if (fast_levels_.size() < d_) {
        fast_levels_.resize(d_);
    }

    for (std::uint64_t round = 0; round < rounds; ++round) {
        // A bin sampled m times can gain up to m <= d balls this round.
        mirror.ensure_headroom(d_);
        while (mirror.counts[mirror.base] == 0) {
            ++mirror.base; // reinsertions never land below a probed level
        }

        // Probe step — identical draw order and outcomes to run_round;
        // extraction is a plain decrement, so the subtract-scan always
        // sees the without-replacement remainder. A per-level histogram of
        // the probed bins is built as a side effect: it drives both the
        // selection threshold and the wholesale reinsert below.
        const std::size_t width =
            static_cast<std::size_t>(mirror.top - mirror.base) + 1;
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
                running += mirror.counts[mirror.base + i];
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
                    const std::uint64_t level = mirror.base + e;
                    --mirror.counts[level];
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
                    const std::uint64_t level = mirror.level_of_rank(v - j);
                    --mirror.counts[level];
                    fast_levels_[j++] = level;
                    ++height_hist_[static_cast<std::size_t>(level -
                                                            mirror.base)];
                } else {
                    dup_at = v;
                    break;
                }
            }
        }

        if (probe < d_) [[unlikely]] {
            run_duplicate_round_tail(mirror, j, probe, dup_at);
            continue;
        }

        // All multiplicities are 1: slot t is exactly probe t at height
        // level+1, so the k kept slots are the probes with the k smallest
        // (level, tie_key) pairs. No tie keys are drawn (matching
        // run_round's duplicate-free branch) and none are compared: every
        // slot at the threshold height sits on a bin at the same level,
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
            mirror.counts[mirror.base + b + 1] += height_hist_[b];
        }
        mirror.counts[mirror.base + bucket] += height_hist_[bucket] - need;
        mirror.counts[mirror.base + bucket + 1] += need;
        for (std::size_t b = bucket + 1; b < width; ++b) {
            mirror.counts[mirror.base + b] += height_hist_[b];
        }
        mirror.top = std::max(mirror.top, mirror.base + bucket + 1);
    }

    profile_ = level_profile::from_counts(mirror.counts);
    balls_placed_ += rounds * k_;
    rounds_run_ += rounds;
    messages_ += rounds * d_;
}

void kd_choice_level_process::run_duplicate_round_tail(dense_mirror& mirror,
                                                       std::uint64_t j,
                                                       std::uint64_t probe,
                                                       std::uint64_t dup_at) {
    // Rare at large n (probability ~ d^2/2n per round): rebuild the
    // distinct-probe list from the fast prefix and finish the round with
    // the generic multiplicity-rule selection. RNG order is unchanged.
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
            const std::uint64_t level = mirror.level_of_rank(v - seen);
            --mirror.counts[level];
            distinct_.push_back({level, 1});
        }
    }

    slots_.clear();
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        const auto& dp = distinct_[t];
        for (std::uint32_t occurrence = 1; occurrence <= dp.multiplicity;
             ++occurrence) {
            slots_.push_back(slot{dp.level + occurrence,
                                  static_cast<std::uint64_t>(gen_()), t});
        }
    }
    count_kept();
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        const std::uint64_t level = distinct_[t].level + kept_per_probe_[t];
        ++mirror.counts[level];
        mirror.top = std::max(mirror.top, level);
    }
}

void kd_choice_level_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    if (balls == 0) {
        return;
    }
    run_rounds_fast(balls / k_);
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
    dense_mirror mirror(profile_);
    for (std::uint64_t ball = 0; ball < balls; ++ball) {
        mirror.ensure_headroom(1);
        while (mirror.counts[mirror.base] == 0) {
            ++mirror.base; // single choice never inserts below its probe
        }
        const std::uint64_t level =
            mirror.level_of_rank(probe_draws_.next(gen_));
        --mirror.counts[level];
        ++mirror.counts[level + 1];
        mirror.top = std::max(mirror.top, level + 1);
    }
    profile_ = level_profile::from_counts(mirror.counts);
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
    dense_mirror mirror(profile_);
    for (std::uint64_t ball = 0; ball < balls; ++ball) {
        mirror.ensure_headroom(1);
        while (mirror.counts[mirror.base] == 0) {
            ++mirror.base;
        }
        // Least loaded of d probes: only the minimum level matters, and any
        // duplicate probes cannot change it, so d independent level draws
        // are exact (no extraction between them). The early exit at level 0
        // keeps the draw count identical to the reference per-bin process.
        std::uint64_t best = mirror.level_of_rank(probe_draws_.next(gen_));
        for (std::uint64_t probe = 1; probe < d_ && best > 0; ++probe) {
            best = std::min(best,
                            mirror.level_of_rank(probe_draws_.next(gen_)));
        }
        --mirror.counts[best];
        ++mirror.counts[best + 1];
        mirror.top = std::max(mirror.top, best + 1);
    }
    profile_ = level_profile::from_counts(mirror.counts);
    balls_placed_ += balls;
}

} // namespace kdc::core

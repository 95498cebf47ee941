#include "core/weighted.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "core/level_profile.hpp" // checked_snapshot_body (shared trailer)
#include "rng/sampling.hpp"
#include "rng/uniform.hpp"
#include "support/cli.hpp"
#include "support/crc32.hpp"
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
    std::vector<std::uint32_t> sorted(samples.begin(), samples.end());
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

    std::vector<double> weights_desc(ball_weights.begin(), ball_weights.end());
    std::sort(weights_desc.begin(), weights_desc.end(), std::greater<>{});

    // Greedy: for each ball (heaviest first) pick the currently lightest
    // remaining slot. Slots of the same bin become heavier as earlier balls
    // land, so re-scan; k and d are small (k < d <= a few hundred in all
    // experiments), so the quadratic scan is cheap and allocation-free.
    std::vector<bool> used(slots_.size(), false);
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

// ---------------------------------------------------------------------------
// weight_profile
// ---------------------------------------------------------------------------

weight_profile::weight_profile(std::uint64_t n)
    : values_(1, 0.0), counts_(1), n_(n) {
    KD_EXPECTS_MSG(n >= 1, "a profile needs at least one bin");
    index_.emplace(0.0, 0);
    counts_.add(0, static_cast<std::int64_t>(n));
}

std::uint64_t weight_profile::bins_at(double value) const {
    const auto it = index_.find(value);
    return it != index_.end() ? counts_.value_at(it->second) : 0;
}

void weight_profile::extract_value(double value) {
    const auto it = index_.find(value);
    KD_EXPECTS_MSG(it != index_.end() && counts_.value_at(it->second) >= 1,
                   "extract_value needs a bin at that weight load");
    const std::size_t slot = it->second;
    counts_.add(slot, -1);
    total_weight_ -= value;
    if (counts_.value_at(slot) == 0) {
        index_.erase(it);
        free_slots_.push_back(slot);
    }
}

void weight_profile::insert_value(double value) {
    KD_EXPECTS_MSG(value >= 0.0, "weight loads are non-negative");
    const auto it = index_.find(value);
    if (it != index_.end()) {
        counts_.add(it->second, 1);
        total_weight_ += value;
        return;
    }
    std::size_t slot = 0;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        values_[slot] = value;
    } else {
        slot = values_.size();
        values_.push_back(value);
        if (slot >= counts_.size()) {
            counts_.grow_to(slot + 1); // doubles internally, amortized
        }
    }
    index_.emplace(value, slot);
    counts_.add(slot, 1);
    total_weight_ += value;
}

double weight_profile::max_load() const {
    KD_EXPECTS_MSG(remaining_bins() == n_,
                   "profile has extracted bins mid-round");
    KD_ASSERT(!index_.empty());
    return index_.rbegin()->first;
}

double weight_profile::gap() const {
    return max_load() - total_weight_ / static_cast<double>(n_);
}

std::vector<double> weight_profile::to_sorted_weights() const {
    KD_EXPECTS_MSG(remaining_bins() == n_,
                   "profile has extracted bins mid-round");
    std::vector<double> out;
    out.reserve(n_);
    for (auto it = index_.rbegin(); it != index_.rend(); ++it) {
        out.insert(out.end(), counts_.value_at(it->second), it->first);
    }
    return out;
}

namespace {

constexpr const char* weight_snapshot_magic = "kdc-weight-profile";
constexpr int weight_snapshot_version = 1;

} // namespace

void weight_profile::save(std::ostream& out) const {
    KD_EXPECTS_MSG(remaining_bins() == n_,
                   "cannot snapshot a profile with extracted bins mid-round");
    std::ostringstream body;
    body.precision(std::numeric_limits<double>::max_digits10);
    body << weight_snapshot_magic << ' ' << weight_snapshot_version << '\n';
    body << n_ << ' ' << index_.size() << '\n';
    // Ascending value order: the snapshot is a pure function of the
    // multiset, independent of slot-creation history.
    for (const auto& [value, slot] : index_) {
        body << value << ' ' << counts_.value_at(slot) << '\n';
    }
    const std::string text = body.str();
    out << text << "crc32 " << std::hex << std::setw(8) << std::setfill('0')
        << crc32(text) << std::dec << '\n';
    if (!out) {
        throw cli_error("weight_profile snapshot write failed");
    }
}

weight_profile weight_profile::load(std::istream& in) {
    const std::string body = checked_snapshot_body(in, "weight_profile");
    std::istringstream fields(body);
    std::string magic;
    int version = 0;
    if (!(fields >> magic >> version)) {
        throw cli_error(
            "weight_profile snapshot: missing header (expected '" +
            std::string(weight_snapshot_magic) + " <version>')");
    }
    if (magic != weight_snapshot_magic) {
        throw cli_error("weight_profile snapshot: bad magic '" + magic +
                        "' (expected '" + std::string(weight_snapshot_magic) +
                        "')");
    }
    if (version != weight_snapshot_version) {
        throw cli_error("weight_profile snapshot: unsupported version " +
                        std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(weight_snapshot_version) + ")");
    }
    std::uint64_t n = 0;
    std::uint64_t distinct = 0;
    if (!(fields >> n >> distinct) || n == 0 || distinct == 0) {
        throw cli_error("weight_profile snapshot: malformed bin or distinct "
                        "value count");
    }
    if (distinct > body.size()) {
        throw cli_error("weight_profile snapshot: declared distinct count " +
                        std::to_string(distinct) +
                        " exceeds what the file could hold");
    }
    weight_profile profile(n);
    profile.values_.clear();
    profile.index_.clear();
    profile.free_slots_.clear();
    profile.counts_ = fenwick_tree(distinct);
    profile.total_weight_ = 0.0;
    std::uint64_t bins = 0;
    double previous = -1.0;
    for (std::uint64_t row = 0; row < distinct; ++row) {
        double value = 0.0;
        std::uint64_t count = 0;
        if (!(fields >> value >> count)) {
            throw cli_error("weight_profile snapshot: expected " +
                            std::to_string(distinct) +
                            " '<value> <count>' rows, got " +
                            std::to_string(row));
        }
        if (!std::isfinite(value) || value < 0.0 || value <= previous) {
            throw cli_error("weight_profile snapshot: values must be "
                            "non-negative, finite and strictly ascending; "
                            "row " +
                            std::to_string(row) + " violates that");
        }
        if (count == 0) {
            throw cli_error("weight_profile snapshot: row " +
                            std::to_string(row) +
                            " declares zero bins at its value");
        }
        if (count > n - bins) {
            throw cli_error("weight_profile snapshot: counts through row " +
                            std::to_string(row) + " sum past the header's " +
                            std::to_string(n) + " bins");
        }
        previous = value;
        const std::size_t slot = profile.values_.size();
        profile.values_.push_back(value);
        profile.index_.emplace(value, slot);
        profile.counts_.add(slot, static_cast<std::int64_t>(count));
        profile.total_weight_ += value * static_cast<double>(count);
        if (!std::isfinite(profile.total_weight_)) {
            throw cli_error("weight_profile snapshot: the weight total "
                            "overflows a double at row " +
                            std::to_string(row));
        }
        bins += count;
    }
    fields >> std::ws;
    if (!fields.eof()) {
        throw cli_error("weight_profile snapshot: trailing data after the "
                        "declared " +
                        std::to_string(distinct) + " rows");
    }
    if (bins != n) {
        throw cli_error("weight_profile snapshot: counts sum to " +
                        std::to_string(bins) +
                        " bins but the header promises " + std::to_string(n));
    }
    return profile;
}

// ---------------------------------------------------------------------------
// weighted_kd_level_process
// ---------------------------------------------------------------------------

weighted_kd_level_process::weighted_kd_level_process(
    std::uint64_t n, std::uint64_t k, std::uint64_t d, std::uint64_t seed,
    weight_distribution weights)
    : profile_(n), k_(k), d_(d), weights_(std::move(weights)), gen_(seed),
      probe_draws_(n) {
    KD_EXPECTS_MSG(k >= 1 && k < d && d <= n, "requires 1 <= k < d <= n");
    KD_EXPECTS_MSG(static_cast<bool>(weights_),
                   "weight distribution must be callable");
    weight_buffer_.resize(k);
    distinct_.reserve(d);
    slots_.reserve(d);
}

void weighted_kd_level_process::run_round() {
    // Probe step: exact with-replacement collision simulation (header
    // comment); fresh bins are extracted so later draws sample the
    // remaining profile without replacement.
    distinct_.clear();
    for (std::uint64_t probe = 0; probe < d_; ++probe) {
        const std::uint64_t v = probe_draws_.next(gen_);
        const auto j = static_cast<std::uint64_t>(distinct_.size());
        if (v < j) {
            ++distinct_[static_cast<std::size_t>(v)].multiplicity;
        } else {
            const double value = profile_.value_at_rank(v - j);
            profile_.extract_value(value);
            distinct_.push_back({value, value, 1});
        }
    }

    for (auto& w : weight_buffer_) {
        w = weights_(gen_);
        KD_ENSURES_MSG(w > 0.0 && std::isfinite(w),
                       "ball weights must be positive and finite");
    }

    // One slot per probe occurrence (multiplicity rule: a bin sampled m
    // times owns m candidate slots and can gain at most m balls).
    slots_.clear();
    for (std::uint32_t t = 0; t < distinct_.size(); ++t) {
        for (std::uint32_t o = 0; o < distinct_[t].multiplicity; ++o) {
            slots_.push_back(slot{static_cast<std::uint64_t>(gen_()), t});
        }
    }

    // Heaviest ball to lightest slot, re-scanning current loads exactly as
    // the per-bin greedy does (slots of one bin get heavier as earlier
    // balls land on it); ties on load break by slot key.
    std::sort(weight_buffer_.begin(), weight_buffer_.end(),
              std::greater<>{});
    slot_used_.assign(slots_.size(), 0);
    for (const double w : weight_buffer_) {
        std::size_t best = slots_.size();
        double best_load = 0.0;
        for (std::size_t s = 0; s < slots_.size(); ++s) {
            if (slot_used_[s]) {
                continue;
            }
            const double current = distinct_[slots_[s].probe].current;
            if (best == slots_.size() || current < best_load ||
                (current == best_load &&
                 slots_[s].tie_key < slots_[best].tie_key)) {
                best = s;
                best_load = current;
            }
        }
        KD_ASSERT(best < slots_.size());
        slot_used_[best] = 1;
        distinct_[slots_[best].probe].current += w;
    }

    for (const auto& probe : distinct_) {
        profile_.insert_value(probe.current);
    }

    balls_placed_ += k_;
    messages_ += d_;
}

void weighted_kd_level_process::run_rounds(std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) {
        run_round();
    }
}

void weighted_kd_level_process::run_balls(std::uint64_t balls) {
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

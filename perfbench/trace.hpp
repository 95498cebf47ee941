// Harness core of the layered benchmark: in-memory spans, the arithmetic
// the per-layer metrics are built from (self time, tail percentile,
// median), the output digest, and the refusal to time an armed fault plan.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; nothing inside the library is instrumented.
// They stay in memory until the process reports and exits.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_injection.hpp"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(bench_clock::time_point from,
                                            bench_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(bench_clock::time_point from) {
    return seconds_between(from, bench_clock::now());
}

/// One closed span: a named interval on one thread, its causing span
/// (`parent`, -1 for a root) and the repetition or request it served.
struct span {
    const char* name = "";
    std::int64_t id = -1;
    std::int64_t parent = -1;
    std::uint64_t tag = 0;
    unsigned thread = 0;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;

    [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// A small dense index per thread, assigned on the thread's first span.
[[nodiscard]] inline unsigned thread_index() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

/// The in-memory span store. Thread-safe: pool workers record repetition
/// spans concurrently with the driving thread.
class tracer {
public:
    /// Opens a span and returns its id. `parent` < 0 means "the innermost
    /// span this thread has open" (or none).
    std::int64_t open(const char* name, std::uint64_t tag = 0,
                      std::int64_t parent = -1) {
        const double now = seconds_between(origin_, bench_clock::now());
        if (parent < 0 && !open_stack().empty()) {
            parent = open_stack().back();
        }
        std::int64_t id = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            id = static_cast<std::int64_t>(spans_.size());
            spans_.push_back(span{name, id, parent, tag, thread_index(), now,
                                  now});
        }
        open_stack().push_back(id);
        return id;
    }

    void close(std::int64_t id) {
        const double now = seconds_between(origin_, bench_clock::now());
        open_stack().pop_back();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }

    [[nodiscard]] std::vector<span> spans() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

private:
    static std::vector<std::int64_t>& open_stack() {
        thread_local std::vector<std::int64_t> stack;
        return stack;
    }

    bench_clock::time_point origin_ = bench_clock::now();
    mutable std::mutex mutex_;
    std::vector<span> spans_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves the
/// traced and the untraced run.
class scoped_span {
public:
    scoped_span(tracer* t, const char* name, std::uint64_t tag = 0,
                std::int64_t parent = -1)
        : tracer_(t), id_(t != nullptr ? t->open(name, tag, parent) : -1) {}
    ~scoped_span() {
        if (tracer_ != nullptr) {
            tracer_->close(id_);
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    [[nodiscard]] std::int64_t id() const noexcept { return id_; }

private:
    tracer* tracer_;
    std::int64_t id_;
};

/// A span's self time: its duration minus the part of its interval that
/// the union of its child spans covers (children may overlap each other,
/// e.g. repetitions on several workers, and are clipped to the parent).
[[nodiscard]] inline double self_time(const span& parent,
                                      std::span<const span> all) {
    std::vector<std::pair<double, double>> covered;
    for (const span& s : all) {
        if (s.parent != parent.id) {
            continue;
        }
        const double lo = std::max(s.start, parent.start);
        const double hi = std::min(s.end, parent.end);
        if (hi > lo) {
            covered.emplace_back(lo, hi);
        }
    }
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
        if (lo > run_hi) {
            union_length += std::max(0.0, run_hi - run_lo);
            run_lo = lo;
            run_hi = hi;
        } else {
            run_hi = std::max(run_hi, hi);
        }
    }
    union_length += std::max(0.0, run_hi - run_lo);
    return parent.duration() - union_length;
}

/// Durations of every span called `name`.
[[nodiscard]] inline std::vector<double>
durations_of(std::span<const span> all, std::string_view name) {
    std::vector<double> out;
    for (const span& s : all) {
        if (name == s.name) {
            out.push_back(s.duration());
        }
    }
    return out;
}

[[nodiscard]] inline double sum_of(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) {
        total += v;
    }
    return total;
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
[[nodiscard]] inline double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/// The reported tail of a timing sample: the highest percentile (from a
/// fixed ladder) with at least ten samples strictly beyond it, its
/// nearest-rank value, and that count. Below 11 samples no rung qualifies;
/// the median is reported and `beyond` says how thin it is.
struct tail_stat {
    double percentile = 0.0;
    double value = 0.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
};

[[nodiscard]] inline tail_stat tail_percentile(std::vector<double> values) {
    tail_stat out;
    out.samples = values.size();
    if (values.empty()) {
        return out;
    }
    std::sort(values.begin(), values.end());
    const auto at = [&](double pct) {
        // Nearest rank; the epsilon keeps 99.9 * 1000 / 100 from rounding
        // up past an exact integer.
        const double rank = std::ceil(
            pct * static_cast<double>(values.size()) / 100.0 - 1e-9);
        const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
        return std::pair{index, values.size() - (index + 1)};
    };
    for (const double pct : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const auto [index, beyond] = at(pct);
        if (beyond >= 10 || pct == 50.0) {
            out.percentile = pct;
            out.value = values[index];
            out.beyond = beyond;
            return out;
        }
    }
    return out;
}

/// 64-bit FNV-1a over raw bytes: the digest every correctness check
/// compares (perfbench/record.py computes the same function in Python).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

template <typename T>
[[nodiscard]] std::uint64_t fnv1a_of(std::span<const T> values) {
    return fnv1a(std::string_view(reinterpret_cast<const char*>(values.data()),
                                  values.size_bytes()));
}

[[nodiscard]] inline std::string hex_digest(std::uint64_t hash) {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

/// A digest check: true only when `bytes` hash to `expected`.
[[nodiscard]] inline bool digest_matches(std::string_view bytes,
                                         const std::string& expected) {
    return hex_digest(fnv1a(bytes)) == expected;
}

/// Why timing must not start, or nothing. An armed fault plan (KDC_FAULTS
/// or --inject-faults) changes what runs, so no number taken under one is
/// comparable.
[[nodiscard]] inline std::optional<std::string> timing_refusal() {
    if (kdc::core::faults_armed()) {
        return std::string("a fault plan is armed (KDC_FAULTS or "
                           "--inject-faults); refusing to time anything");
    }
    return std::nullopt;
}

} // namespace perfbench

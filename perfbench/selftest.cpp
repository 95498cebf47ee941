// Self-tests of the benchmark harness (perfbench/trace.hpp): the tail
// percentile rule, self time on nested spans, the digest check and the
// refusal to time an armed fault plan. perfbench/run.py runs this binary
// before every measurement and refuses to report when it fails.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::cerr << "selftest FAILED: " << what << '\n';
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> ramp(std::size_t n) {
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i) {
        values.push_back(static_cast<double>(i));
    }
    return values;
}

void tail_rule() {
    // 1000 samples: p99.9 leaves 1 beyond it, p99 exactly 10.
    auto t = perfbench::tail_percentile(ramp(1000));
    expect(t.percentile == 99.0 && t.beyond == 10 && t.value == 990.0,
           "1000 samples report p99 with 10 beyond");
    // 999 samples: p99 leaves only 9 beyond, so the rule drops to p95.
    t = perfbench::tail_percentile(ramp(999));
    expect(t.percentile == 95.0 && t.beyond == 49,
           "999 samples fall back to p95 with 49 beyond");
    // 10 samples: no rung has ten beyond it; the median is reported thin.
    t = perfbench::tail_percentile(ramp(10));
    expect(t.percentile == 50.0 && t.beyond == 5 && t.samples == 10,
           "10 samples report the median with its count");
    // Order of the input does not matter.
    auto shuffled = ramp(1000);
    std::swap(shuffled.front(), shuffled.back());
    expect(perfbench::tail_percentile(shuffled).value == 990.0,
           "tail is computed on sorted samples");
}

perfbench::span make_span(std::int64_t id, std::int64_t parent, double start,
                          double end) {
    perfbench::span s;
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

void self_time_arithmetic() {
    // Parent [0, 100]; children [10, 30] and [20, 40] overlap (two
    // workers), [60, 70] is disjoint, [90, 120] sticks out and is clipped,
    // and the grandchild [12, 14] belongs to child 1, not to the parent.
    const std::vector<perfbench::span> spans{
        make_span(0, -1, 0, 100),  make_span(1, 0, 10, 30),
        make_span(2, 0, 20, 40),   make_span(3, 0, 60, 70),
        make_span(4, 0, 90, 120),  make_span(5, 1, 12, 14)};
    expect(near(perfbench::self_time(spans[0], spans), 100 - 30 - 10 - 10),
           "parent self time subtracts the union of its children");
    expect(near(perfbench::self_time(spans[1], spans), 20 - 2),
           "child self time subtracts its own child");
    expect(near(perfbench::self_time(spans[3], spans), 10),
           "a leaf span's self time is its duration");
    // Spans recorded by the tracer nest through the per-thread stack.
    perfbench::tracer trace;
    {
        const perfbench::scoped_span outer(&trace, "outer");
        const perfbench::scoped_span inner(&trace, "inner");
    }
    const auto recorded = trace.spans();
    expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
               recorded[0].parent == -1,
           "scoped spans record their parent");
    expect(perfbench::self_time(recorded[0], recorded) >= 0.0 &&
               perfbench::self_time(recorded[0], recorded) <=
                   recorded[0].duration(),
           "recorded self time lies within the span");
}

void digest_check() {
    std::string bytes = "0 a 17 4 9 12\n1 a 3 3 8 20\n2 r 17 4 9 12\n";
    const std::string expected =
        perfbench::hex_digest(perfbench::fnv1a(bytes));
    expect(perfbench::digest_matches(bytes, expected),
           "a digest matches its own bytes");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string changed = bytes;
        changed[i] = static_cast<char>(changed[i] ^ 1);
        expect(!perfbench::digest_matches(changed, expected),
               "a one-byte change at offset " + std::to_string(i) +
                   " fails the digest check");
    }
    expect(perfbench::hex_digest(perfbench::fnv1a("")) == "cbf29ce484222325",
           "FNV-1a offset basis");
    expect(perfbench::hex_digest(perfbench::fnv1a("a")) == "af63dc4c8601ec8c",
           "FNV-1a of 'a'");
}

void refusal_when_faults_armed() {
    expect(!perfbench::timing_refusal().has_value(),
           "no refusal without a fault plan");
    kdc::core::arm_faults(
        kdc::core::fault_plan::parse("serve.accept:io_error@1000000"));
    expect(perfbench::timing_refusal().has_value(),
           "an armed fault plan refuses timing");
    kdc::core::disarm_faults();
    expect(!perfbench::timing_refusal().has_value(),
           "disarming lifts the refusal");
}

} // namespace

int main() {
    tail_rule();
    self_time_arithmetic();
    digest_check();
    refusal_when_faults_armed();
    if (failures != 0) {
        std::cerr << "selftest: " << failures << " check(s) failed\n";
        return 1;
    }
    std::cerr << "selftest: all harness checks passed\n";
    return 0;
}

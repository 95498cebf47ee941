// kdc_perfbench: the three workloads of the layered benchmark, run in one
// process each (perfbench/run.py builds and drives this binary; see
// perfbench/README.md for the metric dictionary).
//
//   kdc_perfbench --workload=table1_grid|round_big|serve_churn
//                 --seed=N --seconds=S [--trace] [--record]
//
// The Theorem 2 heavy regime (warmup=ff on the level kernel) is timed only
// inside round_big's traced run; --record --workload=heavy_ff prints its
// reference digest.
//
// Untraced (the default), each workload repeats its unit of work until
// --seconds is spent and reports medians of the end-to-end metrics. With
// --trace it alternates an untraced unit with a traced one, whose spans
// wrap the benchmark's own calls into each layer's public functions, and
// reports the per-layer metrics. Where a library function hides the layer
// calls (run_service, fast_forwarded_process) the traced unit makes the same
// public calls itself and must reproduce the untraced unit's digest.
// --record prints the digest of the workload's reference path instead
// (perfbench/record.py collects them into expected.json).
//
// The last stdout line is one JSON object: workload, input seed, digests,
// internal checks, attempted operations and metrics {name: {value, unit}}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/kdchoice.hpp"
#include "core/sharded_kernel.hpp"
#include "core/steady_state.hpp"
#include "core/thread_pool.hpp"
#include "rng/sampling.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/channel.hpp"
#include "serve/dispatcher.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "sim/event_queue.hpp"
#include "support/cli.hpp"
#include "trace.hpp"

namespace {

using namespace kdc;
using perfbench::bench_clock;
using perfbench::scoped_span;
using perfbench::seconds_since;
using perfbench::tracer;

/// --workers: 0 keeps each workload's own worker count; anything else
/// overrides it, to measure scaling (perfbench/README.md).
unsigned workers_override = 0;

[[nodiscard]] unsigned workers_for(unsigned defined) {
    return workers_override != 0 ? workers_override : defined;
}

// Worker counts as defined. serve_churn runs on one: at four, the
// dispatcher's three phase barriers per batch made single runs swing 2-3x
// on a shared 4-vCPU host (perfbench/README.md has the numbers).
constexpr unsigned table1_workers = 4;
constexpr unsigned round_big_workers = 4;
constexpr unsigned serve_workers = 1;

// Workload sizes (perfbench/README.md gives the reasons).
constexpr std::uint64_t table1_bins = 32768; // 2^15 balls and bins per rep
constexpr std::uint32_t table1_reps = 10;
const char* const round_big_scenario =
    "kd:n=33554432,k=8,d=16,kernel=perbin,par=round,shards=auto";
// 9 n balls fast-forwarded, then the shortest settle fast_forward_split
// allows (n/8 balls), so one rep fits beside round_big's traced units.
const char* const heavy_ff_scenario =
    "kd:n=1e8,k=8,d=16,balls=9.125e8,kernel=level,warmup=ff";

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct report {
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    std::vector<std::pair<std::string, std::string>> digests;
    std::vector<std::pair<std::string, bool>> checks;
    std::uint64_t attempted = 0;

    void set(const std::string& name, double value, const std::string& unit) {
        for (auto& [n, v, u] : metrics) {
            if (n == name) {
                v = value;
                u = unit;
                return;
            }
        }
        metrics.emplace_back(name, value, unit);
    }
    /// Records a unit's digest; a later unit that disagrees under the same
    /// label fails the run (the label is reported once).
    void digest(const std::string& label, std::uint64_t hash) {
        const std::string hex = perfbench::hex_digest(hash);
        for (const auto& [l, h] : digests) {
            if (l == label) {
                if (h != hex) {
                    checks.emplace_back(label + "_same_every_unit", false);
                }
                return;
            }
        }
        digests.emplace_back(label, hex);
    }
};

std::string json_number(double v) {
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", v);
    return text;
}

void print_report(const std::string& workload, std::uint64_t input_seed,
                  const report& r) {
    std::ostringstream out;
    out << "{\"workload\": \"" << workload << "\", \"input_seed\": "
        << input_seed << ", \"attempted\": " << r.attempted
        << ", \"digests\": {";
    for (std::size_t i = 0; i < r.digests.size(); ++i) {
        out << (i ? ", " : "") << '"' << r.digests[i].first << "\": \""
            << r.digests[i].second << '"';
    }
    out << "}, \"checks\": {";
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
        out << (i ? ", " : "") << '"' << r.checks[i].first
            << "\": " << (r.checks[i].second ? "true" : "false");
    }
    out << "}, \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto& [name, value, unit] = r.metrics[i];
        out << (i ? ", " : "") << '"' << name << "\": {\"value\": "
            << json_number(value) << ", \"unit\": \"" << unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Every per-layer metric, zero until a workload exercises its layer: a
/// traced run reports the full set, and a layer a workload never reaches
/// reads 0 there.
void declare_layer_metrics(report& r) {
    for (const char* name :
         {"engine.reps", "engine.rep_s_tail_beyond",
          "scenario.make_process_count", "serve.dispatcher.batches",
          "serve.dispatcher.batch_size_p50", "serve.channel.depth_max",
          "serve.dispatcher.process_tail_beyond", "trace.spans"}) {
        r.set(name, 0, "count");
    }
    for (const char* name :
         {"engine.rep_s_p50", "engine.rep_s_tail", "engine.tail_s",
          "scenario.make_process_s", "process.run_balls_s",
          "process.observe_s", "steady_state.profile_s",
          "level_process.settle_s", "serve.session_s",
          "serve.dispatcher.accept_s", "serve.dispatcher.process_s",
          "serve.event_s", "serve.oracle_s", "trace.run_s",
          "trace.overhead_s"}) {
        r.set(name, 0, "s");
    }
    for (const char* suffix : {"_4w", "_1w"}) {
        for (const char* phase :
             {"pregen", "bucket", "gather", "select", "handoff", "commit",
              "other", "construct"}) {
            r.set(std::string("sharded_kernel.") + phase + "_s" + suffix, 0,
                  "s");
        }
        r.set(std::string("sharded_kernel.balls_per_s") + suffix, 0,
              "balls/s");
    }
    r.set("sharded_kernel.bytes_computed", 0, "bytes");
    r.set("engine.rep_s_tail_pct", 0, "pct");
    r.set("engine.busy_frac", 0, "frac");
    r.set("rng.draws_per_s", 0, "1/s");
    r.set("level_process.balls_per_s", 0, "balls/s");
    r.set("serve.dispatcher.process_ms_p50", 0, "ms");
    r.set("serve.dispatcher.process_ms_tail", 0, "ms");
    r.set("serve.dispatcher.process_tail_pct", 0, "pct");
    r.set("trace.uncovered_frac", 0, "frac");
}

/// The driving thread's uncovered share of a traced unit: the root span's
/// self time over its duration (spans are the layer calls it made).
double uncovered_fraction(const std::vector<perfbench::span>& spans,
                          const char* root) {
    double self = 0.0;
    double total = 0.0;
    for (const auto& s : spans) {
        if (std::string_view(s.name) == root) {
            self += perfbench::self_time(s, spans);
            total += s.duration();
        }
    }
    return total > 0.0 ? self / total : 0.0;
}

/// Repeats `unit` until `seconds` are spent (at least once), stopping
/// before a repetition that would overrun at the longest pace seen so far.
void repeat_for(double seconds, const std::function<void()>& unit) {
    const auto start = bench_clock::now();
    double longest = 0.0;
    int count = 0;
    do {
        const auto t0 = bench_clock::now();
        unit();
        const double took = seconds_since(t0);
        longest = std::max(longest, took);
        std::cerr << "unit " << ++count << ": " << took << " s\n";
    } while (seconds_since(start) + longest <= seconds);
}

/// Draws `count` uniforms below `bound` through the batched sampler the
/// kernels use, alone, and returns draws per second.
double rng_draws_per_s(std::uint64_t bound, std::uint64_t seed) {
    constexpr std::uint64_t count = std::uint64_t{1} << 26;
    rng::xoshiro256ss gen(seed);
    rng::batched_uniform draws(bound);
    std::uint64_t sink = 0;
    const auto t0 = bench_clock::now();
    for (std::uint64_t i = 0; i < count; ++i) {
        sink += draws.next(gen);
    }
    const double elapsed = seconds_since(t0);
    asm volatile("" : : "r"(sink)); // keep the draws from being elided
    return static_cast<double>(count) / elapsed;
}

// ---------------------------------------------------------------------------
// table1_grid: the paper's Table 1 through make_scenario_cell + run_sweep
// ---------------------------------------------------------------------------

const std::vector<std::uint64_t> table1_k{1,  2,  3,  4,  6,  8,   12, 16,
                                          24, 32, 48, 64, 96, 128, 192};
const std::vector<std::uint64_t> table1_d{1, 2, 3, 5, 9, 17, 25, 49, 65, 193};

struct table1_setup {
    std::vector<core::sweep_cell> cells;
    std::vector<core::scenario> scenarios; ///< one per cell
    std::unique_ptr<core::thread_pool> pool;
};

/// The grid exactly as bench/table1_maxload builds it (same cell order,
/// names and per-cell seeds), plus a fresh pool.
table1_setup build_table1(std::uint64_t seed) {
    table1_setup setup;
    const core::scenario base = core::parse_scenario(
        "kd:n=" + std::to_string(table1_bins) + ",kernel=perbin,par=rep");
    std::uint64_t cell_seed = seed;
    for (const auto k : table1_k) {
        for (const auto d : table1_d) {
            ++cell_seed;
            if (k >= d && !(d == 1 && k == 1)) {
                continue;
            }
            auto sc = base;
            sc.k = k;
            sc.d = d;
            setup.cells.push_back(core::make_scenario_cell(
                "k=" + std::to_string(k) + ",d=" + std::to_string(d), sc,
                {.balls = core::resolved_balls(sc), .reps = table1_reps,
                 .seed = cell_seed}));
            setup.scenarios.push_back(sc);
        }
    }
    setup.pool =
        std::make_unique<core::thread_pool>(workers_for(table1_workers));
    return setup;
}

/// The CSV table1_maxload --csv prints, byte for byte.
std::string table1_csv(const std::vector<core::scenario>& cells,
                       const std::vector<core::sweep_outcome>& outcomes) {
    core::sweep_emitter emitter;
    emitter
        .add_column("k",
                    [&cells](const core::sweep_outcome&, std::size_t row) {
                        return std::to_string(cells[row].k);
                    })
        .add_column("d",
                    [&cells](const core::sweep_outcome&, std::size_t row) {
                        return std::to_string(cells[row].d);
                    })
        .add_reps_column()
        .add_max_load_set_column("max_load_set")
        .add_stat_column("max_load_mean",
                         [](const core::sweep_outcome& outcome) {
                             return outcome.result.max_load_stats.mean();
                         });
    std::ostringstream csv;
    emitter.write_csv(csv, outcomes);
    return csv.str();
}

std::uint64_t table1_balls(const table1_setup& setup) {
    std::uint64_t balls = 0;
    for (const auto& cell : setup.cells) {
        balls += cell.config.balls * cell.config.reps;
    }
    return balls;
}

void run_table1(std::uint64_t seed, double seconds, bool traced, report& r) {
    std::vector<double> setup_s;
    std::vector<double> run_s;
    std::vector<double> traced_run_s;
    double balls = 0.0;
    double reps = 0.0;

    const auto untraced_unit = [&] {
        auto t0 = bench_clock::now();
        auto setup = build_table1(seed);
        setup_s.push_back(seconds_since(t0));
        t0 = bench_clock::now();
        const auto outcomes = core::run_sweep(*setup.pool, setup.cells);
        run_s.push_back(seconds_since(t0));
        r.digest("table",
                 perfbench::fnv1a(table1_csv(setup.scenarios, outcomes)));
        balls = static_cast<double>(table1_balls(setup));
        reps = static_cast<double>(setup.cells.size() * table1_reps);
        r.attempted += setup.cells.size() * table1_reps;
    };

    tracer trace;
    const auto traced_unit = [&] {
        auto setup = build_table1(seed);
        // Same repetitions, decomposed into the public calls
        // make_scenario_cell's runner makes, each inside a span.
        std::int64_t sweep_id = -1;
        for (std::size_t c = 0; c < setup.cells.size(); ++c) {
            setup.cells[c].run_rep = [&trace, &sweep_id,
                                      sc = setup.scenarios[c],
                                      balls = setup.cells[c].config.balls](
                                         std::uint64_t derived_seed) {
                const scoped_span rep(&trace, "engine.rep", derived_seed,
                                      sweep_id);
                std::optional<core::any_process> process;
                {
                    const scoped_span s(&trace, "scenario.make_process");
                    process.emplace(core::make_process(sc, derived_seed));
                }
                {
                    const scoped_span s(&trace, "process.run_balls");
                    process->run_balls(balls);
                }
                const scoped_span s(&trace, "process.observe");
                return core::to_repetition_result(process->observe());
            };
        }
        const auto t0 = bench_clock::now();
        std::vector<core::sweep_outcome> outcomes;
        {
            const scoped_span root(&trace, "table1.run");
            const scoped_span sweep(&trace, "engine.sweep");
            sweep_id = sweep.id();
            outcomes = core::run_sweep(*setup.pool, setup.cells);
        }
        traced_run_s.push_back(seconds_since(t0));
        r.digest("table_traced",
                 perfbench::fnv1a(table1_csv(setup.scenarios, outcomes)));
        r.attempted += setup.cells.size() * table1_reps;
    };

    if (!traced) {
        // Set-up takes microseconds: sample it several times per unit.
        repeat_for(seconds, [&] {
            for (int i = 0; i < 10; ++i) {
                const auto t0 = bench_clock::now();
                const auto setup = build_table1(seed);
                setup_s.push_back(seconds_since(t0));
            }
            untraced_unit();
        });
        const double run = perfbench::median(run_s);
        r.set("setup_s", perfbench::median(setup_s), "s");
        r.set("run_s", run, "s");
        r.set("balls_per_s", balls / run, "balls/s");
        r.set("requests_per_s", reps / run, "req/s");
        return;
    }

    declare_layer_metrics(r);
    repeat_for(seconds, [&] {
        untraced_unit();
        traced_unit();
    });
    const auto spans = trace.spans();
    const auto rep_s = perfbench::durations_of(spans, "engine.rep");
    const auto tail = perfbench::tail_percentile(rep_s);
    const double run = perfbench::median(traced_run_s);
    // Per-worker end of the last repetition, per sweep: the tail runs from
    // the first worker to go idle to the last repetition's end.
    std::vector<double> tails;
    double busy = 0.0;
    double sweep_total = 0.0;
    for (const auto& sweep : spans) {
        if (std::string_view(sweep.name) != "engine.sweep") {
            continue;
        }
        sweep_total += sweep.duration();
        std::map<unsigned, double> last_end;
        for (const auto& s : spans) {
            if (s.parent == sweep.id) {
                busy += s.duration();
                last_end[s.thread] = std::max(last_end[s.thread], s.end);
            }
        }
        double first_idle = sweep.end;
        double last = sweep.start;
        for (const auto& [thread, end] : last_end) {
            first_idle = std::min(first_idle, end);
            last = std::max(last, end);
        }
        tails.push_back(last - first_idle);
    }
    const double sweeps = static_cast<double>(traced_run_s.size());
    r.set("engine.reps", static_cast<double>(rep_s.size()), "count");
    r.set("engine.rep_s_p50", perfbench::median(rep_s), "s");
    r.set("engine.rep_s_tail", tail.value, "s");
    r.set("engine.rep_s_tail_pct", tail.percentile, "pct");
    r.set("engine.rep_s_tail_beyond", static_cast<double>(tail.beyond),
          "count");
    r.set("engine.busy_frac",
          busy / (workers_for(table1_workers) * sweep_total), "frac");
    r.set("engine.tail_s", perfbench::median(tails), "s");
    const auto make_s = perfbench::durations_of(spans, "scenario.make_process");
    r.set("scenario.make_process_s", perfbench::sum_of(make_s) / sweeps, "s");
    r.set("scenario.make_process_count",
          static_cast<double>(make_s.size()) / sweeps, "count");
    r.set("process.run_balls_s",
          perfbench::sum_of(
              perfbench::durations_of(spans, "process.run_balls")) /
              sweeps,
          "s");
    r.set("process.observe_s",
          perfbench::sum_of(perfbench::durations_of(spans, "process.observe")) /
              sweeps,
          "s");
    r.set("rng.draws_per_s", rng_draws_per_s(table1_bins, seed), "1/s");
    r.set("trace.run_s", run, "s");
    r.set("trace.overhead_s", run - perfbench::median(run_s), "s");
    r.set("trace.uncovered_frac", uncovered_fraction(spans, "table1.run"),
          "frac");
    r.set("trace.spans", static_cast<double>(spans.size()), "count");
}

// ---------------------------------------------------------------------------
// The Theorem 2 heavy regime through warmup=ff, traced in round_big's run
// ---------------------------------------------------------------------------

/// The observation digest of a heavy run: what the check compares.
std::uint64_t observation_digest(const core::process_observation& obs) {
    std::ostringstream text;
    text << "max_load=" << obs.max_load << " gap=" << obs.gap
         << " empty=" << obs.empty_bins << " messages=" << obs.messages
         << " balls=" << obs.balls_placed;
    return perfbench::fnv1a(text.str());
}

/// One heavy rep through make_process, then the same rep with
/// fast_forwarded_process::run_balls decomposed into its public calls, each
/// inside a span. Both digests are checked against the recorded heavy_ff
/// reference. Returns the settled (simulated) balls of one rep.
double heavy_unit(std::uint64_t seed, tracer& trace, report& r) {
    const core::scenario sc = core::parse_scenario(heavy_ff_scenario);
    const std::uint64_t balls = core::resolved_balls(sc);
    {
        auto process = core::make_process(sc, seed);
        process.run_balls(balls);
        r.digest("heavy_ff.observation", observation_digest(process.observe()));
    }
    core::process_observation obs;
    core::ff_split split;
    {
        const scoped_span root(&trace, "heavy_ff.run");
        core::ff_plan plan;
        {
            const scoped_span s(&trace, "steady_state.plan");
            plan = core::plan_fast_forward(sc);
            split = core::fast_forward_split(sc, balls);
        }
        std::optional<core::level_profile> initial;
        {
            const scoped_span s(&trace, "steady_state.profile");
            initial.emplace(
                core::steady_state_profile(sc, plan, split.ff_balls, seed));
        }
        std::optional<core::any_process> settled;
        {
            const scoped_span s(&trace, "level_process.construct");
            settled.emplace(core::make_settled_process(
                sc, plan, std::move(*initial), seed));
        }
        {
            const scoped_span s(&trace, "level_process.settle");
            settled->run_balls(split.settle_balls);
        }
        const scoped_span s(&trace, "process.observe");
        obs = settled->observe();
        obs.balls_placed += split.ff_balls;
    }
    r.digest("heavy_ff.observation_traced", observation_digest(obs));
    r.attempted += 2;
    return static_cast<double>(split.settle_balls);
}

// ---------------------------------------------------------------------------
// round_big: one light-load rep of the sharded per-bin kernel
// ---------------------------------------------------------------------------

struct round_result {
    double construct_s = 0.0;
    double run_s = 0.0;
    core::sharded_phase_times phases;
    std::uint64_t digest = 0;
};

/// Parse, pool start, construction and one run of m = n balls on `workers`
/// workers (1 = every phase inline on the calling thread).
round_result round_unit(std::uint64_t seed, unsigned workers, tracer* trace,
                        double& setup_s) {
    round_result out;
    auto t0 = bench_clock::now();
    const core::scenario sc = core::parse_scenario(round_big_scenario);
    core::validate_scenario(sc);
    std::unique_ptr<core::thread_pool> pool;
    if (workers > 1) {
        pool = std::make_unique<core::thread_pool>(workers);
    }
    const auto c0 = bench_clock::now();
    std::optional<core::sharded_kd_process> process;
    {
        const scoped_span s(trace, "sharded_kernel.construct");
        process.emplace(sc.n, sc.k, sc.d, seed, sc.shards, sc.selpar);
    }
    process->use_pool(pool.get());
    out.construct_s = seconds_since(c0);
    setup_s = seconds_since(t0);
    t0 = bench_clock::now();
    {
        const scoped_span root(trace, "round_big.run");
        const scoped_span s(trace, "sharded_kernel.run_balls");
        process->run_balls(core::resolved_balls(sc));
    }
    out.run_s = seconds_since(t0);
    out.phases = process->phase_times();
    out.digest =
        perfbench::fnv1a_of(std::span<const core::bin_load>(process->loads()));
    return out;
}

/// Bytes the six phases move for one chunked run, computed from the
/// kernel's data layout (not measured): per slot the tape (4 B bin + 8 B
/// key, written then read), the bucket entry (8 B, written then read), the
/// chunk-start load (4 B), the kept flag (1 B) and two random 64 B lines of
/// packed bin state (gather and commit); per bin the final copy of the
/// load out of the packed state (8 B read, 4 B written).
double sharded_bytes_computed(const core::scenario& sc) {
    const double slots = static_cast<double>(core::resolved_balls(sc)) /
                         static_cast<double>(sc.k) * static_cast<double>(sc.d);
    const double per_slot = 2 * 12 + 2 * 8 + 2 * 4 + 2 * 1 + 2 * 64;
    return slots * per_slot + static_cast<double>(sc.n) * (8 + 4);
}

void run_round_big(std::uint64_t seed, double seconds, bool traced,
                   report& r) {
    const double balls = static_cast<double>(
        core::resolved_balls(core::parse_scenario(round_big_scenario)));
    std::vector<double> setup_s;
    std::vector<double> run_s;
    const auto untraced_unit = [&] {
        double setup = 0.0;
        const auto out =
            round_unit(seed, workers_for(round_big_workers), nullptr, setup);
        setup_s.push_back(setup);
        run_s.push_back(out.run_s);
        r.digest("loads_4w", out.digest);
        r.attempted += 1;
    };
    if (!traced) {
        repeat_for(seconds, untraced_unit);
        const double run = perfbench::median(run_s);
        r.set("setup_s", perfbench::median(setup_s), "s");
        r.set("run_s", run, "s");
        r.set("balls_per_s", balls / run, "balls/s");
        r.set("requests_per_s", 1.0 / run, "req/s");
        return;
    }

    declare_layer_metrics(r);
    tracer trace;
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> traced_run_s;
    double settled = 0.0;
    repeat_for(seconds, [&] {
        untraced_unit();
        for (const unsigned workers : {workers_for(round_big_workers), 1u}) {
            const std::string suffix = workers == 1 ? "_1w" : "_4w";
            double setup = 0.0;
            const auto out = round_unit(seed, workers, &trace, setup);
            r.digest("loads_traced" + suffix, out.digest);
            r.attempted += 1;
            if (workers != 1) {
                traced_run_s.push_back(out.run_s);
            }
            const auto& p = out.phases;
            const double phases = p.pregen + p.bucket + p.gather + p.select +
                                  p.handoff + p.commit;
            const std::pair<const char*, double> values[] = {
                {"pregen", p.pregen},   {"bucket", p.bucket},
                {"gather", p.gather},   {"select", p.select},
                {"handoff", p.handoff}, {"commit", p.commit},
                {"other", out.run_s - phases},
                {"construct", out.construct_s}};
            for (const auto& [name, value] : values) {
                layer[std::string("sharded_kernel.") + name + "_s" + suffix]
                    .push_back(value);
            }
            layer["sharded_kernel.balls_per_s" + suffix].push_back(
                balls / out.run_s);
        }
        // The heavy regime has no workload of its own (perfbench/README.md
        // says why); its layers are timed here, once per unit.
        settled = heavy_unit(seed, trace, r);
    });
    for (const auto& [name, values] : layer) {
        r.set(name, perfbench::median(values),
              name.find("balls_per_s") != std::string::npos ? "balls/s"
                                                            : "s");
    }
    const auto spans = trace.spans();
    const double settle =
        perfbench::median(perfbench::durations_of(spans, "level_process.settle"));
    r.set("steady_state.profile_s",
          perfbench::median(
              perfbench::durations_of(spans, "steady_state.profile")),
          "s");
    r.set("level_process.settle_s", settle, "s");
    r.set("level_process.balls_per_s", settled / settle, "balls/s");
    r.set("process.observe_s",
          perfbench::median(perfbench::durations_of(spans, "process.observe")),
          "s");
    const double run = perfbench::median(traced_run_s);
    r.set("sharded_kernel.bytes_computed",
          sharded_bytes_computed(core::parse_scenario(round_big_scenario)),
          "bytes");
    r.set("rng.draws_per_s",
          rng_draws_per_s(core::parse_scenario(round_big_scenario).n, seed),
          "1/s");
    r.set("trace.run_s", run, "s");
    r.set("trace.overhead_s", run - perfbench::median(run_s), "s");
    r.set("trace.uncovered_frac", uncovered_fraction(spans, "round_big.run"),
          "frac");
    r.set("trace.spans", static_cast<double>(spans.size()), "count");
}

// ---------------------------------------------------------------------------
// serve_churn: the allocation service under open-loop Poisson churn
// ---------------------------------------------------------------------------

serve::service_config serve_config(std::uint64_t seed) {
    serve::service_config config;
    config.bins = std::uint64_t{1} << 20;
    config.k = 4;
    config.d = 8;
    config.mode = serve::probing::batch;
    config.seed = seed;
    config.clients = 16;
    config.requests = 250000;
    config.churn = 0.2;
    config.arrival_rate = 0.85 / config.service_time; // utilization 0.85
    config.shards = 0;                                // auto
    config.threads = workers_for(serve_workers);
    return config;
}

/// The id-ordered request sequence run_service serves: every client's
/// schedule drawn by draw_arrivals, merged by (time, client, seq), ids in
/// merged order, release targets resolved to global ids.
struct request_sequence {
    std::vector<serve::request> requests;
    std::vector<sim::sim_time> at;
};

request_sequence build_sequence(const serve::service_config& config) {
    std::vector<serve::client_arrival> merged;
    merged.reserve(config.requests);
    const std::uint64_t base = config.requests / config.clients;
    const std::uint64_t extra = config.requests % config.clients;
    for (std::uint64_t c = 0; c < config.clients; ++c) {
        serve::session_config sc;
        sc.client = c;
        sc.seed = config.seed;
        sc.rate = config.arrival_rate / static_cast<double>(config.clients);
        sc.arrivals = base + (c < extra ? 1 : 0);
        sc.churn = config.churn;
        const auto schedule = serve::draw_arrivals(sc);
        merged.insert(merged.end(), schedule.begin(), schedule.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const serve::client_arrival& a,
                 const serve::client_arrival& b) {
                  return std::tuple{a.at, a.client, a.seq} <
                         std::tuple{b.at, b.client, b.seq};
              });
    request_sequence seq;
    seq.requests.reserve(merged.size());
    seq.at.reserve(merged.size());
    std::unordered_map<std::uint64_t, std::uint64_t> id_of;
    for (std::size_t id = 0; id < merged.size(); ++id) {
        const auto& arrival = merged[id];
        serve::request req;
        req.client = arrival.client;
        req.id = id;
        const std::uint64_t key = arrival.client << 32;
        if (arrival.kind == serve::request_kind::release) {
            req.kind = serve::request_kind::release;
            req.target = id_of.at(key | arrival.target_seq);
        } else {
            id_of.emplace(key | arrival.seq, id);
        }
        seq.requests.push_back(req);
        seq.at.push_back(arrival.at);
    }
    return seq;
}

serve::dispatcher_config dispatcher_config_of(
    const serve::service_config& config) {
    serve::dispatcher_config dc;
    dc.bins = config.bins;
    dc.k = config.k;
    dc.d = config.d;
    dc.mode = config.mode;
    dc.seed = config.seed;
    dc.shards = core::resolve_shard_count(config.bins, config.shards);
    return dc;
}

/// The pool run_service serves on: the persistent pool when more than one
/// thread is asked for, none otherwise.
core::thread_pool* service_pool(const serve::service_config& config) {
    const unsigned threads = core::resolve_thread_count(config.threads);
    return threads > 1 ? &core::persistent_pool(threads) : nullptr;
}

void append_log_line(std::string& log, const serve::response& resp,
                     serve::request_kind kind) {
    log += std::to_string(resp.id);
    log += kind == serve::request_kind::release ? " r" : " a";
    for (const std::uint32_t bin : resp.bins) {
        log += ' ';
        log += std::to_string(bin);
    }
    log += '\n';
}

struct serve_trace_stats {
    std::uint64_t allocations = 0;
    std::uint64_t releases = 0;
    std::uint64_t probe_messages = 0;
    std::vector<double> batch_sizes;
    std::size_t depth_max = 0;
    std::string log;
};

/// run_service's event loop, making the same public calls (draw_arrivals,
/// memory_channel, dispatcher::accept/process, sim::simulator) under the
/// same timing rules, with spans around the layer calls.
serve_trace_stats traced_service(const serve::service_config& config,
                                 tracer& trace) {
    serve_trace_stats stats;
    const scoped_span root(&trace, "serve.run");
    request_sequence seq;
    {
        const scoped_span s(&trace, "serve.session");
        seq = build_sequence(config);
    }
    std::optional<serve::dispatcher> dispatcher;
    {
        const scoped_span s(&trace, "serve.dispatcher.construct");
        dispatcher.emplace(dispatcher_config_of(config), service_pool(config));
    }
    const scoped_span event(&trace, "serve.event");
    sim::simulator sim;
    serve::memory_channel<serve::request> inbox;
    std::vector<serve::session> sessions(config.clients);
    std::vector<double> latencies;
    latencies.reserve(seq.requests.size());
    bool dispatch_pending = false;
    sim::sim_time busy_until = 0.0;
    std::function<void()> maybe_dispatch;
    const auto do_dispatch = [&] {
        dispatch_pending = false;
        stats.depth_max = std::max(stats.depth_max, inbox.pending());
        std::vector<serve::request> batch;
        {
            const scoped_span s(&trace, "serve.dispatcher.accept");
            batch = dispatcher->accept(inbox, config.max_batch);
        }
        if (batch.empty()) {
            return;
        }
        std::vector<serve::response> responses;
        {
            const scoped_span s(&trace, "serve.dispatcher.process",
                                batch.front().id);
            responses = dispatcher->process(batch);
        }
        stats.batch_sizes.push_back(static_cast<double>(batch.size()));
        busy_until = sim.now() +
                     config.service_time * static_cast<double>(batch.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const serve::request& req = batch[i];
            append_log_line(stats.log, responses[i], req.kind);
            if (req.kind == serve::request_kind::allocate) {
                stats.allocations += 1;
            } else {
                stats.releases += 1;
            }
            sim.schedule_at(busy_until + config.channel_delay,
                            [&, resp = responses[i], kind = req.kind,
                             arrived = seq.at[responses[i].id]] {
                                sessions[resp.client].on_response(resp,
                                                                  sim.now());
                                if (kind == serve::request_kind::allocate) {
                                    latencies.push_back(sim.now() - arrived);
                                }
                            });
        }
        maybe_dispatch();
    };
    maybe_dispatch = [&] {
        if (dispatch_pending || inbox.pending() == 0) {
            return;
        }
        dispatch_pending = true;
        sim.schedule_at(std::max(sim.now() + config.batch_window, busy_until),
                        do_dispatch);
    };
    for (std::size_t id = 0; id < seq.requests.size(); ++id) {
        sessions[seq.requests[id].client].on_send(id, seq.at[id]);
        sim.schedule_at(seq.at[id] + config.channel_delay, [&, id] {
            inbox.send(seq.requests[id]);
            maybe_dispatch();
        });
    }
    sim.run();
    std::sort(latencies.begin(), latencies.end());
    stats.probe_messages = dispatcher->probe_messages();
    return stats;
}

void run_serve_churn(std::uint64_t seed, double seconds, bool traced,
                     report& r) {
    const serve::service_config config = serve_config(seed);
    std::vector<double> setup_s;
    std::vector<double> run_s;
    double requests = 0.0;
    double balls = 0.0;
    bool messages_exact = true;
    const auto untraced_unit = [&] {
        // run_service builds its schedule, pool and dispatcher inside the
        // call; set-up is timed through the same public calls beforehand.
        auto t0 = bench_clock::now();
        {
            std::optional<core::thread_pool> pool;
            if (config.threads > 1) {
                pool.emplace(config.threads);
            }
            const auto seq = build_sequence(config);
            const serve::dispatcher dispatcher(dispatcher_config_of(config),
                                               pool ? &*pool : nullptr);
        }
        setup_s.push_back(seconds_since(t0));
        (void)service_pool(config); // started once, as in a server
        t0 = bench_clock::now();
        const auto result = serve::run_service(config);
        run_s.push_back(seconds_since(t0));
        requests = static_cast<double>(result.allocations + result.releases);
        balls = static_cast<double>(result.allocations * config.k);
        messages_exact = messages_exact &&
                         result.probe_messages == config.d * result.allocations;
        r.digest("log", perfbench::fnv1a(result.allocation_log));
        r.attempted += result.allocations + result.releases;
    };
    if (!traced) {
        repeat_for(seconds, untraced_unit);
        const double run = perfbench::median(run_s);
        r.checks.emplace_back("probe_messages_eq_d_x_allocations",
                              messages_exact);
        r.set("setup_s", perfbench::median(setup_s), "s");
        r.set("run_s", run, "s");
        r.set("balls_per_s", balls / run, "balls/s");
        r.set("requests_per_s", requests / run, "req/s");
        return;
    }

    declare_layer_metrics(r);
    tracer trace;
    std::vector<double> traced_run_s;
    std::vector<double> batch_sizes;
    std::size_t depth_max = 0;
    repeat_for(seconds, [&] {
        untraced_unit();
        const auto t0 = bench_clock::now();
        auto stats = traced_service(config, trace);
        traced_run_s.push_back(seconds_since(t0));
        messages_exact = messages_exact &&
                         stats.probe_messages == config.d * stats.allocations;
        r.digest("log_traced", perfbench::fnv1a(stats.log));
        r.attempted += stats.allocations + stats.releases;
        batch_sizes.insert(batch_sizes.end(), stats.batch_sizes.begin(),
                           stats.batch_sizes.end());
        depth_max = std::max(depth_max, stats.depth_max);
    });
    double oracle_s = 0.0;
    {
        const auto t0 = bench_clock::now();
        const auto oracle = serve::run_serial_oracle(config);
        oracle_s = seconds_since(t0);
        r.digest("log_oracle", perfbench::fnv1a(oracle.allocation_log));
    }
    r.checks.emplace_back("probe_messages_eq_d_x_allocations",
                          messages_exact);
    const auto spans = trace.spans();
    const double units = static_cast<double>(traced_run_s.size());
    const auto process_s =
        perfbench::durations_of(spans, "serve.dispatcher.process");
    std::vector<double> process_ms;
    for (const double s : process_s) {
        process_ms.push_back(s * 1e3);
    }
    const auto tail = perfbench::tail_percentile(process_ms);
    double event_self = 0.0;
    for (const auto& s : spans) {
        if (std::string_view(s.name) == "serve.event") {
            event_self += perfbench::self_time(s, spans);
        }
    }
    const double run = perfbench::median(traced_run_s);
    r.set("serve.session_s",
          perfbench::sum_of(perfbench::durations_of(spans, "serve.session")) /
              units,
          "s");
    r.set("serve.dispatcher.accept_s",
          perfbench::sum_of(
              perfbench::durations_of(spans, "serve.dispatcher.accept")) /
              units,
          "s");
    r.set("serve.dispatcher.process_s", perfbench::sum_of(process_s) / units,
          "s");
    r.set("serve.dispatcher.process_ms_p50", perfbench::median(process_ms),
          "ms");
    r.set("serve.dispatcher.process_ms_tail", tail.value, "ms");
    r.set("serve.dispatcher.process_tail_pct", tail.percentile, "pct");
    r.set("serve.dispatcher.process_tail_beyond",
          static_cast<double>(tail.beyond), "count");
    r.set("serve.dispatcher.batches",
          static_cast<double>(batch_sizes.size()) / units, "count");
    r.set("serve.dispatcher.batch_size_p50", perfbench::median(batch_sizes),
          "count");
    r.set("serve.channel.depth_max", static_cast<double>(depth_max), "count");
    r.set("serve.event_s", event_self / units, "s");
    r.set("serve.oracle_s", oracle_s, "s");
    r.set("rng.draws_per_s", rng_draws_per_s(config.bins, seed), "1/s");
    r.set("trace.run_s", run, "s");
    r.set("trace.overhead_s", run - perfbench::median(run_s), "s");
    r.set("trace.uncovered_frac", uncovered_fraction(spans, "serve.run"),
          "frac");
    r.set("trace.spans", static_cast<double>(spans.size()), "count");
}

// ---------------------------------------------------------------------------
// Reference paths (--record)
// ---------------------------------------------------------------------------

void record_reference(const std::string& workload, std::uint64_t seed,
                      report& r) {
    if (workload == "round_big") {
        const core::scenario sc = core::parse_scenario(round_big_scenario);
        core::kd_choice_process reference(sc.n, sc.k, sc.d, seed);
        reference.run_balls(core::resolved_balls(sc));
        r.digest("loads", perfbench::fnv1a_of(
                              std::span<const core::bin_load>(
                                  reference.loads())));
    } else if (workload == "heavy_ff") {
        const core::scenario sc = core::parse_scenario(heavy_ff_scenario);
        auto process = core::make_process(sc, seed);
        process.run_balls(core::resolved_balls(sc));
        const auto obs = process.observe();
        r.digest("observation", observation_digest(obs));
        r.set("max_load", obs.max_load, "balls");
        r.set("gap", obs.gap, "balls");
    } else if (workload == "serve_churn") {
        const auto oracle = serve::run_serial_oracle(serve_config(seed));
        r.digest("log", perfbench::fnv1a(oracle.allocation_log));
    } else {
        throw cli_error("--record has no in-process reference for '" +
                        workload + "' (record.py runs table1_maxload)");
    }
}

} // namespace

int main(int argc, char** argv) {
    arg_parser args;
    args.add_option("workload", "", "table1_grid|round_big|serve_churn "
                                    "(--record also takes heavy_ff)");
    args.add_option("seed", "1", "input seed of the workload");
    args.add_option("seconds", "10", "how long one run measures");
    args.add_option("workers", "0",
                    "override the workload's worker count (0 = as defined)");
    args.add_flag("trace", "traced run: report the per-layer metrics");
    args.add_flag("record", "print the reference path's digest instead");
    args.add_fault_options();
    try {
        if (!args.parse(argc, argv)) {
            return 0;
        }
        core::arm_faults_from_cli(args);
        if (const auto why = perfbench::timing_refusal()) {
            std::cerr << "kdc_perfbench: " << *why << '\n';
            return 3;
        }
        const std::string workload = args.get_string("workload");
        const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
        const double seconds = args.get_double("seconds");
        const bool traced = args.get_flag("trace");
        workers_override = static_cast<unsigned>(
            std::max<std::int64_t>(0, args.get_int("workers")));
        report r;
        if (args.get_flag("record")) {
            record_reference(workload, seed, r);
            print_report(workload, seed, r);
            return 0;
        }
        if (workload == "table1_grid") {
            run_table1(seed, seconds, traced, r);
        } else if (workload == "round_big") {
            run_round_big(seed, seconds, traced, r);
        } else if (workload == "serve_churn") {
            run_serve_churn(seed, seconds, traced, r);
        } else {
            throw cli_error("unknown --workload '" + workload + "'");
        }
        if (!traced) {
            r.set("peak_rss_mb", peak_rss_mib(), "MiB");
        }
        print_report(workload, seed, r);
    } catch (const std::exception& e) {
        std::cerr << "kdc_perfbench: " << e.what() << '\n';
        return 2;
    }
    return 0;
}

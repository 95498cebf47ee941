// Microbenchmarks: throughput of the allocation kernels and the RNG layer.
// These quantify the engineering claims of the library itself (balls/second
// at various (k,d)), not the paper's statistical results.
//
// Two modes:
//
//  * google-benchmark (default): the usual bm_* suite, now including the
//    level-compressed kernels side by side with the per-bin ones.
//
//  * --json: a self-contained kernel comparison that times perbin vs level
//    vs the sharded round-parallel kernel over an (n, k, d) grid and
//    writes machine-readable JSON (BENCH_micro.json) — the recorded perf
//    trajectory. CI uploads the file as an artifact and `--guard` turns it
//    into a regression gate: exit 1 if the level kernel OR the sharded
//    kernel is slower than the per-bin kernel on any cell with n >= 10^7
//    (a coarse 1.0x floor, far below the actual gap, so the gate is not
//    flaky).
//
//      ./micro_throughput --json [--json-out=BENCH_micro.json] [--guard]
//                         [--big-n=16777216] [--balls-factor=1] [--seed=42]
//                         [--huge-n=0] [--huge-factor=10] [--threads=0]
//                         [--warmup=full] [--level-floor=0]
//                         [--sharded-floor=0] [--repeat=3] [--verbose]
//
//    Every cell records the fastest of --repeat runs (the box shares its
//    host; single-shot timings jitter). Sharded cells additionally carry
//    a "phases" object — the kernel's cumulative per-phase wall time
//    (pregen / bucket / gather / select / handoff / commit) from the best
//    run — which is the v2 -> v3 schema change.
//    --huge-n adds a level-kernel-only cell (the per-bin kernel cannot
//    represent the state): --huge-n=1000000000 --huge-factor=10 is the
//    billion-bin, m = 10n run — minutes of wall clock, kilobytes of state.
//    --warmup=ff starts the n >= 10^7 level cells (including --huge-n)
//    from the steady-state fast-forward (core/steady_state.hpp) so only
//    the settle suffix is timed; such cells carry "warmup": "ff" in the
//    JSON and are EXCLUDED from --guard comparisons — the guard re-times
//    them with a full warmup so a fast-forwarded grid can never pass the
//    gate vacuously. --level-floor=<balls/s> adds a guard arm: the
//    largest-n full-warmup level cell at (k=8, d=16) must sustain at
//    least that rate (the recorded hot-path floor; see docs/benchmarks.md).
//    --sharded-floor=<balls/s> is the same arm for the sharded kernel: the
//    largest-n full-warmup sharded cell at (k=1, d=2) — the configuration
//    where the phase pipeline's edge over serial probing is largest — must
//    hold the recorded rate. --verbose logs the detected cache topology
//    behind shards=auto (L2 bytes, window bins, resolved shard count).
//
//  * --scenario: time ONE declarative scenario (core/scenario.hpp) through
//    the same make_process factory the benches use — any policy, any
//    kernel:
//
//      ./micro_throughput --scenario="kd:n=1e8,k=8,d=16,kernel=auto"
//                         [--balls-factor=1] [--repeat=3] [--seed=42]
//                         [--threads=0] [--validate-warmup=0]
//
//    It prints the best-of-repeat run_balls rate and, on a second line,
//    the best-of-repeat make_process seconds (construction: the per-bin
//    load vector and any other O(n) state).
//    `par=round` scenarios run the sharded kernel on a pool sized by
//    --threads; output is byte-identical at any thread count.
//    --validate-warmup=<reps> skips the timing and instead KS-compares the
//    scenario (which must carry warmup=ff) against its warmup=full twin;
//    exit 1 if any of the three KS p-values drops to 0.001 or below.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/kdchoice.hpp"
#include "support/cli.hpp"

namespace {

// ---------------------------------------------------------------------------
// --json mode: perbin vs level kernel comparison grid.
// ---------------------------------------------------------------------------

struct json_cell {
    std::string kernel;
    std::string warmup = "full"; ///< "ff" = steady-state fast-forward timed
    std::uint64_t n = 0;
    std::uint64_t k = 0;
    std::uint64_t d = 0;
    std::uint64_t balls = 0;
    double seconds = 0.0;
    double balls_per_sec = 0.0;
    /// Sharded cells only (schema v3): the kernel's per-phase wall-time
    /// breakdown for the best repeat, so the JSON records WHERE the time
    /// goes, not just the rate.
    bool has_phases = false;
    kdc::core::sharded_phase_times phases;
};

/// Typed kernels expose observed_load_metrics; any_process (the warmup=ff
/// cells go through make_process) reports through observe() instead.
template <typename Process> double final_max_load(const Process& process) {
    if constexpr (requires { kdc::core::observed_load_metrics(process); }) {
        return kdc::core::observed_load_metrics(process).max_load;
    } else {
        return process.observe().max_load;
    }
}

template <typename MakeProcess>
json_cell time_cell(const char* kernel, const char* warmup, std::uint64_t n,
                    std::uint64_t k, std::uint64_t d, std::uint64_t balls,
                    std::uint64_t repeats, MakeProcess make_process) {
    // Fastest of `repeats` fresh runs: the recorded rate is the kernel's,
    // not the host's scheduling noise.
    json_cell cell;
    cell.kernel = kernel;
    cell.warmup = warmup;
    cell.n = n;
    cell.k = k;
    cell.d = d;
    cell.balls = balls;
    double max_load = 0.0;
    for (std::uint64_t rep = 0; rep < std::max<std::uint64_t>(repeats, 1);
         ++rep) {
        auto process = make_process();
        const auto start = std::chrono::steady_clock::now();
        process.run_balls(balls);
        const auto stop = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(stop - start).count();
        if (rep == 0 || seconds < cell.seconds) {
            cell.seconds = seconds;
            if constexpr (requires { process.phase_times(); }) {
                cell.has_phases = true;
                cell.phases = process.phase_times();
            }
        }
        // The final max load keeps the run observable (and the optimizer
        // honest) without an O(n) metrics pass for the per-bin kernel.
        max_load = final_max_load(process);
    }
    cell.balls_per_sec =
        cell.seconds > 0.0 ? static_cast<double>(balls) / cell.seconds : 0.0;
    std::cerr << "  " << kernel << " n=" << n << " k=" << k << " d=" << d
              << (cell.warmup == "ff" ? " warmup=ff" : "") << ": "
              << static_cast<std::uint64_t>(cell.balls_per_sec)
              << " balls/s (max load " << max_load << ")\n";
    return cell;
}

void write_json(const std::string& path, std::uint64_t balls_factor,
                const std::vector<json_cell>& cells) {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot open --json-out path: " + path);
    }
    out << "{\n"
        << "  \"bench\": \"micro_throughput\",\n"
        << "  \"schema\": \"kdchoice-bench-micro/v3\",\n"
        // Guarded timings must come from a fault-free run; the field makes
        // that auditable from the artifact alone (always "none" here —
        // micro_throughput never arms a plan before timing the grid).
        << "  \"faults\": \""
        << (kdc::core::faults_armed() ? "armed" : "none") << "\",\n"
        << "  \"balls_factor\": " << balls_factor << ",\n"
        << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& cell = cells[i];
        out << "    {\"kernel\": \"" << cell.kernel << "\", \"warmup\": \""
            << cell.warmup << "\", \"n\": " << cell.n << ", \"k\": " << cell.k
            << ", \"d\": " << cell.d << ", \"balls\": " << cell.balls
            << ", \"seconds\": " << cell.seconds << ", \"balls_per_sec\": "
            << cell.balls_per_sec;
        if (cell.has_phases) {
            out << ", \"phases\": {\"pregen\": " << cell.phases.pregen
                << ", \"bucket\": " << cell.phases.bucket
                << ", \"gather\": " << cell.phases.gather
                << ", \"select\": " << cell.phases.select
                << ", \"handoff\": " << cell.phases.handoff
                << ", \"commit\": " << cell.phases.commit << "}";
        }
        out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int json_main(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_flag("json", "kernel-comparison mode with JSON output");
    args.add_option("json-out", "BENCH_micro.json", "output path");
    args.add_option("big-n", "16777216",
                    "largest comparison n (>= 10^7 cells feed --guard; 0 "
                    "drops the large point)");
    args.add_option("balls-factor", "1", "balls = factor * n per cell");
    args.add_option("seed", "42", "seed for every timed run");
    args.add_option("huge-n", "0",
                    "when nonzero, add a level-only cell at this n (the "
                    "billion-bin run: --huge-n=1000000000)");
    args.add_option("huge-factor", "10",
                    "balls = factor * n for the --huge-n cell");
    args.add_flag("guard",
                  "exit 1 if the level or sharded kernel is slower than "
                  "perbin on any cell with n >= 10^7");
    args.add_option("warmup", "full",
                    "'ff' fast-forwards the n >= 10^7 level cells to the "
                    "steady state and times the settle suffix only");
    args.add_option("level-floor", "0",
                    "extra --guard arm: minimum balls/s for the largest-n "
                    "full-warmup level cell at k=8, d=16 (0 disables)");
    args.add_option("sharded-floor", "0",
                    "extra --guard arm: minimum balls/s for the largest-n "
                    "full-warmup sharded cell at k=1, d=2 (0 disables)");
    args.add_option("repeat", "3",
                    "timed runs per cell; each cell records the fastest");
    args.add_flag("verbose",
                  "log the detected cache topology behind shards=auto");
    args.add_threads_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto big_n = static_cast<std::uint64_t>(args.get_int("big-n"));
    const auto balls_factor =
        static_cast<std::uint64_t>(args.get_int("balls-factor"));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const auto huge_n = static_cast<std::uint64_t>(args.get_int("huge-n"));
    const auto huge_factor =
        static_cast<std::uint64_t>(args.get_int("huge-factor"));
    const bool use_ff = kdc::core::warmup_from_name(args.get_string(
                            "warmup")) == kdc::core::warmup_mode::fast_forward;
    const double level_floor = args.get_double("level-floor");
    const double sharded_floor = args.get_double("sharded-floor");
    const auto repeats =
        std::max<std::uint64_t>(
            static_cast<std::uint64_t>(args.get_int("repeat")), 1);

    if (args.get_flag("verbose")) {
        const auto& topo = kdc::core::shard_auto_config();
        std::cerr << "shards=auto topology: "
                  << (topo.detected
                          ? "L2 " + std::to_string(topo.l2_bytes) + " B"
                          : std::string("L2 undetected (default window)"))
                  << ", window " << topo.window_bins << " bins, n=" << big_n
                  << " -> "
                  << kdc::core::resolve_shard_count(
                         std::max<std::uint64_t>(big_n, 1), 0)
                  << " shards\n";
    }

    // The warmup=ff level cells go through the same declarative factory the
    // benches use; only n >= 10^7 cells qualify (below that the warmup is
    // cheap and a fast-forwarded timing would measure nothing).
    const auto make_ff_level = [seed](std::uint64_t n, std::uint64_t k,
                                      std::uint64_t d) {
        kdc::core::scenario sc;
        sc.n = n;
        sc.k = k;
        sc.d = d;
        sc.kernel = kdc::core::kernel_choice::level;
        sc.warmup = kdc::core::warmup_mode::fast_forward;
        return kdc::core::make_process(sc, seed);
    };

    struct config {
        std::uint64_t k, d;
    };
    const std::vector<config> configs{{1, 2}, {2, 4}, {8, 16}};
    std::vector<std::uint64_t> sizes{1u << 16, 1u << 20};
    if (big_n != 0) {
        sizes.push_back(big_n);
    }

    // One pool shared by every sharded cell; the sharded kernel's output is
    // byte-identical to perbin at any --threads value, so the pool size
    // only moves the clock.
    kdc::core::thread_pool pool(
        kdc::core::resolve_thread_count(args.get_threads()));

    std::vector<json_cell> cells;
    for (const auto n : sizes) {
        for (const auto& cfg : configs) {
            const std::uint64_t balls =
                balls_factor * kdc::core::whole_rounds_balls(n, cfg.k);
            cells.push_back(time_cell(
                "perbin", "full", n, cfg.k, cfg.d, balls, repeats, [&] {
                    return kdc::core::kd_choice_process(n, cfg.k, cfg.d,
                                                        seed);
                }));
            if (use_ff && n >= 10'000'000) {
                cells.push_back(time_cell(
                    "level", "ff", n, cfg.k, cfg.d, balls, repeats,
                    [&] { return make_ff_level(n, cfg.k, cfg.d); }));
            } else {
                cells.push_back(time_cell(
                    "level", "full", n, cfg.k, cfg.d, balls, repeats, [&] {
                        return kdc::core::kd_choice_level_process(
                            n, cfg.k, cfg.d, seed);
                    }));
            }
            cells.push_back(time_cell(
                "sharded", "full", n, cfg.k, cfg.d, balls, repeats, [&] {
                    kdc::core::sharded_kd_process process(n, cfg.k, cfg.d,
                                                          seed);
                    process.use_pool(&pool);
                    return process;
                }));
        }
    }
    if (huge_n != 0) {
        // Level kernel only: a per-bin load vector at this n would not fit.
        const std::uint64_t k = 8;
        const std::uint64_t d = 16;
        const std::uint64_t balls =
            huge_factor * kdc::core::whole_rounds_balls(huge_n, k);
        if (use_ff && huge_n >= 10'000'000) {
            cells.push_back(time_cell("level", "ff", huge_n, k, d, balls,
                                      repeats, [&] {
                                          return make_ff_level(huge_n, k, d);
                                      }));
        } else {
            cells.push_back(time_cell("level", "full", huge_n, k, d, balls,
                                      repeats, [&] {
                                          return kdc::core::
                                              kd_choice_level_process(
                                                  huge_n, k, d, seed);
                                      }));
        }
    }

    write_json(args.get_string("json-out"), balls_factor, cells);
    std::cerr << "wrote " << args.get_string("json-out") << " ("
              << cells.size() << " cells)\n";

    if (args.get_flag("guard")) {
        // A fast-forwarded cell times the settle suffix only, so comparing
        // it against a full-warmup perbin cell would gate nothing. Re-time
        // every grid ff cell (those with a perbin twin; --huge-n has none)
        // with a full warmup so the kernel comparison below always runs on
        // like-for-like timings — --warmup=ff must never make the guard
        // pass vacuously.
        {
            std::vector<json_cell> retimed;
            for (const auto& cell : cells) {
                if (cell.warmup != "ff") {
                    continue;
                }
                const bool has_perbin_twin = std::any_of(
                    cells.begin(), cells.end(), [&](const json_cell& other) {
                        return other.kernel == "perbin" &&
                               other.n == cell.n && other.k == cell.k &&
                               other.d == cell.d;
                    });
                if (!has_perbin_twin) {
                    continue;
                }
                std::cerr << "guard: re-timing level n=" << cell.n
                          << " k=" << cell.k << " d=" << cell.d
                          << " with a full warmup\n";
                retimed.push_back(time_cell(
                    "level", "full", cell.n, cell.k, cell.d, cell.balls,
                    repeats, [&] {
                        return kdc::core::kd_choice_level_process(
                            cell.n, cell.k, cell.d, seed);
                    }));
            }
            cells.insert(cells.end(), retimed.begin(), retimed.end());
        }
        // Two arms. The level kernel must dominate perbin on EVERY big-n
        // cell (that regression gate predates the sharded kernel). The
        // sharded kernel replays the serial tape exactly, so its edge is
        // configuration-dependent: low d starves the serial kernel of
        // memory-level parallelism and the sharded pipeline wins, while
        // high d gives the serial kernel d overlapped probe loads and the
        // pipeline's extra passes roughly break even. The gate is
        // therefore existential — at least one n >= 10^7 cell where
        // par=round strictly beats perbin — which is the recorded claim.
        bool ok = true;
        std::size_t compared = 0;
        std::size_t sharded_wins = 0;
        std::size_t sharded_cells = 0;
        for (const auto& perbin : cells) {
            if (perbin.kernel != "perbin" || perbin.n < 10'000'000) {
                continue;
            }
            for (const auto& other : cells) {
                if ((other.kernel != "level" && other.kernel != "sharded") ||
                    other.warmup != "full" || other.n != perbin.n ||
                    other.k != perbin.k || other.d != perbin.d) {
                    continue;
                }
                ++compared;
                if (other.kernel == "sharded") {
                    ++sharded_cells;
                    if (other.balls_per_sec > perbin.balls_per_sec) {
                        ++sharded_wins;
                    }
                    continue;
                }
                if (other.balls_per_sec < perbin.balls_per_sec) {
                    std::cerr << "GUARD FAILED: " << other.kernel
                              << " kernel slower than perbin at n="
                              << perbin.n << " k=" << perbin.k
                              << " d=" << perbin.d << " ("
                              << other.balls_per_sec << " vs "
                              << perbin.balls_per_sec << " balls/s)\n";
                    ok = false;
                }
            }
        }
        if (compared == 0) {
            // A guard that checked nothing must not pass: --big-n below
            // 10^7 (or 0) leaves the grid without any eligible cell.
            std::cerr << "GUARD FAILED: no kernel pair with n >= 10^7 in "
                         "the grid (raise --big-n)\n";
            return 1;
        }
        if (sharded_cells > 0 && sharded_wins == 0) {
            std::cerr << "GUARD FAILED: no n >= 10^7 cell where the sharded "
                         "kernel beats perbin\n";
            ok = false;
        }
        if (level_floor > 0.0) {
            // Third arm: the hot-path throughput floor. The largest-n
            // full-warmup level cell at the heavy configuration (k=8, d=16)
            // must hold the recorded rate — absolute, not relative to
            // perbin, so a simultaneous regression of both kernels still
            // trips the gate.
            const json_cell* floor_cell = nullptr;
            for (const auto& cell : cells) {
                if (cell.kernel == "level" && cell.warmup == "full" &&
                    cell.n >= 10'000'000 && cell.k == 8 && cell.d == 16 &&
                    (floor_cell == nullptr || cell.n > floor_cell->n)) {
                    floor_cell = &cell;
                }
            }
            if (floor_cell == nullptr) {
                std::cerr << "GUARD FAILED: --level-floor needs a "
                             "full-warmup level cell with n >= 10^7 at k=8 "
                             "d=16 (raise --big-n)\n";
                ok = false;
            } else if (floor_cell->balls_per_sec < level_floor) {
                std::cerr << "GUARD FAILED: level kernel below the floor at "
                             "n="
                          << floor_cell->n << " k=8 d=16 ("
                          << floor_cell->balls_per_sec << " vs floor "
                          << level_floor << " balls/s)\n";
                ok = false;
            } else {
                std::cerr << "guard: level floor held ("
                          << floor_cell->balls_per_sec << " >= "
                          << level_floor << " balls/s at n=" << floor_cell->n
                          << ")\n";
            }
        }
        if (sharded_floor > 0.0) {
            // Fourth arm: the sharded pipeline's absolute floor, pinned at
            // (k=1, d=2) — the configuration where the phase pipeline's
            // edge over serial probing is largest and a regression in any
            // phase (pregen, gather, select, commit) shows up undiluted.
            const json_cell* floor_cell = nullptr;
            for (const auto& cell : cells) {
                if (cell.kernel == "sharded" && cell.warmup == "full" &&
                    cell.n >= 10'000'000 && cell.k == 1 && cell.d == 2 &&
                    (floor_cell == nullptr || cell.n > floor_cell->n)) {
                    floor_cell = &cell;
                }
            }
            if (floor_cell == nullptr) {
                std::cerr << "GUARD FAILED: --sharded-floor needs a "
                             "full-warmup sharded cell with n >= 10^7 at "
                             "k=1 d=2 (raise --big-n)\n";
                ok = false;
            } else if (floor_cell->balls_per_sec < sharded_floor) {
                std::cerr << "GUARD FAILED: sharded kernel below the floor "
                             "at n="
                          << floor_cell->n << " k=1 d=2 ("
                          << floor_cell->balls_per_sec << " vs floor "
                          << sharded_floor << " balls/s)\n";
                ok = false;
            } else {
                std::cerr << "guard: sharded floor held ("
                          << floor_cell->balls_per_sec << " >= "
                          << sharded_floor << " balls/s at n="
                          << floor_cell->n << ")\n";
                // Fault fast-path rider: re-time the same cell with a fault
                // plan ARMED but never firing (hit count far beyond reach),
                // so every fault_point takes its slow-path check. The
                // instrumentation budget is <1%: the armed run must still
                // clear 99% of the floor the disarmed run just cleared.
                const std::uint64_t floor_n = floor_cell->n;
                const std::uint64_t floor_balls = floor_cell->balls;
                kdc::core::arm_faults(kdc::core::fault_plan::parse(
                    "shard.pregen:io_error@1000000000"));
                const json_cell armed = time_cell(
                    "sharded", "full", floor_n, 1, 2, floor_balls, repeats,
                    [&] {
                        kdc::core::sharded_kd_process process(floor_n, 1, 2,
                                                              seed);
                        process.use_pool(&pool);
                        return process;
                    });
                kdc::core::disarm_faults();
                if (armed.balls_per_sec < 0.99 * sharded_floor) {
                    std::cerr << "GUARD FAILED: armed-but-idle fault "
                                 "instrumentation dragged the sharded floor "
                                 "cell below 99% of the floor ("
                              << armed.balls_per_sec << " vs "
                              << 0.99 * sharded_floor << " balls/s)\n";
                    ok = false;
                } else {
                    std::cerr << "guard: fault fast path held ("
                              << armed.balls_per_sec << " >= 99% of floor "
                              << sharded_floor << " balls/s armed)\n";
                }
            }
        }
        if (!ok) {
            return 1;
        }
        std::cerr << "guard OK: level kernel >= perbin on all " << compared
                  << " comparisons with n >= 10^7; sharded kernel beats "
                  << "perbin on " << sharded_wins << "/" << sharded_cells
                  << " of them\n";
    }
    return 0;
}

// ---------------------------------------------------------------------------
// --scenario mode: time one declarative scenario through make_process.
// ---------------------------------------------------------------------------

int scenario_main(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_scenario_option();
    args.add_option("balls-factor", "1",
                    "balls = factor * the scenario's resolved ball count");
    args.add_option("repeat", "3", "timed runs; the best is reported");
    args.add_option("seed", "42", "seed for every timed run");
    args.add_option("validate-warmup", "0",
                    "KS-compare the scenario (warmup=ff) against its "
                    "warmup=full twin over this many repetitions instead of "
                    "timing; exit 1 if any p-value <= 0.001");
    args.add_threads_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto sc = kdc::core::parse_scenario(args.get_string("scenario"));
    const auto factor =
        static_cast<std::uint64_t>(args.get_int("balls-factor"));
    const auto repeat = static_cast<std::uint64_t>(args.get_int("repeat"));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const auto validate_reps =
        static_cast<std::uint32_t>(args.get_int("validate-warmup"));

    if (validate_reps > 0) {
        if (sc.warmup != kdc::core::warmup_mode::fast_forward) {
            throw kdc::cli_error("--validate-warmup compares warmup=ff "
                                 "against warmup=full; add warmup=ff to the "
                                 "scenario");
        }
        const auto result =
            kdc::core::validate_fast_forward(sc, validate_reps, seed);
        const auto print = [](const char* what,
                              const kdc::stats::ks_result& ks) {
            std::cout << "  " << what << ": D=" << ks.statistic
                      << " p=" << ks.p_value << '\n';
        };
        std::cout << "validate-warmup scenario=" << kdc::core::to_string(sc)
                  << " reps=" << result.reps << '\n';
        print("max_load", result.max_load_ks);
        print("gap", result.gap_ks);
        print("loads", result.loads_ks);
        const double worst =
            std::min({result.max_load_ks.p_value, result.gap_ks.p_value,
                      result.loads_ks.p_value});
        if (worst <= 0.001) {
            std::cout << "validate-warmup FAILED: fast-forward "
                         "distinguishable from full warmup (worst p="
                      << worst << ")\n";
            return 1;
        }
        std::cout << "validate-warmup OK: fast-forward indistinguishable "
                     "from full warmup (worst p="
                  << worst << ")\n";
        return 0;
    }
    const std::uint64_t balls = factor * kdc::core::resolved_balls(sc);
    const auto kernel = kdc::core::resolve_kernel(sc);

    // par=round scenarios run their sharded phases on this pool; every
    // other scenario ignores it. Timing only — never the numbers.
    kdc::core::thread_pool pool(
        kdc::core::resolve_thread_count(args.get_threads()));

    using clock = std::chrono::steady_clock;
    const auto seconds_between = [](clock::time_point from,
                                    clock::time_point to) {
        return std::chrono::duration<double>(to - from).count();
    };
    const std::uint64_t runs = std::max<std::uint64_t>(1, repeat);
    double best_make_seconds = 0.0;
    double best_seconds = 0.0;
    double final_max = 0.0;
    for (std::uint64_t run = 0; run < runs; ++run) {
        const auto made = clock::now();
        auto process = kdc::core::make_process(sc, seed);
        const double make_seconds = seconds_between(made, clock::now());
        process.use_pool(&pool);
        const auto start = clock::now();
        process.run_balls(balls);
        const double seconds = seconds_between(start, clock::now());
        if (run == 0 || make_seconds < best_make_seconds) {
            best_make_seconds = make_seconds;
        }
        if (run == 0 || seconds < best_seconds) {
            best_seconds = seconds;
        }
        final_max = process.observe().max_load;
    }
    const double rate = best_seconds > 0.0
                            ? static_cast<double>(balls) / best_seconds
                            : 0.0;
    std::cout << "scenario " << kdc::core::to_string(sc) << "\n"
              << "kernel " << kdc::core::kernel_name(kernel) << ", "
              << balls << " balls: "
              << static_cast<std::uint64_t>(rate) << " balls/s (best of "
              << runs << ", max load " << final_max << ")\n"
              << "make_process: " << best_make_seconds << " s (best of "
              << runs << ")\n";
    return 0;
}

} // namespace

// ---------------------------------------------------------------------------
// google-benchmark mode.
// ---------------------------------------------------------------------------

#include <benchmark/benchmark.h>

#include "rng/pcg32.hpp"
#include "rng/sampling.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"

namespace {

void bm_xoshiro256ss(benchmark::State& state) {
    kdc::rng::xoshiro256ss gen(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_xoshiro256ss);

void bm_pcg32(benchmark::State& state) {
    kdc::rng::pcg32 gen(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_pcg32);

void bm_uniform_below(benchmark::State& state) {
    kdc::rng::xoshiro256ss gen(42);
    const auto bound = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(kdc::rng::uniform_below(gen, bound));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_uniform_below)->Arg(193)->Arg(1 << 16)->Arg(1 << 30);

void bm_batched_uniform(benchmark::State& state) {
    kdc::rng::xoshiro256ss gen(42);
    kdc::rng::batched_uniform batched(
        static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(batched.next(gen));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_batched_uniform)->Arg(193)->Arg(1 << 16)->Arg(1 << 30);

void bm_sample_with_replacement(benchmark::State& state) {
    kdc::rng::xoshiro256ss gen(42);
    std::vector<std::uint32_t> out(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        kdc::rng::sample_with_replacement(gen, 1 << 16,
                                          std::span<std::uint32_t>(out));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_sample_with_replacement)->Arg(4)->Arg(64)->Arg(193);

/// Balls/second for a full (k,d)-choice run at n = 2^16 (per-bin kernel).
void bm_kd_choice(benchmark::State& state) {
    const auto k = static_cast<std::uint64_t>(state.range(0));
    const auto d = static_cast<std::uint64_t>(state.range(1));
    constexpr std::uint64_t n = 1 << 16;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::kd_choice_process process(n, k, d, ++seed);
        process.run_balls(n - (n % k));
        benchmark::DoNotOptimize(process.loads().data());
    }
    state.SetItemsProcessed(state.iterations() * (n - (n % k)));
}
BENCHMARK(bm_kd_choice)
    ->Args({1, 2})
    ->Args({2, 4})
    ->Args({8, 16})
    ->Args({64, 128})
    ->Args({1, 193})
    ->Args({128, 193})
    ->Args({192, 193});

/// The same runs on the level-compressed kernel: O(max-load) state, one
/// scan of the occupied load span per probe. Compare against bm_kd_choice per (k,d) pair —
/// and see bm_kd_choice_big for the large-n regime where per-bin loses.
void bm_kd_choice_level(benchmark::State& state) {
    const auto k = static_cast<std::uint64_t>(state.range(0));
    const auto d = static_cast<std::uint64_t>(state.range(1));
    constexpr std::uint64_t n = 1 << 16;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::kd_choice_level_process process(n, k, d, ++seed);
        process.run_balls(n - (n % k));
        benchmark::DoNotOptimize(process.profile().max_level());
    }
    state.SetItemsProcessed(state.iterations() * (n - (n % k)));
}
BENCHMARK(bm_kd_choice_level)
    ->Args({1, 2})
    ->Args({2, 4})
    ->Args({8, 16})
    ->Args({64, 128})
    ->Args({1, 193})
    ->Args({128, 193})
    ->Args({192, 193});

/// The crossover pair: at n = 2^22 the per-bin load vector blows the cache
/// and every probe is a memory stall; the level kernel's state still fits
/// in L1.
void bm_kd_choice_big(benchmark::State& state) {
    constexpr std::uint64_t n = 1 << 22;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::kd_choice_process process(n, 8, 16, ++seed);
        process.run_balls(n);
        benchmark::DoNotOptimize(process.loads().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_kd_choice_big)->Unit(benchmark::kMillisecond);

void bm_kd_choice_level_big(benchmark::State& state) {
    constexpr std::uint64_t n = 1 << 22;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::kd_choice_level_process process(n, 8, 16, ++seed);
        process.run_balls(n);
        benchmark::DoNotOptimize(process.profile().max_level());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_kd_choice_level_big)->Unit(benchmark::kMillisecond);

void bm_single_choice(benchmark::State& state) {
    constexpr std::uint64_t n = 1 << 16;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::single_choice_process process(n, ++seed);
        process.run_balls(n);
        benchmark::DoNotOptimize(process.loads().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_single_choice);

void bm_single_choice_level(benchmark::State& state) {
    constexpr std::uint64_t n = 1 << 16;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::single_choice_level_process process(n, ++seed);
        process.run_balls(n);
        benchmark::DoNotOptimize(process.profile().max_level());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_single_choice_level);

void bm_d_choice_fast_path(benchmark::State& state) {
    constexpr std::uint64_t n = 1 << 16;
    const auto d = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::d_choice_process process(n, d, ++seed);
        process.run_balls(n);
        benchmark::DoNotOptimize(process.loads().data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_d_choice_fast_path)->Arg(2)->Arg(4)->Arg(8);

void bm_d_choice_level_fast_path(benchmark::State& state) {
    constexpr std::uint64_t n = 1 << 16;
    const auto d = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        kdc::core::d_choice_level_process process(n, d, ++seed);
        process.run_balls(n);
        benchmark::DoNotOptimize(process.profile().max_level());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_d_choice_level_fast_path)->Arg(2)->Arg(4)->Arg(8);

/// The Table-1-style cell both runner benchmarks time: (8,16)-choice at
/// n = 2^15, one ball per bin.
constexpr std::uint64_t bm_experiment_n = 1 << 15;

kdc::core::kd_choice_process bm_experiment_process(std::uint64_t seed) {
    return kdc::core::kd_choice_process(bm_experiment_n, 8, 16, seed);
}

/// Serial repetition baseline for the one-cell sweep comparison:
/// 10 reps of the cell above.
void bm_experiment_serial(benchmark::State& state) {
    constexpr std::uint64_t n = bm_experiment_n;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const auto result = kdc::core::run_experiment(
            {.balls = n, .reps = 10, .seed = ++seed}, bm_experiment_process);
        benchmark::DoNotOptimize(result.reps.data());
    }
    state.SetItemsProcessed(state.iterations() * 10 * n);
}
BENCHMARK(bm_experiment_serial)->Unit(benchmark::kMillisecond);

/// The same reps as a one-cell sweep on the persistent pool. Aggregates are
/// bit-identical to the serial baseline; only wall-clock time may differ.
void bm_experiment_parallel(benchmark::State& state) {
    constexpr std::uint64_t n = bm_experiment_n;
    auto& pool =
        kdc::core::persistent_pool(static_cast<unsigned>(state.range(0)));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const auto outcomes = kdc::core::run_sweep(
            pool, {kdc::core::make_sweep_cell(
                      "(8,16)", {.balls = n, .reps = 10, .seed = ++seed},
                      bm_experiment_process)});
        benchmark::DoNotOptimize(outcomes[0].result.reps.data());
    }
    state.SetItemsProcessed(state.iterations() * 10 * n);
}
BENCHMARK(bm_experiment_parallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void bm_sorted_loads(benchmark::State& state) {
    kdc::core::kd_choice_process process(1 << 16, 2, 4, 7);
    process.run_balls(1 << 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kdc::core::sorted_loads_desc(process.loads()));
    }
}
BENCHMARK(bm_sorted_loads);

} // namespace

int main(int argc, char** argv) {
    // `--json` switches to the self-contained kernel-comparison harness,
    // `--scenario` to the single-scenario timer; everything else is
    // google-benchmark's usual CLI.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            return json_main(argc, argv);
        }
    }
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--scenario", 0) == 0) {
            return scenario_main(argc, argv);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

// Smoke test for the installed kdchoice package: exercises the umbrella
// header (<kdchoice.hpp>) and one type from each exported layer — the
// declarative scenario API, the execution engine, and stats — through the
// same include paths a downstream project uses, and exits non-zero on any
// surprise so CI can gate on it.
#include <cstdio>

#include "kdchoice.hpp"

int main() {
    // The scenario API through the installed tree: parse, construct via
    // the policy table, run on the auto-resolved kernel.
    const auto sc =
        kdc::core::parse_scenario("kd:n=256,k=2,d=4,kernel=auto");
    auto process = kdc::core::make_process(sc, /*seed=*/7);
    process.run_balls(kdc::core::resolved_balls(sc));
    if (process.observe().max_load < 1.0) {
        std::puts("FAIL: scenario run placed no balls");
        return 1;
    }

    // One small adaptive sweep end-to-end on the installed library, with
    // cells built from scenarios.
    std::vector<kdc::core::sweep_cell> cells;
    cells.push_back(kdc::core::make_scenario_cell(
        "kd(2,4)", sc, {.balls = 256, .reps = 8, .seed = 42}));
    kdc::core::sweep_options options;
    options.threads = 2;
    options.stopping = kdc::core::confidence_width_rule(
        /*ci_half_width=*/5.0, /*min_reps=*/2);
    const auto outcomes = kdc::core::run_sweep(cells, options);
    if (outcomes.size() != 1 || outcomes[0].result.reps.empty()) {
        std::puts("FAIL: sweep produced no outcome");
        return 1;
    }
    const double width =
        kdc::stats::t_ci_half_width(outcomes[0].result.max_load_stats, 0.95);
    std::printf("installed kdchoice OK: scenario '%s', %zu reps, max-load "
                "CI half-width %.3f\n",
                kdc::core::to_string(sc).c_str(),
                outcomes[0].result.reps.size(), width);
    return 0;
}

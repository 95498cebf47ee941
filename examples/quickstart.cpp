// Quickstart: the 60-second tour of the kdchoice public API.
//
//   $ ./quickstart
//
// Covers: the declarative scenario API (one string, one factory, any
// policy and kernel), reading metrics, multi-repetition experiments,
// comparing with the classic baselines, and the theory oracle's
// predictions.
#include <iostream>

#include "core/kdchoice.hpp"
#include "support/text_table.hpp"
#include "theory/bounds.hpp"

int main() {
    constexpr std::uint64_t seed = 2024;

    // 1. A scenario is ONE declarative value: the paper's (k,d)-choice
    //    process at n = 2^16, with the simulation kernel left to the
    //    library (kernel=auto picks the level-compressed kernel whenever
    //    the policy supports it).
    const auto sc = kdc::core::parse_scenario(
        "kd:n=65536,k=8,d=16,kernel=auto");
    const auto n = sc.n;

    // 2. make_process dispatches through the policy table to the right
    //    process and kernel; run and observe through one uniform handle.
    auto process = kdc::core::make_process(sc, seed);
    process.run_balls(kdc::core::resolved_balls(sc));
    const auto obs = process.observe();
    std::cout << "scenario " << kdc::core::to_string(sc) << "\n"
              << "  kernel     : "
              << kdc::core::kernel_choice_name(kdc::core::resolve_kernel(sc))
              << "\n"
              << "  max load   : " << obs.max_load << "\n"
              << "  empty bins : " << obs.empty_bins << "\n"
              << "  messages   : " << obs.messages << " ("
              << kdc::format_fixed(static_cast<double>(obs.messages) /
                                       static_cast<double>(n), 2)
              << " per ball)\n";

    // 3. The paper's quantities from the sorted load vector B_x (lossless
    //    on every kernel: bins are exchangeable).
    const auto sorted = process.sorted_loads();
    std::cout << "  B_1=" << sorted.front() << " B_n=" << sorted.back()
              << "\n";

    // 4. What does the theory predict? Theorem 1's two terms.
    const auto bound = kdc::theory::theorem1_bound(n, sc.k, sc.d);
    std::cout << "  Theorem 1 prediction: " << kdc::format_fixed(bound.first, 2)
              << " + " << kdc::format_fixed(bound.second, 2) << " + O(1)\n\n";

    // 5. Multi-repetition experiment (Table 1 cell style): 10 runs,
    //    independent seeds, aggregated.
    const auto experiment = kdc::core::run_scenario_experiment(
        sc, {.balls = n, .reps = 10, .seed = seed});
    std::cout << "10-rep experiment: max loads seen = {"
              << experiment.max_load_set() << "}, mean "
              << kdc::format_fixed(experiment.max_load_stats.mean(), 2)
              << "\n\n";

    // 6. Against the classics — every baseline is a scenario too.
    const auto single = kdc::core::run_scenario_experiment(
        kdc::core::parse_scenario("single:n=65536"),
        {.balls = n, .reps = 10, .seed = seed + 1});
    const auto two_choice = kdc::core::run_scenario_experiment(
        kdc::core::parse_scenario("dchoice:n=65536,d=2"),
        {.balls = n, .reps = 10, .seed = seed + 2});
    std::cout << "baselines: single-choice max loads {"
              << single.max_load_set() << "}, two-choice {"
              << two_choice.max_load_set() << "}\n"
              << "(k,d)-choice spends " << sc.d << "/" << sc.k << " = "
              << kdc::format_fixed(static_cast<double>(sc.d) /
                                       static_cast<double>(sc.k), 2)
              << " messages per ball vs 2.0 for two-choice.\n";
    return 0;
}

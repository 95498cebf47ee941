// Cluster job scheduling with shared probing (Section 1.3 of the paper).
//
// A job = k parallel tasks; its response time is decided by its slowest
// task. This example schedules a stream of jobs on a simulated cluster and
// compares probing strategies at your chosen utilization:
//
//   $ ./cluster_scheduler --workers=128 --k=8 --util=0.7
//   $ ./cluster_scheduler --scenario="kd:n=128,k=8,d=16" --util=0.7
//
// Strategies: random, per-task d-choice (Sparrow-style), (k,d)-choice
// shared probing, and the Section 7 greedy variant. The scenario string
// (core/scenario.hpp) maps onto the cluster: n = workers, k = tasks per
// job, d = probe pool per job.
#include <iostream>

#include "core/scenario.hpp"
#include "sched/scheduler.hpp"
#include "support/cli.hpp"
#include "support/text_table.hpp"

int main(int argc, char** argv) {
    kdc::arg_parser args;
    args.add_option("workers", "128", "number of worker machines");
    args.add_option("jobs", "10000", "jobs to schedule");
    args.add_option("k", "8", "parallel tasks per job");
    args.add_option("d", "16", "probe pool per job for batch strategies");
    args.add_option("util", "0.7", "target cluster utilization (0,1)");
    args.add_option("seed", "1", "simulation seed");
    args.add_scenario_option();
    if (!args.parse(argc, argv)) {
        return 0;
    }
    const auto jobs = static_cast<std::uint64_t>(args.get_int("jobs"));
    const double util = args.get_double("util");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    kdc::core::scenario sc;
    sc.n = args.get_positive_int("workers");
    sc.k = args.get_positive_int("k");
    sc.d = args.get_positive_int("d");
    const auto merged = kdc::core::scenario_from_cli(args, sc);
    const auto workers = merged.n;
    const auto k = merged.k;
    const auto d = merged.d;

    using kdc::sched::probe_strategy;

    kdc::sched::scheduler_config base;
    base.workers = workers;
    base.jobs = jobs;
    base.tasks_per_job = k;
    base.mean_service = 1.0;
    base.arrival_rate = util * static_cast<double>(workers) /
                        static_cast<double>(k);
    base.seed = seed;

    std::cout << "Scheduling " << jobs << " jobs of " << k << " tasks on "
              << workers << " workers at utilization "
              << kdc::format_fixed(util, 2) << "\n\n";

    kdc::text_table table;
    table.set_header({"strategy", "mean resp", "median", "p99", "max",
                      "probes/job"});
    table.set_align(0, kdc::table_align::left);

    struct run_case {
        const char* label;
        probe_strategy strategy;
        std::uint64_t probes;
    };
    const run_case cases[] = {
        {"random", probe_strategy::random_worker, 1},
        {"per-task d-choice (d=2)", probe_strategy::per_task_d_choice, 2},
        {"(k,d)-choice shared", probe_strategy::batch_kd_choice, d},
        {"batch greedy (Sec. 7)", probe_strategy::batch_greedy, d},
    };
    for (const auto& c : cases) {
        auto config = base;
        config.strategy = c.strategy;
        config.probes = c.probes;
        const auto result = kdc::sched::simulate(config);
        table.add_row(
            {c.label, kdc::format_fixed(result.response_time.mean, 3),
             kdc::format_fixed(result.response_time.median, 2),
             kdc::format_fixed(result.response_time.p99, 2),
             kdc::format_fixed(result.response_time.max, 2),
             kdc::format_fixed(static_cast<double>(result.probe_messages) /
                                   static_cast<double>(jobs), 1)});
    }
    std::cout << table << '\n'
              << "Note the message column: (k,d) shared probing issues d "
                 "probes per job; per-task\n"
                 "d-choice issues d probes per TASK (k times more for the "
                 "same d).\n";
    return 0;
}

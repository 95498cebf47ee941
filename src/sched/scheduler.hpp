// Parallel job scheduling on a cluster (Section 1.3 of the paper).
//
// A job consists of k tasks scheduled in parallel. Under the standard
// multiple-choice discipline each task independently probes d workers and
// joins the shortest queue ("per-task d-choice", the Sparrow [12] style).
// The paper's point: a job finishes when its *last* task finishes, so one
// task landing on a busy worker ruins the job; (k,d)-choice lets the k tasks
// share one pool of d probes and take the k least loaded workers, which both
// lowers the straggler probability and cuts the message cost from k*d to d.
//
// This module is a discrete-event model of exactly that: Poisson job
// arrivals, FIFO workers, per-task service times, and pluggable probing
// strategies. Response time = last-task completion - arrival.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/round_kernel.hpp"
#include "core/types.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/event_queue.hpp"
#include "stats/summary.hpp"

namespace kdc::sched {

enum class probe_strategy {
    random_worker,      ///< no probing: every task to a uniform worker
    per_task_d_choice,  ///< each task probes `probes` workers independently
    batch_kd_choice,    ///< the job probes `probes` workers once; k tasks to
                        ///< the k least loaded (multiplicity rule)
    batch_greedy        ///< Section 7 variant: k tasks greedily to the
                        ///< currently least loaded distinct probed worker
};

[[nodiscard]] const char* to_string(probe_strategy strategy) noexcept;

enum class service_model {
    exponential,   ///< service ~ Exp(mean)
    deterministic, ///< service == mean
    pareto         ///< heavy-tailed Pareto(shape), scaled to the given mean;
                   ///< requires shape > 1. Stragglers dominate here, which
                   ///< is exactly where shared probing helps most.
};

struct scheduler_config {
    std::uint64_t workers = 64;
    std::uint64_t jobs = 4096;
    std::uint64_t tasks_per_job = 4; ///< the paper's k
    /// Probe budget: per *task* for per_task_d_choice, per *job* for the
    /// batch strategies (that asymmetry is the paper's message-cost story).
    std::uint64_t probes = 8;
    double arrival_rate = 1.0;  ///< jobs per unit time (Poisson)
    double mean_service = 1.0;  ///< per task
    service_model service = service_model::exponential;
    double pareto_shape = 2.0;  ///< only used by service_model::pareto
    probe_strategy strategy = probe_strategy::batch_kd_choice;
    std::uint64_t seed = 1;

    /// Offered load per worker: arrival_rate * k * mean_service / workers.
    [[nodiscard]] double utilization() const noexcept;
    void validate() const;
};

struct scheduler_result {
    stats::sample_summary response_time; ///< per job
    stats::sample_summary task_wait;     ///< queueing delay per task
    std::uint64_t probe_messages = 0;    ///< total probes issued
    std::uint64_t tasks_completed = 0;
    double makespan = 0.0;               ///< completion time of the last job
    std::uint64_t max_queue_seen = 0;    ///< max queue length at any assign
};

/// Runs one full simulation (all jobs arrive, all tasks complete).
[[nodiscard]] scheduler_result simulate(const scheduler_config& config);

/// Implementation class, exposed so tests can drive arrivals explicitly.
class cluster_scheduler {
public:
    explicit cluster_scheduler(const scheduler_config& config);

    /// Submits one job at the current simulation time with the given task
    /// service times (size must be tasks_per_job). Returns the job id.
    std::uint64_t submit_job(const std::vector<double>& service_times);

    /// Runs the event loop until all submitted work completes.
    void drain();

    /// Schedules all `config.jobs` Poisson arrivals and drains the system.
    [[nodiscard]] scheduler_result run_to_completion();

    [[nodiscard]] const std::vector<double>& response_times() const noexcept {
        return response_times_;
    }
    [[nodiscard]] std::uint64_t probe_messages() const noexcept {
        return probe_messages_;
    }
    /// Queue lengths right now (in-service task included).
    [[nodiscard]] const core::load_vector& queue_lengths() const noexcept {
        return queue_lengths_;
    }
    [[nodiscard]] kdc::sim::simulator& clock() noexcept { return sim_; }

private:
    struct worker_state {
        std::deque<std::uint64_t> pending; ///< task ids waiting (not serving)
        bool busy = false;
    };
    struct task_state {
        std::uint64_t job = 0;
        double service = 0.0;
        double assigned_at = 0.0;
    };
    struct job_state {
        double arrival = 0.0;
        std::uint64_t remaining = 0;
    };

    void assign_task(std::uint64_t task, std::uint32_t worker);
    void start_service(std::uint64_t task, std::uint32_t worker);
    void complete_task(std::uint64_t task, std::uint32_t worker);
    [[nodiscard]] std::vector<std::uint32_t>
    choose_workers(std::size_t k);
    [[nodiscard]] double draw_service();

    scheduler_config config_;
    kdc::sim::simulator sim_;
    std::vector<worker_state> workers_;
    core::load_vector queue_lengths_;
    std::vector<task_state> tasks_;
    std::vector<job_state> jobs_;
    std::vector<double> response_times_;
    std::vector<double> task_waits_;
    std::uint64_t probe_messages_ = 0;
    std::uint64_t tasks_completed_ = 0;
    std::uint64_t max_queue_seen_ = 0;
    std::vector<std::uint32_t> probe_buffer_;
    // Reused across batch_kd_choice jobs: the scratch's stamp array has one
    // entry per worker, so a fresh one per job would zero-fill it each time.
    core::round_scratch round_scratch_;
    std::vector<core::placed_ball> placed_;
    rng::xoshiro256ss gen_;

    friend scheduler_result simulate(const scheduler_config& config);
};

} // namespace kdc::sched

#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "core/round_kernel.hpp"
#include "rng/sampling.hpp"
#include "rng/uniform.hpp"
#include "support/contracts.hpp"

namespace kdc::sched {

const char* to_string(probe_strategy strategy) noexcept {
    switch (strategy) {
    case probe_strategy::random_worker:
        return "random";
    case probe_strategy::per_task_d_choice:
        return "per-task-d-choice";
    case probe_strategy::batch_kd_choice:
        return "(k,d)-choice";
    case probe_strategy::batch_greedy:
        return "batch-greedy";
    }
    return "unknown";
}

double scheduler_config::utilization() const noexcept {
    return arrival_rate * static_cast<double>(tasks_per_job) * mean_service /
           static_cast<double>(workers);
}

void scheduler_config::validate() const {
    KD_EXPECTS(workers >= 1);
    KD_EXPECTS(tasks_per_job >= 1);
    KD_EXPECTS(probes >= 1);
    KD_EXPECTS(probes <= workers);
    KD_EXPECTS(arrival_rate > 0.0);
    KD_EXPECTS(mean_service > 0.0);
    if (service == service_model::pareto) {
        KD_EXPECTS_MSG(pareto_shape > 1.0,
                       "Pareto service needs shape > 1 for a finite mean");
    }
    if (strategy == probe_strategy::batch_kd_choice ||
        strategy == probe_strategy::batch_greedy) {
        KD_EXPECTS_MSG(probes > tasks_per_job,
                       "batch strategies need d > k probes per job");
    }
}

cluster_scheduler::cluster_scheduler(const scheduler_config& config)
    : config_(config), workers_(config.workers),
      queue_lengths_(config.workers, 0), gen_(config.seed) {
    config_.validate();
}

double cluster_scheduler::draw_service() {
    switch (config_.service) {
    case service_model::deterministic:
        return config_.mean_service;
    case service_model::exponential:
        return rng::exponential(gen_, config_.mean_service);
    case service_model::pareto: {
        // Scale x_min so the mean is mean_service: mean = x_min * s/(s-1).
        const double shape = config_.pareto_shape;
        const double x_min =
            config_.mean_service * (shape - 1.0) / shape;
        return x_min *
               std::pow(1.0 - rng::uniform_double(gen_), -1.0 / shape);
    }
    }
    KD_ASSERT_MSG(false, "unreachable service model");
    return config_.mean_service;
}

std::vector<std::uint32_t> cluster_scheduler::choose_workers(std::size_t k) {
    std::vector<std::uint32_t> chosen;
    chosen.reserve(k);
    const std::uint64_t w = config_.workers;

    switch (config_.strategy) {
    case probe_strategy::random_worker: {
        for (std::size_t i = 0; i < k; ++i) {
            chosen.push_back(
                static_cast<std::uint32_t>(rng::uniform_below(gen_, w)));
        }
        break;
    }
    case probe_strategy::per_task_d_choice: {
        // Each task independently: least loaded of `probes` samples.
        for (std::size_t i = 0; i < k; ++i) {
            std::uint32_t best = 0;
            core::bin_load best_load = 0;
            for (std::uint64_t probe = 0; probe < config_.probes; ++probe) {
                const auto candidate =
                    static_cast<std::uint32_t>(rng::uniform_below(gen_, w));
                ++probe_messages_;
                if (probe == 0 || queue_lengths_[candidate] < best_load) {
                    best = candidate;
                    best_load = queue_lengths_[candidate];
                }
            }
            chosen.push_back(best);
        }
        break;
    }
    case probe_strategy::batch_kd_choice: {
        // One shared probe pool; the k least-loaded slots under the
        // multiplicity rule, exactly the (k,d)-choice round kernel. The
        // kernel increments queue_lengths_, which is correct here: the k
        // tasks will occupy those queue slots.
        probe_buffer_.resize(config_.probes);
        rng::sample_with_replacement(
            gen_, w, std::span<std::uint32_t>(probe_buffer_));
        probe_messages_ += config_.probes;
        placed_.clear();
        core::place_round(queue_lengths_, probe_buffer_, k, gen_,
                          round_scratch_, &placed_);
        // Undo the kernel's increments: assign_task re-applies them so the
        // accounting below stays uniform across strategies.
        for (const auto& ball : placed_) {
            queue_lengths_[ball.bin] -= 1;
            chosen.push_back(ball.bin);
        }
        break;
    }
    case probe_strategy::batch_greedy: {
        probe_buffer_.resize(config_.probes);
        rng::sample_with_replacement(
            gen_, w, std::span<std::uint32_t>(probe_buffer_));
        probe_messages_ += config_.probes;
        std::sort(probe_buffer_.begin(), probe_buffer_.end());
        probe_buffer_.erase(
            std::unique(probe_buffer_.begin(), probe_buffer_.end()),
            probe_buffer_.end());
        for (std::size_t task = 0; task < k; ++task) {
            std::uint32_t best = probe_buffer_.front();
            core::bin_load best_load =
                queue_lengths_[best] +
                static_cast<core::bin_load>(std::count(
                    chosen.begin(), chosen.end(), best));
            for (std::size_t i = 1; i < probe_buffer_.size(); ++i) {
                const auto candidate = probe_buffer_[i];
                const core::bin_load load =
                    queue_lengths_[candidate] +
                    static_cast<core::bin_load>(std::count(
                        chosen.begin(), chosen.end(), candidate));
                if (load < best_load) {
                    best = candidate;
                    best_load = load;
                }
            }
            chosen.push_back(best);
        }
        break;
    }
    }
    KD_ENSURES(chosen.size() == k);
    return chosen;
}

std::uint64_t
cluster_scheduler::submit_job(const std::vector<double>& service_times) {
    KD_EXPECTS(service_times.size() == config_.tasks_per_job);

    const std::uint64_t job_id = jobs_.size();
    jobs_.push_back(job_state{sim_.now(), config_.tasks_per_job});

    const auto chosen = choose_workers(config_.tasks_per_job);
    for (std::size_t i = 0; i < service_times.size(); ++i) {
        const std::uint64_t task_id = tasks_.size();
        tasks_.push_back(task_state{job_id, service_times[i], sim_.now()});
        assign_task(task_id, chosen[i]);
    }
    return job_id;
}

void cluster_scheduler::assign_task(std::uint64_t task, std::uint32_t worker) {
    queue_lengths_[worker] += 1;
    max_queue_seen_ =
        std::max<std::uint64_t>(max_queue_seen_, queue_lengths_[worker]);
    if (!workers_[worker].busy) {
        start_service(task, worker);
    } else {
        workers_[worker].pending.push_back(task);
    }
}

void cluster_scheduler::start_service(std::uint64_t task,
                                      std::uint32_t worker) {
    workers_[worker].busy = true;
    task_waits_.push_back(sim_.now() - tasks_[task].assigned_at);
    sim_.schedule_after(tasks_[task].service,
                        [this, task, worker] { complete_task(task, worker); });
}

void cluster_scheduler::complete_task(std::uint64_t task,
                                      std::uint32_t worker) {
    queue_lengths_[worker] -= 1;
    ++tasks_completed_;

    auto& job = jobs_[tasks_[task].job];
    KD_ASSERT(job.remaining > 0);
    if (--job.remaining == 0) {
        response_times_.push_back(sim_.now() - job.arrival);
    }

    auto& w = workers_[worker];
    if (!w.pending.empty()) {
        const std::uint64_t next = w.pending.front();
        w.pending.pop_front();
        start_service(next, worker);
    } else {
        w.busy = false;
    }
}

void cluster_scheduler::drain() { (void)sim_.run(); }

scheduler_result cluster_scheduler::run_to_completion() {
    // Pre-draw all Poisson arrivals, then let the event loop interleave
    // arrivals with completions.
    double at = 0.0;
    for (std::uint64_t j = 0; j < config_.jobs; ++j) {
        at += rng::exponential(gen_, 1.0 / config_.arrival_rate);
        sim_.schedule_at(at, [this] {
            std::vector<double> services(config_.tasks_per_job);
            for (auto& s : services) {
                s = draw_service();
            }
            (void)submit_job(services);
        });
    }
    drain();

    scheduler_result out;
    out.response_time = stats::summarize(response_times_);
    out.task_wait = stats::summarize(task_waits_);
    out.probe_messages = probe_messages_;
    out.tasks_completed = tasks_completed_;
    out.makespan = sim_.now();
    out.max_queue_seen = max_queue_seen_;
    return out;
}

scheduler_result simulate(const scheduler_config& config) {
    cluster_scheduler scheduler(config);
    return scheduler.run_to_completion();
}

} // namespace kdc::sched

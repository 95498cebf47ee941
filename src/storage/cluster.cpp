#include "storage/cluster.hpp"

#include <algorithm>

#include "core/round_kernel.hpp"
#include "rng/sampling.hpp"
#include "rng/uniform.hpp"

namespace kdc::storage {

const char* to_string(placement_policy policy) noexcept {
    switch (policy) {
    case placement_policy::kd_choice:
        return "(k,d)-choice";
    case placement_policy::per_replica_d_choice:
        return "per-replica-d-choice";
    case placement_policy::random:
        return "random";
    case placement_policy::batch_greedy:
        return "batch-greedy";
    }
    return "unknown";
}

void storage_config::validate() const {
    KD_EXPECTS(servers >= 1);
    KD_EXPECTS(replicas_per_file >= 1);
    KD_EXPECTS(probes >= 1);
    KD_EXPECTS(probes <= servers);
    if (policy == placement_policy::kd_choice ||
        policy == placement_policy::batch_greedy) {
        KD_EXPECTS_MSG(probes > replicas_per_file,
                       "batch policies need d > k candidates per file");
    }
}

storage_cluster::storage_cluster(const storage_config& config)
    : config_(config), loads_(config.servers, 0), gen_(config.seed) {
    config_.validate();
}

void storage_cluster::place_kd_choice(file_placement& out) {
    probe_buffer_.resize(config_.probes);
    rng::sample_with_replacement(gen_, config_.servers,
                                 std::span<std::uint32_t>(probe_buffer_));
    placement_messages_ += config_.probes;
    out.candidates = probe_buffer_;

    placed_.clear();
    core::place_round(loads_, probe_buffer_, config_.replicas_per_file, gen_,
                      round_scratch_, &placed_);
    out.replicas.reserve(placed_.size());
    for (const auto& ball : placed_) {
        out.replicas.push_back(ball.bin);
    }
}

void storage_cluster::place_per_replica(file_placement& out) {
    for (std::uint64_t r = 0; r < config_.replicas_per_file; ++r) {
        std::uint32_t best = 0;
        core::bin_load best_load = 0;
        for (std::uint64_t probe = 0; probe < config_.probes; ++probe) {
            const auto candidate = static_cast<std::uint32_t>(
                rng::uniform_below(gen_, config_.servers));
            ++placement_messages_;
            out.candidates.push_back(candidate);
            if (probe == 0 || loads_[candidate] < best_load) {
                best = candidate;
                best_load = loads_[candidate];
            }
        }
        loads_[best] += 1;
        out.replicas.push_back(best);
    }
}

void storage_cluster::place_random(file_placement& out) {
    for (std::uint64_t r = 0; r < config_.replicas_per_file; ++r) {
        const auto server = static_cast<std::uint32_t>(
            rng::uniform_below(gen_, config_.servers));
        ++placement_messages_; // the write itself still contacts the server
        out.candidates.push_back(server);
        loads_[server] += 1;
        out.replicas.push_back(server);
    }
}

void storage_cluster::place_batch_greedy(file_placement& out) {
    probe_buffer_.resize(config_.probes);
    rng::sample_with_replacement(gen_, config_.servers,
                                 std::span<std::uint32_t>(probe_buffer_));
    placement_messages_ += config_.probes;
    out.candidates = probe_buffer_;

    std::vector<std::uint32_t> distinct = probe_buffer_;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (std::uint64_t r = 0; r < config_.replicas_per_file; ++r) {
        std::uint32_t best = distinct.front();
        for (const auto candidate : distinct) {
            if (loads_[candidate] < loads_[best]) {
                best = candidate;
            }
        }
        loads_[best] += 1;
        out.replicas.push_back(best);
    }
}

std::uint64_t storage_cluster::place_file() {
    file_placement out;
    switch (config_.policy) {
    case placement_policy::kd_choice:
        place_kd_choice(out);
        break;
    case placement_policy::per_replica_d_choice:
        place_per_replica(out);
        break;
    case placement_policy::random:
        place_random(out);
        break;
    case placement_policy::batch_greedy:
        place_batch_greedy(out);
        break;
    }
    KD_ENSURES(out.replicas.size() == config_.replicas_per_file);
    placements_.push_back(std::move(out));
    return placements_.size() - 1;
}

void storage_cluster::place_files(std::uint64_t count) {
    placements_.reserve(placements_.size() + count);
    for (std::uint64_t i = 0; i < count; ++i) {
        (void)place_file();
    }
}

std::uint64_t storage_cluster::search_cost(std::uint64_t file) const {
    KD_EXPECTS(file < placements_.size());
    // The reader re-derives the candidate set (same hash) and probes it.
    return placements_[file].candidates.size();
}

double storage_cluster::estimate_availability(double fail_prob, bool need_all,
                                              std::uint32_t trials,
                                              std::uint64_t seed) const {
    const std::uint64_t min_alive =
        need_all ? config_.replicas_per_file : 1;
    return estimate_availability_erasure(fail_prob, min_alive, trials, seed);
}

double storage_cluster::estimate_availability_erasure(
    double fail_prob, std::uint64_t min_alive, std::uint32_t trials,
    std::uint64_t seed) const {
    KD_EXPECTS(fail_prob >= 0.0 && fail_prob <= 1.0);
    KD_EXPECTS(trials >= 1);
    KD_EXPECTS(min_alive >= 1 && min_alive <= config_.replicas_per_file);
    KD_EXPECTS_MSG(!placements_.empty(), "no files placed yet");

    rng::xoshiro256ss trial_gen(seed);
    std::vector<bool> down(config_.servers, false);
    std::uint64_t available = 0;
    std::uint64_t total = 0;

    for (std::uint32_t t = 0; t < trials; ++t) {
        for (std::uint64_t s = 0; s < config_.servers; ++s) {
            down[s] = rng::bernoulli(trial_gen, fail_prob);
        }
        for (const auto& placement : placements_) {
            std::uint64_t alive = 0;
            for (const auto server : placement.replicas) {
                alive += down[server] ? 0 : 1;
            }
            available += alive >= min_alive ? 1 : 0;
            ++total;
        }
    }
    return static_cast<double>(available) / static_cast<double>(total);
}

} // namespace kdc::storage

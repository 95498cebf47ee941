// Distributed storage placement (Section 1.3 of the paper).
//
// A new file is replicated into k copies (or split into k chunks); the k
// replicas are stored on the k least loaded of d candidate servers chosen at
// random — one (k,d)-choice round per file. The paper's claims, measurable
// here:
//   * with d = k+1 and k = Theta(ln n), (k,d)-choice matches two-choice's
//     max load at roughly *half* of two-choice's message cost;
//   * retrieving all k chunks costs d = k+1 probes (the candidate set),
//     versus 2k for per-chunk two-choice.
//
// The model tracks server loads in replica units (all replicas equal size),
// per-file candidate sets (so search cost is honest: the reader re-derives
// the candidates and probes them), and supports failure injection for
// availability comparisons between replication and chunking.
#pragma once

#include <cstdint>
#include <vector>

#include "core/round_kernel.hpp"
#include "core/types.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::storage {

enum class placement_policy {
    kd_choice,            ///< one (k,d)-choice round per file
    per_replica_d_choice, ///< each replica independently least-of-d
    random,               ///< each replica to a uniform server
    batch_greedy          ///< Section 7 greedy variant over distinct probes
};

[[nodiscard]] const char* to_string(placement_policy policy) noexcept;

struct storage_config {
    std::uint64_t servers = 1024;
    std::uint64_t replicas_per_file = 3; ///< the paper's k
    /// Candidate servers probed: per *file* for kd_choice/batch_greedy, per
    /// *replica* for per_replica_d_choice.
    std::uint64_t probes = 4;
    placement_policy policy = placement_policy::kd_choice;
    std::uint64_t seed = 1;

    void validate() const;
};

/// Where one file ended up.
struct file_placement {
    std::vector<std::uint32_t> replicas;   ///< servers holding a copy/chunk
    std::vector<std::uint32_t> candidates; ///< probed candidate servers
};

class storage_cluster {
public:
    explicit storage_cluster(const storage_config& config);

    /// Places one file; returns its id.
    std::uint64_t place_file();

    /// Places `count` files.
    void place_files(std::uint64_t count);

    [[nodiscard]] const core::load_vector& server_loads() const noexcept {
        return loads_;
    }
    [[nodiscard]] std::uint64_t files_placed() const noexcept {
        return placements_.size();
    }
    /// Probe messages spent on placement so far.
    [[nodiscard]] std::uint64_t placement_messages() const noexcept {
        return placement_messages_;
    }
    [[nodiscard]] const file_placement& placement(std::uint64_t file) const {
        KD_EXPECTS(file < placements_.size());
        return placements_[file];
    }

    /// Messages needed to locate and confirm all k replicas of a file: the
    /// reader probes the file's candidate set. For kd_choice that is d
    /// messages; for per-replica policies it is (per-replica candidates)*k.
    [[nodiscard]] std::uint64_t search_cost(std::uint64_t file) const;

    /// Monte-Carlo availability estimate: each server fails independently
    /// with probability `fail_prob`. If `need_all` (chunking), the file
    /// needs every distinct replica server alive; otherwise (replication)
    /// one alive server suffices. Returns the fraction of (file, trial)
    /// pairs available.
    [[nodiscard]] double estimate_availability(double fail_prob, bool need_all,
                                               std::uint32_t trials,
                                               std::uint64_t seed) const;

    /// Erasure-coded availability: a file with k stored chunks is available
    /// iff at least `min_alive` of them sit on alive servers (an (m, k)
    /// MDS code with m = min_alive data chunks). min_alive = 1 reproduces
    /// replication; min_alive = k reproduces plain chunking.
    [[nodiscard]] double
    estimate_availability_erasure(double fail_prob, std::uint64_t min_alive,
                                  std::uint32_t trials,
                                  std::uint64_t seed) const;

    [[nodiscard]] const storage_config& config() const noexcept {
        return config_;
    }

private:
    void place_kd_choice(file_placement& out);
    void place_per_replica(file_placement& out);
    void place_random(file_placement& out);
    void place_batch_greedy(file_placement& out);

    storage_config config_;
    core::load_vector loads_;
    std::vector<file_placement> placements_;
    std::uint64_t placement_messages_ = 0;
    std::vector<std::uint32_t> probe_buffer_;
    // Reused across kd_choice placements: the scratch's stamp array has one
    // entry per server, so a fresh one per file would zero-fill it each time.
    core::round_scratch round_scratch_;
    std::vector<core::placed_ball> placed_;
    rng::xoshiro256ss gen_;
};

} // namespace kdc::storage

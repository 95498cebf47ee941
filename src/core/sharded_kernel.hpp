// Sharded round-parallel (k,d)-choice kernels: one REPETITION executed as a
// sequence of chunked, shard-partitioned phases, with output byte-identical
// to the serial kernels at every thread count, shard count and
// selection-segment count.
//
// The serial per-bin kernel (core/process.hpp) spends its time on random
// DRAM accesses: every probe reads loads[bin] at an i.u.r. index of an
// array far larger than any cache. The sharded kernel replays the EXACT
// same random tape (probe indices and tie keys, drawn in the serial
// kernel's order) but restructures the memory traffic. Every phase of a
// chunk is parallel:
//
//   pregen   (parallel)  workers pregenerate disjoint contiguous slices of
//                        the chunk's tape. Each worker reconstructs the
//                        serial generator/sampler state at its slice start
//                        with an O(log steps) F2-linear skip-ahead
//                        (rng/xoshiro_skip.hpp) plus block-position
//                        arithmetic on the batched Lemire sampler, then
//                        draws its slice exactly as the serial loop would.
//                        The arithmetic assumes the (astronomically rare)
//                        Lemire rejection never fires; every worker counts
//                        rejections, and one anywhere discards the slices
//                        and replays the chunk's tape serially. Per-shard
//                        slot counts are accumulated per slice as a side
//                        product (the bucket phase's counting pass, fused);
//   bucket   (parallel)  counting-sort the chunk's slots into S contiguous
//                        bin shards, stable so time order survives: prefix
//                        offsets per (slice, shard) are computed serially
//                        from the fused counts, then slices scatter their
//                        slots concurrently into disjoint cursor ranges —
//                        identical bucket bytes to the serial scatter;
//   gather   (parallel)  per shard: gather each slot's chunk-start load
//                        from the shard's bin window — a cache-resident
//                        window instead of random DRAM — and detect
//                        CONFLICTED bins (probed by >= 2 slots) with a
//                        first-slot-seen window array, recording each
//                        conflicted bin's first and last slot index;
//   select   (parallel)  the rounds are dealt into P contiguous SEGMENTS
//                        (selection segments, thread_pool::phase_range).
//                        A conflicted bin whose first and last probes fall
//                        in one segment is LOCAL to it (no other segment
//                        can probe it: segments are contiguous in time);
//                        the rest are CROSS bins. Each segment sweeps its
//                        rounds in order against a private overlay of its
//                        local bins: a round probing only unconflicted or
//                        clean local bins selects and commits exactly like
//                        the serial sweep; a round probing a cross bin or
//                        a tainted local bin is DIRTY — it taints its
//                        local conflicted bins (capturing their value at
//                        taint time) and is deferred. After the parallel
//                        sweep, a serial HAND-OFF replays only the dirty
//                        rounds in global round order against a table
//                        seeded with the cross bins' chunk-start loads and
//                        the tainted bins' captured values — exactly the
//                        live loads the serial sweep would have seen.
//                        P = 1 degenerates to the serial sweep with zero
//                        dirty rounds. Candidate selection itself packs
//                        (height, tie key, probe) into one 128-bit word
//                        (see select_rounds) instead of calling
//                        nth_element on a struct array per round;
//   commit   (parallel)  per shard: commit the kept flags back into the
//                        load vector, again over the shard's window.
//
// Exactness: a non-conflicted bin is probed by exactly one round of the
// chunk, so its load is the chunk-start load for that round's whole
// selection (same-round multiplicity is the occurrence index, as in
// place_round). A conflicted bin's table entry starts at the chunk-start
// load and gains every kept ball in round order — segment-locally for
// clean rounds, via the hand-off for dirty rounds; a dirty round's bins
// are frozen (tainted) from the first dirty touch, so the hand-off replay
// resumes each bin exactly where the clean sweep left it. Commits are +1
// sums, so the commit phase's order is irrelevant. The tape equals the
// serial kernel's tape bit for bit (parallel pregeneration reconstructs
// the serial draw positions exactly, or falls back to drawing serially).
// Hence loads() after every chunk — and therefore after the run — equals
// kd_choice_process::loads() bit for bit, regardless of the shard count,
// segment count or how many pool workers execute the phases.
//
// Exact (height, tie-key) ties are broken by probe index — the round's
// slot number, in the same slot order the serial kernel numbers its slots
// — and the serial kernel breaks them the same way (core/round_kernel.hpp),
// so the two keep the same slot set even when two probes of one round draw
// the same 64-bit tie key.
//
// There is no level-kernel counterpart: every level round draws its probes
// against the exact current load profile, so the rounds are serial by
// construction and the profile has nothing to shard
// (kernel=level with par=round is a cli_error in the scenario grammar).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "rng/sampling.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

class thread_pool;

/// 128-bit scratch type for the multiply-high in shard_layout::shard_of
/// and the packed selection candidates (__extension__ keeps -Wpedantic
/// quiet about the GCC/Clang builtin).
__extension__ using kd_uint128 = unsigned __int128;

/// The cache-topology-derived sizing behind shards=auto: the auto shard
/// count targets `window_bins` bins per shard so that a shard's gather
/// window (4 B load + 4 B first-slot detector per bin) stays resident in
/// the detected L2 data cache. Detection reads sysconf, then
/// /sys/devices/system/cpu; when both fail, `detected` is false and
/// `window_bins` falls back to the historical 32768-bin constant.
struct shard_auto_layout {
    std::uint64_t window_bins = 32768;
    std::uint64_t l2_bytes = 0;
    bool detected = false;
};

/// The process-wide auto-shard sizing, detected once on first use.
[[nodiscard]] const shard_auto_layout& shard_auto_config();

/// Resolves a user-facing shard-count request against n bins: 0 means
/// "auto" (one shard per shard_auto_config().window_bins bins, so a
/// shard's load window stays cache-resident; at least 1, at most 4096),
/// anything else is clamped into [1, min(n, 4096)].
[[nodiscard]] std::uint64_t resolve_shard_count(std::uint64_t n,
                                                std::uint64_t requested);

/// Resolves a selection-segment request (the scenario grammar's selpar=
/// key) for a chunk of `rounds` rounds swept by `workers` cooperating
/// threads: 0 means "auto" — one segment per worker, but never fewer than
/// 64 rounds per segment (the dirty-round hand-off amortizes poorly below
/// that) and serial when there is no second worker to help. An explicit
/// request is clamped into [1, rounds]. The OUTPUT of the sharded kernel
/// is identical for every value (see the file comment); this only picks
/// the parallelism/hand-off trade-off.
[[nodiscard]] std::uint64_t resolve_selection_segments(std::uint64_t rounds,
                                                       std::uint64_t requested,
                                                       std::uint64_t workers);

/// Wall-clock seconds spent in each phase of the sharded per-bin pipeline,
/// accumulated across all chunks of a process's lifetime (steady_clock).
/// `select` covers the parallel segment sweep including its prep;
/// `handoff` is the serial dirty-round replay inside the select phase.
struct sharded_phase_times {
    double pregen = 0;
    double bucket = 0;
    double gather = 0;
    double select = 0;
    double handoff = 0;
    double commit = 0;
};

/// Deterministic partition of [0, n) bins into `shards` contiguous ranges:
/// shard s holds floor(n/S) bins, +1 for the first n mod S shards — the
/// same dealing rule as thread_pool::phase_range, so bin shards, round
/// segments and tape slices all slice identically. O(1) shard_of.
/// Requires 1 <= shards <= n.
class shard_layout {
public:
    shard_layout(std::uint64_t n, std::uint64_t shards)
        : n_(n), shards_(shards), base_(n / shards), extra_(n % shards),
          // ceil(2^64 * S / n) makes floor(bin * mul_ / 2^64) land within
          // one shard of the true owner; shard_of fixes the off-by-one.
          // One division here buys a division-free per-probe hot path.
          // (S == n would need 2^64 itself; saturating keeps the guess
          // within one step, which the fixup loops absorb.)
          mul_(shards >= n
                   ? ~std::uint64_t{0}
                   : static_cast<std::uint64_t>(
                         ((static_cast<kd_uint128>(shards) << 64) +
                          n - 1) /
                         n)) {
        KD_EXPECTS_MSG(shards >= 1 && shards <= n,
                       "shard_layout needs 1 <= shards <= n");
    }

    [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
    [[nodiscard]] std::uint64_t shards() const noexcept { return shards_; }

    /// First bin of shard s.
    [[nodiscard]] std::uint64_t begin(std::uint64_t s) const noexcept {
        return s * base_ + std::min(s, extra_);
    }
    /// One past the last bin of shard s.
    [[nodiscard]] std::uint64_t end(std::uint64_t s) const noexcept {
        return begin(s + 1);
    }
    [[nodiscard]] std::uint64_t size(std::uint64_t s) const noexcept {
        return base_ + (s < extra_ ? 1 : 0);
    }

    /// The shard owning `bin` (inverse of begin/end). Division-free: a
    /// multiply-high guess corrected by at most one begin/end comparison —
    /// this sits on the kernel's per-probe bucketing path.
    [[nodiscard]] std::uint64_t shard_of(std::uint64_t bin) const noexcept {
        std::uint64_t s = static_cast<std::uint64_t>(
            (static_cast<kd_uint128>(bin) * mul_) >> 64);
        while (bin < begin(s)) {
            --s;
        }
        while (bin >= end(s)) {
            ++s;
        }
        return s;
    }

private:
    std::uint64_t n_;
    std::uint64_t shards_;
    std::uint64_t base_;
    std::uint64_t extra_;
    std::uint64_t mul_;
};

/// The (k,d)-choice process on per-bin state, executed by the sharded
/// round-parallel pipeline described at the top of this header. Output is
/// byte-identical to kd_choice_process with the same (n, k, d, seed) in
/// with-replacement probe mode, for every shard count, thread count and
/// selection-segment count.
///
/// use_pool(&pool) runs every phase across the pool's workers; with no
/// pool (the default) every phase runs inline on the calling thread — the
/// chunked, shard-local memory schedule alone beats the serial kernel's
/// random-access walk on large n. Requires 1 <= k < d <= n and
/// d <= 2^31 (slot indices and packed candidates are 32-bit).
class sharded_kd_process {
public:
    /// `shards` as in resolve_shard_count, `selpar` as in
    /// resolve_selection_segments (0 = auto for both).
    sharded_kd_process(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                       std::uint64_t seed, std::uint64_t shards = 0,
                       std::uint64_t selpar = 0);

    /// Starts from an existing load vector (snapshot resume, heavily
    /// loaded starts). balls_placed()/messages() count only
    /// post-construction activity.
    sharded_kd_process(load_vector initial_loads, std::uint64_t k,
                       std::uint64_t d, std::uint64_t seed,
                       std::uint64_t shards = 0, std::uint64_t selpar = 0);

    /// Runs the phases on `pool` (nullptr reverts to inline execution).
    /// The pool is borrowed, not owned; output does not depend on it.
    void use_pool(thread_pool* pool) noexcept { pool_ = pool; }

    /// Places `balls` balls (must be a multiple of k: whole rounds).
    void run_balls(std::uint64_t balls);

    /// Per-bin loads; refreshed from the packed bin state every time
    /// run_balls returns (the kernel keeps the live load in bin_state_).
    [[nodiscard]] const load_vector& loads() const noexcept { return loads_; }
    [[nodiscard]] std::uint64_t balls_placed() const noexcept {
        return balls_placed_;
    }
    [[nodiscard]] std::uint64_t rounds_run() const noexcept {
        return rounds_run_;
    }
    /// Probe messages issued so far: d per round (footnote 1 of the paper).
    [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }

    [[nodiscard]] std::uint64_t n() const noexcept { return loads_.size(); }
    [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
    [[nodiscard]] std::uint64_t d() const noexcept { return d_; }
    [[nodiscard]] std::uint64_t shard_count() const noexcept {
        return layout_.shards();
    }
    /// The selection-segment REQUEST (0 = auto); the effective count is
    /// resolved per chunk via resolve_selection_segments.
    [[nodiscard]] std::uint64_t selection_segments() const noexcept {
        return selpar_;
    }
    [[nodiscard]] const shard_layout& layout() const noexcept {
        return layout_;
    }
    /// Cumulative per-phase wall time (benchmark introspection).
    [[nodiscard]] const sharded_phase_times& phase_times() const noexcept {
        return phase_times_;
    }

private:
    /// Minimal open-addressing map bin -> live load for conflicted bins
    /// (expected |C|^2 / 2n entries for C probes — small). Never rehashes
    /// after rebuild, so value pointers stay stable for a whole chunk.
    struct conflict_table {
        std::vector<std::uint32_t> keys;   // empty_key = no entry
        std::vector<std::uint32_t> vals;
        std::uint64_t mask = 0;
        static constexpr std::uint32_t empty_key = 0xFFFFFFFFu;

        void rebuild(std::size_t entries);
        void insert(std::uint32_t bin, std::uint32_t load);
        /// For bins known to be present (probe chain ends at the key).
        [[nodiscard]] std::uint32_t* find(std::uint32_t bin);
        /// For membership tests: nullptr when `bin` was never inserted.
        [[nodiscard]] std::uint32_t* find_or_null(std::uint32_t bin);
    };

    /// One conflicted bin of the current chunk: its chunk-start load and
    /// the slot indices of its first and last probes — when both fall in
    /// one selection segment the bin is local to it (contiguity: no other
    /// segment's rounds can probe it).
    struct conflict_entry {
        std::uint32_t bin = 0;
        std::uint32_t base = 0;
        std::uint32_t min_slot = 0;
        std::uint32_t max_slot = 0;
    };

    /// Reusable scratch for one tape-pregenerating thread. `samples` is
    /// padded to a SIMD block multiple with an impossible bin index so the
    /// vectorized duplicate scan can read whole blocks.
    struct pregen_scratch {
        std::vector<std::uint32_t> samples;
        std::vector<std::uint32_t> sorted;
        void prepare(std::uint64_t d);
    };

    /// One parallel-pregeneration slice: its reconstructed end state (the
    /// last slice's becomes the authoritative generator/sampler on
    /// success), rejection count, and the tape side products it gathered
    /// (duplicate-round list, fused per-shard slot counts).
    struct pregen_slice {
        rng::xoshiro256ss end_gen{0};
        rng::batched_uniform end_draws{1};
        std::uint64_t rejections = 0;
        std::vector<std::uint32_t> dup_rounds;
        std::vector<std::uint32_t> dup_occ;
        std::vector<std::uint64_t> shard_counts;
        pregen_scratch scratch;
    };

    /// One selection segment's private state: the overlay of its local
    /// conflicted bins (bit 31 of a value marks the bin TAINTED — frozen
    /// for the hand-off), values captured at taint time, deferred dirty
    /// rounds (ascending), and candidate scratch.
    struct segment_state {
        conflict_table table;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> captures;
        std::vector<std::uint32_t> dirty;
        std::vector<kd_uint128> cand;
        std::vector<std::uint32_t*> vals;
    };

    void run_chunk(std::uint64_t rounds);
    void pregenerate(std::uint64_t rounds);
    [[nodiscard]] bool pregenerate_parallel(std::uint64_t rounds);
    void pregen_rounds(std::uint64_t round_begin, std::uint64_t round_end,
                       rng::xoshiro256ss& gen, rng::batched_uniform& draws,
                       std::vector<std::uint32_t>& dup_rounds,
                       std::vector<std::uint32_t>& dup_occ,
                       std::vector<std::uint64_t>& shard_counts,
                       pregen_scratch& scratch);
    void bucket_by_shard(std::uint64_t rounds);
    void gather_shard(std::uint64_t shard);
    void select_rounds(std::uint64_t rounds);
    void sweep_segment(std::uint64_t segment, std::uint64_t round_begin,
                       std::uint64_t round_end);
    void replay_dirty_rounds();
    /// Selects the k lowest packed candidates of `round`, sets kept_ and
    /// (when with_vals) bumps the resolved table entries of kept
    /// conflicted slots.
    void commit_candidates(std::uint64_t round, kd_uint128* cand,
                           std::uint32_t* const* vals, bool with_vals);
    void commit_shard(std::uint64_t shard);
    void for_each_shard_parallel(void (sharded_kd_process::*phase)(
        std::uint64_t));

    load_vector loads_;
    std::uint64_t k_;
    std::uint64_t d_;
    shard_layout layout_;
    std::uint64_t selpar_;
    std::uint64_t balls_placed_ = 0;
    std::uint64_t rounds_run_ = 0;
    std::uint64_t messages_ = 0;
    thread_pool* pool_ = nullptr;

    rng::xoshiro256ss gen_;
    rng::batched_uniform probe_draws_; // bound n, batched — the serial tape

    std::uint64_t max_chunk_rounds_ = 1;
    sharded_phase_times phase_times_;

    // Chunk tape, indexed by slot = round * d + j in construction order.
    // Occurrence indices live in a sparse side table (dup_rounds_ /
    // dup_occ_): a duplicated bin within a round is necessarily
    // conflicted, so the dense per-slot occurrence array the pipeline
    // used to carry was d * 4 bytes of tape traffic for information that
    // is 1 for every slot of every duplicate-free round.
    std::vector<std::uint32_t> slot_bin_;
    std::vector<std::uint64_t> slot_key_;
    /// Chunk-start load per slot; bit 31 flags a conflicted bin.
    std::vector<std::uint32_t> probe_load_;
    std::vector<std::uint8_t> kept_;

    /// Chunk-local round indices (ascending) of rounds with a duplicated
    /// probe, and their d occurrence indices each (slot order).
    std::vector<std::uint32_t> dup_rounds_;
    std::vector<std::uint32_t> dup_occ_;

    // Shard bucketing: (bin << 32 | slot) pairs grouped by shard, in tape
    // (time) order within each shard.
    std::vector<std::uint64_t> bucket_;
    std::vector<std::uint64_t> bucket_start_; // S + 1 prefix offsets
    std::vector<std::uint64_t> shard_counts_;

    // Parallel pregeneration: slice states, the slice count of the current
    // chunk (0 = tape was drawn serially), and the per-(slice, shard)
    // scatter cursors of the parallel bucket phase.
    std::vector<pregen_slice> pregen_slices_;
    std::uint64_t pregen_parts_ = 0;
    std::vector<std::uint64_t> scatter_cursors_;
    pregen_scratch serial_scratch_;

    /// Packed per-bin hot state: the low word is the bin's live load, the
    /// high word the gather pass's conflict detector (slot index of the
    /// bin's first probe this chunk, `slot_unseen`, or — bit 31 set — the
    /// index of the bin's conflict_entry in its shard's list). Packing the
    /// two words one u64 apart makes the gather and commit passes cost ONE
    /// random cache-line touch per probe instead of two; loads_ itself is
    /// only materialized from the low words when run_balls returns. The
    /// detector word is reset to `unseen` by commit_shard (which touches
    /// the same bins), so no chunk-epoch bookkeeping is needed.
    std::vector<std::uint64_t> bin_state_;
    static constexpr std::uint32_t slot_unseen = 0xFFFFFFFFu;
    static constexpr std::uint32_t conflict_marker = 0x80000000u;

    /// Per-shard conflicted-bin lists, partitioned into the selection
    /// segments' private tables (local bins) and cross_list_ (cross bins)
    /// before the segment sweep.
    std::vector<std::vector<conflict_entry>> conflicts_;
    std::vector<segment_state> segments_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cross_list_;
    /// The hand-off table: cross bins + captured tainted bins, replayed
    /// against by the serial dirty-round pass. (With one segment every
    /// conflicted bin is local, so this stays empty.)
    conflict_table handoff_;
    // Hand-off replay scratch.
    std::vector<kd_uint128> replay_cand_;
    std::vector<std::uint32_t*> replay_vals_;
};

} // namespace kdc::core

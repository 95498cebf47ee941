#include "core/sharded_kernel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/fault_injection.hpp"
#include "core/process.hpp"
#include "core/thread_pool.hpp"
#include "rng/xoshiro_skip.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#if defined(KDC_ENABLE_SIMD) && defined(__SSE2__)
#include <emmintrin.h>
#define KDC_SIMD_SSE2 1
#endif

namespace kdc::core {

static_assert(allocation_process<sharded_kd_process>);

namespace {

/// Bit 31 of a gathered chunk-start load flags a conflicted bin (probed by
/// more than one slot this chunk): heights for those slots come from a
/// conflict table instead of the gathered value.
constexpr std::uint32_t conflict_flag = 0x80000000u;

/// Bit 31 of a segment-table VALUE marks the bin tainted: a dirty round
/// touched it, its live value is frozen in the segment's capture list and
/// every later probe of it defers to the hand-off replay. Loads stay below
/// 2^31 (guarded in the gather pass), so the bit is free.
constexpr std::uint32_t taint_flag = 0x80000000u;

/// Software-prefetch distance (bucket entries) for the gather and commit
/// passes: the bucket is read sequentially, so the bin-state line each
/// entry will touch is known this far ahead — enough slack to overlap the
/// random-access miss latency, short enough to stay resident.
constexpr std::uint64_t prefetch_ahead = 16;

/// Chunk sizing: n/128 slots per chunk. Two competing forces — more slots
/// amortize the per-chunk fixed costs, while FEWER slots (a) keep the
/// per-slot arrays (tape, probe loads, kept flags, bucket) L2-resident for
/// the select sweep and (b) shrink the conflict count, which is quadratic
/// in the chunk's probe count (birthday collisions: ~slots^2 / 2n
/// conflicted bins per chunk, so total conflict work across a run scales
/// LINEARLY with the chunk size). n/128 measured fastest on the reference
/// box across d in {2, 4, 16}; the cap keeps the tape a modest,
/// streamable buffer even at huge n. Chunk boundaries never change the
/// output — every chunk replays the same serial tape.
constexpr std::uint64_t max_chunk_slots = std::uint64_t{1} << 23;

std::uint64_t resolve_chunk_rounds(std::uint64_t n, std::uint64_t d) {
    const std::uint64_t target =
        std::clamp<std::uint64_t>(n / 128, d, max_chunk_slots);
    return std::max<std::uint64_t>(1, target / d);
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// L2 data-cache size in bytes, or 0 when the platform offers no answer.
/// sysconf first (glibc fills it from the same sysfs), then a direct scan
/// of cpu0's cache indices for a level-2 non-instruction entry.
std::uint64_t detect_l2_bytes() {
#if defined(__unix__) || defined(__APPLE__)
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long via_sysconf = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (via_sysconf > 0) {
        return static_cast<std::uint64_t>(via_sysconf);
    }
#endif
    for (int index = 0; index < 16; ++index) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                                std::to_string(index) + "/";
        std::ifstream level_file(dir + "level");
        int level = 0;
        if (!(level_file >> level)) {
            break; // indices are contiguous: no more caches to inspect
        }
        if (level != 2) {
            continue;
        }
        std::string type;
        std::ifstream type_file(dir + "type");
        type_file >> type;
        if (type == "Instruction") {
            continue;
        }
        std::string size;
        std::ifstream size_file(dir + "size");
        if (!(size_file >> size) || size.empty()) {
            continue;
        }
        std::uint64_t multiplier = 1;
        const char suffix = size.back();
        if (suffix == 'K') {
            multiplier = 1024;
        } else if (suffix == 'M') {
            multiplier = 1024 * 1024;
        }
        const std::uint64_t value =
            std::strtoull(size.c_str(), nullptr, 10);
        if (value != 0) {
            return value * multiplier;
        }
    }
#endif
    return 0;
}

/// True when any of the d sampled bins repeats within the round. `samples`
/// is padded to a multiple of 4 with 0xFFFFFFFF (an impossible bin index:
/// n < 2^32 - 1 is a constructor contract), so the vectorized path may
/// read whole 4-lane blocks.
bool round_has_duplicates(const std::uint32_t* samples, std::uint64_t d,
                          std::uint64_t padded,
                          std::vector<std::uint32_t>& sorted) {
    if (d < 2) {
        return false;
    }
#if defined(KDC_SIMD_SSE2)
    if (d >= 8 && d <= 64) {
        // All-pairs equality count: every element matches itself exactly
        // once, so the total match count equals d iff the d samples are
        // distinct. Broadcast-vs-block keeps the inner loop branch-free;
        // the padding lanes are never broadcast and match nothing.
        int matches = 0;
        for (std::uint64_t i = 0; i < d; ++i) {
            const __m128i broadcast =
                _mm_set1_epi32(static_cast<int>(samples[i]));
            for (std::uint64_t block = 0; block < padded; block += 4) {
                const __m128i eq = _mm_cmpeq_epi32(
                    broadcast, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                   samples + block)));
                matches += std::popcount(static_cast<unsigned>(
                    _mm_movemask_ps(_mm_castsi128_ps(eq))));
            }
        }
        return matches != static_cast<int>(d);
    }
#else
    (void)padded;
#endif
    if (d <= 64) {
        bool duplicate = false;
        for (std::uint64_t i = 0; i + 1 < d; ++i) {
            for (std::uint64_t j = i + 1; j < d; ++j) {
                duplicate |= samples[i] == samples[j];
            }
        }
        return duplicate;
    }
    // Large d: a sort beats the O(d^2) scan (and the duplicate branch will
    // re-sort anyway — duplicates are near-certain at d > sqrt(n)).
    sorted.assign(samples, samples + d);
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// True when any gathered load in p[0..d) carries the conflict flag
/// (bit 31 — the sign bit, which movemask extracts directly).
bool any_conflict(const std::uint32_t* p, std::uint64_t d) {
#if defined(KDC_SIMD_SSE2)
    if (d >= 4) {
        __m128i acc = _mm_setzero_si128();
        std::uint64_t i = 0;
        for (; i + 4 <= d; i += 4) {
            acc = _mm_or_si128(
                acc, _mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(p + i)));
        }
        auto any = static_cast<std::uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(acc)));
        for (; i < d; ++i) {
            any |= p[i] >> 31;
        }
        return any != 0;
    }
#endif
    std::uint32_t folded = 0;
    for (std::uint64_t i = 0; i < d; ++i) {
        folded |= p[i];
    }
    return (folded & conflict_flag) != 0;
}

/// Packs one candidate slot for the 128-bit selection: lexicographic
/// integer order on the packed word is exactly (height, tie key, probe
/// index) order, so a plain `<` on kd_uint128 replaces the struct
/// comparator, and the low 32 bits recover the probe index of a winner.
kd_uint128 pack_candidate(std::uint64_t height, std::uint64_t tie_key,
                          std::uint64_t probe) noexcept {
    return (static_cast<kd_uint128>(height) << 96) |
           (static_cast<kd_uint128>(tie_key) << 32) | probe;
}

} // namespace

const shard_auto_layout& shard_auto_config() {
    static const shard_auto_layout config = [] {
        shard_auto_layout out;
        const std::uint64_t l2 = detect_l2_bytes();
        if (l2 != 0) {
            out.l2_bytes = l2;
            out.detected = true;
            // 16 B of L2 budget per window bin: the gather window itself
            // is 8 B/bin (load + first-slot detector); the rest absorbs
            // the streamed bucket and tape lines sharing the cache.
            out.window_bins = std::clamp<std::uint64_t>(
                l2 / 16, 32768, std::uint64_t{1} << 20);
        }
        return out;
    }();
    return config;
}

std::uint64_t resolve_shard_count(std::uint64_t n, std::uint64_t requested) {
    KD_EXPECTS_MSG(n >= 1, "need at least one bin");
    // One shard per window_bins keeps a shard's load window L2-resident;
    // the 4096 cap bounds the bucketing tables at any n.
    const std::uint64_t cap = std::min<std::uint64_t>(n, 4096);
    const std::uint64_t want =
        requested == 0 ? n / shard_auto_config().window_bins : requested;
    return std::clamp<std::uint64_t>(want, 1, cap);
}

std::uint64_t resolve_selection_segments(std::uint64_t rounds,
                                         std::uint64_t requested,
                                         std::uint64_t workers) {
    if (rounds == 0) {
        return 1;
    }
    if (requested != 0) {
        return std::clamp<std::uint64_t>(requested, 1, rounds);
    }
    if (workers < 2) {
        return 1; // no second thread: segmentation is pure overhead
    }
    const std::uint64_t by_rounds =
        std::max<std::uint64_t>(1, rounds / 64);
    return std::clamp<std::uint64_t>(std::min(workers, by_rounds), 1,
                                     rounds);
}

// ---------------------------------------------------------------------------
// sharded_kd_process
// ---------------------------------------------------------------------------

sharded_kd_process::sharded_kd_process(std::uint64_t n, std::uint64_t k,
                                       std::uint64_t d, std::uint64_t seed,
                                       std::uint64_t shards,
                                       std::uint64_t selpar)
    : sharded_kd_process(load_vector(n, 0), k, d, seed, shards, selpar) {}

sharded_kd_process::sharded_kd_process(load_vector initial_loads,
                                       std::uint64_t k, std::uint64_t d,
                                       std::uint64_t seed,
                                       std::uint64_t shards,
                                       std::uint64_t selpar)
    : loads_(std::move(initial_loads)), k_(k), d_(d),
      layout_(loads_.size(), resolve_shard_count(loads_.size(), shards)),
      selpar_(selpar), gen_(seed), probe_draws_(loads_.size()) {
    KD_EXPECTS_MSG(k >= 1, "k must be positive");
    KD_EXPECTS_MSG(k < d, "(k,d)-choice requires k < d");
    KD_EXPECTS_MSG(d <= loads_.size(), "cannot probe more bins than exist");
    KD_EXPECTS_MSG(loads_.size() < 0xFFFFFFFFull,
                   "bins are 32-bit indices (one value reserved)");
    KD_EXPECTS_MSG(d <= (std::uint64_t{1} << 31),
                   "slot indices and packed candidates are 32-bit");
    max_chunk_rounds_ = resolve_chunk_rounds(loads_.size(), d_);
    bin_state_.resize(loads_.size());
    for (std::size_t bin = 0; bin < loads_.size(); ++bin) {
        KD_EXPECTS_MSG(loads_[bin] < conflict_flag,
                       "bin load exceeds 2^31 - 1");
        bin_state_[bin] = (std::uint64_t{slot_unseen} << 32) | loads_[bin];
    }
    const std::uint64_t shard_count = layout_.shards();
    conflicts_.resize(shard_count);
    shard_counts_.resize(shard_count);
    bucket_start_.resize(shard_count + 1);
}

void sharded_kd_process::run_balls(std::uint64_t balls) {
    KD_EXPECTS_MSG(balls % k_ == 0,
                   "balls must be a multiple of k (whole rounds)");
    std::uint64_t rounds = balls / k_;
    while (rounds > 0) {
        const std::uint64_t take = std::min(rounds, max_chunk_rounds_);
        run_chunk(take);
        rounds -= take;
    }
    // The chunks keep the live load packed in bin_state_; refresh the
    // public load vector in one sequential sweep.
    for (std::size_t bin = 0; bin < loads_.size(); ++bin) {
        loads_[bin] = static_cast<std::uint32_t>(bin_state_[bin]);
    }
}

void sharded_kd_process::run_chunk(std::uint64_t rounds) {
    using clock = std::chrono::steady_clock;
    const std::uint64_t slots = rounds * d_;
    slot_bin_.resize(slots);
    slot_key_.resize(slots);
    probe_load_.resize(slots);
    kept_.assign(slots, 0);
    bucket_.resize(slots);

    const auto t0 = clock::now();
    fault_point(fault_site::shard_pregen);
    pregenerate(rounds);
    const auto t1 = clock::now();
    fault_point(fault_site::shard_bucket);
    bucket_by_shard(rounds);
    const auto t2 = clock::now();
    fault_point(fault_site::shard_gather);
    for_each_shard_parallel(&sharded_kd_process::gather_shard);
    const auto t3 = clock::now();
    select_rounds(rounds); // accounts its own select/handoff split
    const auto t4 = clock::now();
    fault_point(fault_site::shard_commit);
    for_each_shard_parallel(&sharded_kd_process::commit_shard);
    const auto t5 = clock::now();
    phase_times_.pregen += seconds_between(t0, t1);
    phase_times_.bucket += seconds_between(t1, t2);
    phase_times_.gather += seconds_between(t2, t3);
    phase_times_.commit += seconds_between(t4, t5);

    balls_placed_ += k_ * rounds;
    rounds_run_ += rounds;
    messages_ += d_ * rounds;
}

// --- pregen ----------------------------------------------------------------

void sharded_kd_process::pregen_scratch::prepare(std::uint64_t d) {
    // Pad to a whole 4-lane block with an impossible bin index so the SIMD
    // duplicate scan can read full blocks; rounds only overwrite the first
    // d lanes, so the padding survives.
    const auto padded = static_cast<std::size_t>((d + 3) & ~std::uint64_t{3});
    if (samples.size() != padded) {
        samples.assign(padded, 0xFFFFFFFFu);
    }
}

void sharded_kd_process::pregen_rounds(
    std::uint64_t round_begin, std::uint64_t round_end,
    rng::xoshiro256ss& gen, rng::batched_uniform& draws,
    std::vector<std::uint32_t>& dup_rounds,
    std::vector<std::uint32_t>& dup_occ,
    std::vector<std::uint64_t>& shard_counts, pregen_scratch& scratch) {
    // Replays kd_choice_process's RNG call order exactly: per round, d
    // batched probe draws, then one direct generator word per slot for the
    // tie key — probe order when the d samples are distinct, sorted-group
    // order (occurrence heights) when any duplicate exists, as in
    // place_round. Duplicates are detected sample-locally (this phase must
    // not touch per-bin state); the boolean agrees with the serial
    // kernel's stamp test, and the generator is only consumed by the key
    // draws, so the tape is bit-identical to the serial kernel's.
    //
    // Occurrence indices are recorded ONLY for duplicate rounds (the side
    // table dup_rounds/dup_occ): a bin duplicated within a round owns >= 2
    // slots of the chunk, so it is necessarily conflicted and every other
    // slot's occurrence is 1. Per-shard slot counts accumulate here too —
    // the bucket phase's counting pass, fused into the sampling loop.
    scratch.prepare(d_);
    std::uint32_t* samples = scratch.samples.data();
    const std::uint64_t padded = scratch.samples.size();
    std::uint64_t pos = round_begin * d_;
    for (std::uint64_t round = round_begin; round < round_end; ++round) {
        for (std::uint64_t j = 0; j < d_; ++j) {
            samples[j] = static_cast<std::uint32_t>(draws.next(gen));
        }
        if (!round_has_duplicates(samples, d_, padded, scratch.sorted)) {
            for (std::uint64_t j = 0; j < d_; ++j) {
                const std::uint32_t bin = samples[j];
                slot_bin_[pos] = bin;
                slot_key_[pos] = static_cast<std::uint64_t>(gen());
                ++shard_counts[layout_.shard_of(bin)];
                ++pos;
            }
        } else {
            dup_rounds.push_back(static_cast<std::uint32_t>(round));
            scratch.sorted.assign(samples, samples + d_);
            std::sort(scratch.sorted.begin(), scratch.sorted.end());
            for (std::size_t i = 0; i < scratch.sorted.size();) {
                const std::uint32_t bin = scratch.sorted[i];
                std::uint32_t occurrence = 0;
                for (; i < scratch.sorted.size() && scratch.sorted[i] == bin;
                     ++i) {
                    ++occurrence;
                    slot_bin_[pos] = bin;
                    slot_key_[pos] = static_cast<std::uint64_t>(gen());
                    dup_occ.push_back(occurrence);
                    ++shard_counts[layout_.shard_of(bin)];
                    ++pos;
                }
            }
        }
    }
}

void sharded_kd_process::pregenerate(std::uint64_t rounds) {
    dup_rounds_.clear();
    dup_occ_.clear();
    std::fill(shard_counts_.begin(), shard_counts_.end(), 0);
    pregen_parts_ = 0;
    if (pool_ != nullptr && pool_->size() >= 2 && rounds >= 2) {
        if (pregenerate_parallel(rounds)) {
            return;
        }
        // A Lemire rejection fired somewhere in the stream: the slice
        // position arithmetic is off past that point. gen_/probe_draws_
        // were never touched (the slices worked on copies), so redraw the
        // whole chunk serially — the correct-by-construction path.
        dup_rounds_.clear();
        dup_occ_.clear();
        std::fill(shard_counts_.begin(), shard_counts_.end(), 0);
    }
    pregen_rounds(0, rounds, gen_, probe_draws_, dup_rounds_, dup_occ_,
                  shard_counts_, serial_scratch_);
}

bool sharded_kd_process::pregenerate_parallel(std::uint64_t rounds) {
    // Each worker reconstructs the exact serial generator/sampler state at
    // its slice's first round and then draws its slice exactly as the
    // serial loop would. Positions are pure arithmetic because, absent
    // Lemire rejections, one round consumes exactly d sampler words and d
    // direct key words, and the sampler refills in fixed blocks; the
    // xoshiro skip-ahead (F2-linear) jumps the generator to any call
    // index. Rejections (probability < n/2^64 per draw) are counted by
    // every worker; the first one in the stream is always observed by the
    // slice that contains it (every earlier position is exact), and any
    // observation discards the chunk in favor of the serial redraw.
    const std::uint64_t parts = std::min<std::uint64_t>(pool_->size(), rounds);
    if (parts < 2) {
        return false;
    }
    const rng::xoshiro256ss start_gen = gen_;
    const rng::batched_uniform start_draws = probe_draws_;
    const std::uint64_t avail0 = start_draws.buffered();
    constexpr std::uint64_t block = rng::batched_uniform::block_size;
    pregen_slices_.resize(parts);
    for (auto& slice : pregen_slices_) {
        slice.dup_rounds.clear();
        slice.dup_occ.clear();
        slice.shard_counts.assign(layout_.shards(), 0);
        slice.rejections = 0;
    }
    pool_->run_ranges(
        rounds, parts,
        [&](std::size_t part, std::uint64_t round_begin,
            std::uint64_t round_end) {
            auto& slice = pregen_slices_[part];
            const std::uint64_t probes = round_begin * d_; // sampler words
            const std::uint64_t keys = round_begin * d_;   // direct words
            rng::xoshiro256ss gen(0);
            rng::batched_uniform draws(1);
            if (probes <= avail0) {
                // Still inside the chunk-start buffer: no refill happened
                // before this slice, the generator has only served keys.
                gen = rng::xoshiro_skip(start_gen, keys);
                draws = start_draws;
                draws.drop(probes);
            } else {
                const std::uint64_t past = probes - avail0;
                const std::uint64_t refills = (past + block - 1) / block;
                const std::uint64_t rem = past - (refills - 1) * block;
                if (rem == block) {
                    // The last refill block is exactly exhausted: the next
                    // draw refills, matching a freshly built sampler.
                    gen = rng::xoshiro_skip(start_gen, keys + refills * block);
                    draws = rng::batched_uniform(loads_.size());
                } else {
                    // Refill #refills is in flight: it fired at draw index
                    // q0 inside round rq, when the generator had served
                    // rq*d keys plus the refills-1 earlier blocks. Rebuild
                    // that block, consume rem of it, then skip the keys of
                    // rounds rq..round_begin-1 that interleaved after it.
                    const std::uint64_t q0 = avail0 + (refills - 1) * block;
                    const std::uint64_t rq = q0 / d_;
                    gen = rng::xoshiro_skip(start_gen,
                                            rq * d_ + (refills - 1) * block);
                    draws = rng::batched_uniform(loads_.size());
                    draws.refill(gen);
                    draws.drop(rem);
                    gen = rng::xoshiro_skip(gen, (round_begin - rq) * d_);
                }
            }
            const std::uint64_t seen = draws.rejections();
            pregen_rounds(round_begin, round_end, gen, draws,
                          slice.dup_rounds, slice.dup_occ,
                          slice.shard_counts, slice.scratch);
            slice.rejections = draws.rejections() - seen;
            slice.end_gen = gen;
            slice.end_draws = draws;
        });
    std::uint64_t rejections = 0;
    for (const auto& slice : pregen_slices_) {
        rejections += slice.rejections;
    }
    if (rejections != 0) {
        return false;
    }
    // The last slice's end state IS the serial end state; adopt it and
    // merge the side products (slices are time-contiguous and ascending,
    // so concatenation preserves the serial duplicate-round order).
    gen_ = pregen_slices_[parts - 1].end_gen;
    probe_draws_ = pregen_slices_[parts - 1].end_draws;
    for (const auto& slice : pregen_slices_) {
        dup_rounds_.insert(dup_rounds_.end(), slice.dup_rounds.begin(),
                           slice.dup_rounds.end());
        dup_occ_.insert(dup_occ_.end(), slice.dup_occ.begin(),
                        slice.dup_occ.end());
        for (std::uint64_t s = 0; s < layout_.shards(); ++s) {
            shard_counts_[s] += slice.shard_counts[s];
        }
    }
    pregen_parts_ = parts;
    return true;
}

// --- bucket ----------------------------------------------------------------

void sharded_kd_process::bucket_by_shard(std::uint64_t rounds) {
    // Stable counting sort of the chunk's slots by owning shard; the pair
    // encoding (bin << 32 | slot) lets gather_shard see bin and time order
    // together. The counting pass already ran fused into pregen; only the
    // prefix sums and the scatter remain.
    const std::uint64_t slots = rounds * d_;
    const std::uint64_t shard_count = layout_.shards();
    bucket_start_[0] = 0;
    for (std::uint64_t s = 0; s < shard_count; ++s) {
        bucket_start_[s + 1] = bucket_start_[s] + shard_counts_[s];
    }
    if (pregen_parts_ >= 2) {
        // Parallel scatter over the SAME slices as the pregen phase: each
        // (slice, shard) pair owns a disjoint cursor range computed from
        // the per-slice counts, and slices are time-contiguous, so the
        // bucket bytes equal the serial stable scatter's exactly.
        scatter_cursors_.resize(pregen_parts_ * shard_count);
        for (std::uint64_t s = 0; s < shard_count; ++s) {
            std::uint64_t run = bucket_start_[s];
            for (std::uint64_t w = 0; w < pregen_parts_; ++w) {
                scatter_cursors_[w * shard_count + s] = run;
                run += pregen_slices_[w].shard_counts[s];
            }
        }
        pool_->run_ranges(
            rounds, pregen_parts_,
            [this, shard_count](std::size_t part, std::uint64_t round_begin,
                                std::uint64_t round_end) {
                std::uint64_t* cursors =
                    scatter_cursors_.data() + part * shard_count;
                for (std::uint64_t idx = round_begin * d_;
                     idx < round_end * d_; ++idx) {
                    const std::uint32_t bin = slot_bin_[idx];
                    bucket_[cursors[layout_.shard_of(bin)]++] =
                        (static_cast<std::uint64_t>(bin) << 32) | idx;
                }
            });
    } else {
        std::copy(bucket_start_.begin(), bucket_start_.end() - 1,
                  shard_counts_.begin()); // reuse as write cursors
        for (std::uint64_t idx = 0; idx < slots; ++idx) {
            const std::uint32_t bin = slot_bin_[idx];
            const std::uint64_t s = layout_.shard_of(bin);
            bucket_[shard_counts_[s]++] =
                (static_cast<std::uint64_t>(bin) << 32) | idx;
        }
    }
}

// --- gather ----------------------------------------------------------------

void sharded_kd_process::gather_shard(std::uint64_t shard) {
    // Everything this phase touches is shard-local: the bucket slice, the
    // shard's stripe of bin_state_, its conflict list — plus scattered
    // writes into probe_load_ (stores overlap; the latency-bound random
    // READS of the serial kernel are what this pipeline removes). The
    // packed bin state serves the load and the conflict detector from ONE
    // random cache-line touch per probe. Conflict detection is one linear
    // pass over the slice: a bin's first probe parks its slot index in
    // the detector word; a second probe upgrades both to conflicted and
    // records the bin once, parking the entry index instead so later
    // probes can extend the bin's [min_slot, max_slot] span (which
    // decides segment locality in the select phase).
    auto& list = conflicts_[shard];
    list.clear();
    const std::uint64_t end = bucket_start_[shard + 1];
    for (std::uint64_t pos = bucket_start_[shard]; pos < end; ++pos) {
        if (pos + prefetch_ahead < end) {
            __builtin_prefetch(
                &bin_state_[static_cast<std::uint32_t>(
                    bucket_[pos + prefetch_ahead] >> 32)],
                1);
        }
        const std::uint64_t pair = bucket_[pos];
        const auto bin = static_cast<std::uint32_t>(pair >> 32);
        const auto idx = static_cast<std::uint32_t>(pair);
        const std::uint64_t state = bin_state_[bin];
        const auto base = static_cast<std::uint32_t>(state);
        KD_EXPECTS_MSG(base < conflict_flag, "bin load exceeds 2^31 - 1");
        const auto seen = static_cast<std::uint32_t>(state >> 32);
        if (seen == slot_unseen) {
            bin_state_[bin] = (std::uint64_t{idx} << 32) | base;
            probe_load_[idx] = base;
        } else if ((seen & conflict_marker) == 0) {
            probe_load_[seen] |= conflict_flag;
            probe_load_[idx] = base | conflict_flag;
            bin_state_[bin] =
                (std::uint64_t{conflict_marker |
                               static_cast<std::uint32_t>(list.size())}
                 << 32) |
                base;
            list.push_back(conflict_entry{bin, base, seen, idx});
        } else {
            probe_load_[idx] = base | conflict_flag;
            list[seen & ~conflict_marker].max_slot = idx;
        }
    }
}

// --- select ----------------------------------------------------------------

void sharded_kd_process::select_rounds(std::uint64_t rounds) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    fault_point(fault_site::shard_select);
    const std::uint64_t workers = pool_ != nullptr ? pool_->size() : 1;
    const std::uint64_t parts =
        resolve_selection_segments(rounds, selpar_, workers);

    if (parts == 1) {
        // One segment owning every conflicted bin: the sweep is the plain
        // serial round order and nothing can be dirty.
        std::size_t conflicted = 0;
        for (const auto& list : conflicts_) {
            conflicted += list.size();
        }
        segments_.resize(1);
        auto& seg = segments_[0];
        seg.table.rebuild(conflicted);
        for (const auto& list : conflicts_) {
            for (const auto& entry : list) {
                seg.table.insert(entry.bin, entry.base);
            }
        }
        seg.captures.clear();
        seg.dirty.clear();
        sweep_segment(0, 0, rounds);
        phase_times_.select += seconds_between(t0, clock::now());
        return;
    }

    // Partition the conflicted bins: a bin whose first and last probes
    // fall inside one segment's rounds is LOCAL to it (contiguity — see
    // the file comment), anything else is CROSS and goes straight to the
    // hand-off table at its chunk-start load.
    const shard_layout seg_layout(rounds, parts);
    segments_.resize(parts);
    cross_list_.clear();
    std::vector<std::uint64_t> local_counts(parts, 0);
    for (const auto& list : conflicts_) {
        for (const auto& entry : list) {
            const std::uint64_t seg_min =
                seg_layout.shard_of(entry.min_slot / d_);
            const std::uint64_t seg_max =
                seg_layout.shard_of(entry.max_slot / d_);
            if (seg_min == seg_max) {
                ++local_counts[seg_min];
            } else {
                cross_list_.emplace_back(entry.bin, entry.base);
            }
        }
    }
    for (std::uint64_t s = 0; s < parts; ++s) {
        segments_[s].table.rebuild(local_counts[s]);
        segments_[s].captures.clear();
        segments_[s].dirty.clear();
    }
    for (const auto& list : conflicts_) {
        for (const auto& entry : list) {
            const std::uint64_t seg_min =
                seg_layout.shard_of(entry.min_slot / d_);
            const std::uint64_t seg_max =
                seg_layout.shard_of(entry.max_slot / d_);
            if (seg_min == seg_max) {
                segments_[seg_min].table.insert(entry.bin, entry.base);
            }
        }
    }

    if (pool_ != nullptr) {
        pool_->run_ranges(rounds, parts,
                          [this](std::size_t segment,
                                 std::uint64_t round_begin,
                                 std::uint64_t round_end) {
                              sweep_segment(segment, round_begin, round_end);
                          });
    } else {
        for (std::uint64_t s = 0; s < parts; ++s) {
            const auto [round_begin, round_end] =
                thread_pool::phase_range(rounds, parts, s);
            sweep_segment(s, round_begin, round_end);
        }
    }

    const auto t_handoff = clock::now();
    fault_point(fault_site::shard_handoff);
    std::size_t entries = cross_list_.size();
    for (const auto& seg : segments_) {
        entries += seg.captures.size();
    }
    handoff_.rebuild(entries);
    for (const auto& [bin, base] : cross_list_) {
        handoff_.insert(bin, base);
    }
    for (const auto& seg : segments_) {
        for (const auto& [bin, value] : seg.captures) {
            handoff_.insert(bin, value);
        }
    }
    replay_dirty_rounds();
    const auto t_end = clock::now();
    phase_times_.select += seconds_between(t0, t_handoff);
    phase_times_.handoff += seconds_between(t_handoff, t_end);
}

void sharded_kd_process::sweep_segment(std::uint64_t segment,
                                       std::uint64_t round_begin,
                                       std::uint64_t round_end) {
    // One segment's in-order sweep. A round is CLEAN when every conflicted
    // bin it probes is local to this segment and untainted: it selects and
    // commits against the segment's private table exactly as the serial
    // sweep would (no other segment's rounds touch those bins). A DIRTY
    // round — one probing a cross bin (table miss) or a tainted local bin
    // — commits nothing; it taints every local conflicted bin it probes,
    // capturing the bin's current value (= chunk-start + all commits of
    // this segment's earlier clean rounds) for the hand-off table, and is
    // deferred to the serial replay in global round order.
    auto& seg = segments_[segment];
    if (seg.cand.size() < d_) {
        seg.cand.resize(d_);
        seg.vals.resize(d_);
    }
    kd_uint128* cand = seg.cand.data();
    std::uint32_t** vals = seg.vals.data();
    std::size_t dup_cursor = static_cast<std::size_t>(
        std::lower_bound(dup_rounds_.begin(), dup_rounds_.end(),
                         static_cast<std::uint32_t>(round_begin)) -
        dup_rounds_.begin());
    for (std::uint64_t round = round_begin; round < round_end; ++round) {
        const std::uint64_t first = round * d_;
        const std::uint32_t* gathered = probe_load_.data() + first;
        const std::uint32_t* occs = nullptr;
        if (dup_cursor < dup_rounds_.size() &&
            dup_rounds_[dup_cursor] == round) {
            occs = dup_occ_.data() + dup_cursor * d_;
            ++dup_cursor;
        }
        if (!any_conflict(gathered, d_)) {
            // A duplicated bin is always conflicted, so every occurrence
            // here is 1 and the candidates need no table at all.
            if (k_ == 1) {
                // Min scan on (height, tie key) directly — no 128-bit
                // packing; ascending j keeps the first of a full tie,
                // matching the packed order.
                std::uint64_t best_h = gathered[0];
                std::uint64_t best_key = slot_key_[first];
                std::uint64_t best_j = 0;
                for (std::uint64_t j = 1; j < d_; ++j) {
                    const std::uint64_t h = gathered[j];
                    const std::uint64_t key = slot_key_[first + j];
                    if (h < best_h || (h == best_h && key < best_key)) {
                        best_h = h;
                        best_key = key;
                        best_j = j;
                    }
                }
                kept_[first + best_j] = 1;
                continue;
            }
            for (std::uint64_t j = 0; j < d_; ++j) {
                cand[j] = pack_candidate(gathered[j] + std::uint64_t{1},
                                         slot_key_[first + j], j);
            }
            commit_candidates(round, cand, nullptr, false);
            continue;
        }
        bool dirty = false;
        for (std::uint64_t j = 0; j < d_; ++j) {
            const std::uint32_t g = gathered[j];
            std::uint64_t height = 0;
            if ((g & conflict_flag) != 0) {
                std::uint32_t* live =
                    seg.table.find_or_null(slot_bin_[first + j]);
                vals[j] = live;
                if (live == nullptr || (*live & taint_flag) != 0) {
                    dirty = true; // keep scanning: vals[] feeds the taint
                } else {
                    height = *live + (occs != nullptr ? occs[j] : 1);
                }
            } else {
                vals[j] = nullptr;
                height = g + (occs != nullptr ? occs[j] : 1);
            }
            cand[j] = pack_candidate(height, slot_key_[first + j], j);
        }
        if (dirty) {
            for (std::uint64_t j = 0; j < d_; ++j) {
                std::uint32_t* live =
                    (gathered[j] & conflict_flag) != 0 ? vals[j] : nullptr;
                if (live != nullptr && (*live & taint_flag) == 0) {
                    seg.captures.emplace_back(slot_bin_[first + j], *live);
                    *live |= taint_flag;
                }
            }
            seg.dirty.push_back(static_cast<std::uint32_t>(round));
            continue;
        }
        commit_candidates(round, cand, vals, true);
    }
}

void sharded_kd_process::replay_dirty_rounds() {
    // Serial hand-off: the deferred rounds in GLOBAL round order (segments
    // are contiguous and ascending, each dirty list is ascending). Every
    // conflicted bin a dirty round probes is in the hand-off table — cross
    // bins by construction, local bins because the round that went dirty
    // tainted (and thus captured) them.
    if (replay_cand_.size() < d_) {
        replay_cand_.resize(d_);
        replay_vals_.resize(d_);
    }
    for (const auto& seg : segments_) {
        for (const std::uint32_t round : seg.dirty) {
            const std::uint64_t first = std::uint64_t{round} * d_;
            const std::uint32_t* occs = nullptr;
            const auto it = std::lower_bound(dup_rounds_.begin(),
                                             dup_rounds_.end(), round);
            if (it != dup_rounds_.end() && *it == round) {
                occs = dup_occ_.data() +
                       static_cast<std::size_t>(it - dup_rounds_.begin()) *
                           d_;
            }
            for (std::uint64_t j = 0; j < d_; ++j) {
                const std::uint32_t g = probe_load_[first + j];
                std::uint64_t height = 0;
                if ((g & conflict_flag) != 0) {
                    std::uint32_t* live = handoff_.find(slot_bin_[first + j]);
                    replay_vals_[j] = live;
                    height = *live + (occs != nullptr ? occs[j] : 1);
                } else {
                    replay_vals_[j] = nullptr;
                    height = g + (occs != nullptr ? occs[j] : 1);
                }
                replay_cand_[j] =
                    pack_candidate(height, slot_key_[first + j], j);
            }
            commit_candidates(round, replay_cand_.data(),
                              replay_vals_.data(), true);
        }
    }
}

void sharded_kd_process::commit_candidates(std::uint64_t round,
                                           kd_uint128* cand,
                                           std::uint32_t* const* vals,
                                           bool with_vals) {
    // Keep the k smallest packed candidates. The packed order is (height,
    // tie key, probe index), the serial kernel's order exactly, so the kept
    // SET agrees with it even on exact (height, tie key) ties. k = 1 (the common benchmark shape) is a plain min
    // scan; small d uses an insertion sort (branch-predictable, no
    // libstdc++ dispatch); large d falls back to nth_element, now on
    // trivially comparable 128-bit words.
    const std::uint64_t first = round * d_;
    if (k_ == 1) {
        kd_uint128 best = cand[0];
        for (std::uint64_t j = 1; j < d_; ++j) {
            best = cand[j] < best ? cand[j] : best;
        }
        const auto j = static_cast<std::uint32_t>(best);
        kept_[first + j] = 1;
        if (with_vals && vals[j] != nullptr) {
            *vals[j] += 1;
        }
        return;
    }
    if (k_ == 2) {
        // Two-smallest scan: d comparisons, no array shuffling.
        kd_uint128 best = cand[0] < cand[1] ? cand[0] : cand[1];
        kd_uint128 second = cand[0] < cand[1] ? cand[1] : cand[0];
        for (std::uint64_t j = 2; j < d_; ++j) {
            const kd_uint128 x = cand[j];
            if (x < second) {
                if (x < best) {
                    second = best;
                    best = x;
                } else {
                    second = x;
                }
            }
        }
        for (const kd_uint128 won : {best, second}) {
            const auto j = static_cast<std::uint32_t>(won);
            kept_[first + j] = 1;
            if (with_vals && vals[j] != nullptr) {
                *vals[j] += 1;
            }
        }
        return;
    }
    if (d_ <= 32) {
        for (std::uint64_t i = 1; i < d_; ++i) {
            const kd_uint128 x = cand[i];
            std::uint64_t at = i;
            for (; at > 0 && x < cand[at - 1]; --at) {
                cand[at] = cand[at - 1];
            }
            cand[at] = x;
        }
    } else {
        std::nth_element(cand, cand + (k_ - 1), cand + d_);
    }
    for (std::uint64_t i = 0; i < k_; ++i) {
        const auto j = static_cast<std::uint32_t>(cand[i]);
        kept_[first + j] = 1;
        if (with_vals && vals[j] != nullptr) {
            *vals[j] += 1;
        }
    }
}

// --- commit ----------------------------------------------------------------

void sharded_kd_process::commit_shard(std::uint64_t shard) {
    // The same cache window as gather_shard, with +1 commits whose order
    // cannot matter; the same packed store resets the detector word to
    // `unseen` (every probed bin appears in this slice), readying the
    // next chunk for free.
    const std::uint64_t end = bucket_start_[shard + 1];
    for (std::uint64_t pos = bucket_start_[shard]; pos < end; ++pos) {
        if (pos + prefetch_ahead < end) {
            __builtin_prefetch(
                &bin_state_[static_cast<std::uint32_t>(
                    bucket_[pos + prefetch_ahead] >> 32)],
                1);
        }
        const std::uint64_t pair = bucket_[pos];
        const auto bin = static_cast<std::uint32_t>(pair >> 32);
        bin_state_[bin] =
            (std::uint64_t{slot_unseen} << 32) |
            (static_cast<std::uint32_t>(bin_state_[bin]) +
             kept_[static_cast<std::uint32_t>(pair)]);
    }
}

void sharded_kd_process::for_each_shard_parallel(
    void (sharded_kd_process::*phase)(std::uint64_t)) {
    const std::uint64_t shard_count = layout_.shards();
    if (pool_ != nullptr && shard_count > 1) {
        pool_->run_ranges(shard_count, static_cast<std::size_t>(shard_count),
                          [this, phase](std::size_t, std::uint64_t s,
                                        std::uint64_t) { (this->*phase)(s); });
    } else {
        for (std::uint64_t s = 0; s < shard_count; ++s) {
            (this->*phase)(s);
        }
    }
}

void sharded_kd_process::conflict_table::rebuild(std::size_t entries) {
    std::size_t capacity = 16;
    while (capacity < entries * 2) {
        capacity <<= 1;
    }
    keys.assign(capacity, empty_key);
    vals.assign(capacity, 0);
    mask = capacity - 1;
}

void sharded_kd_process::conflict_table::insert(std::uint32_t bin,
                                                std::uint32_t load) {
    std::uint64_t h =
        (static_cast<std::uint64_t>(bin) * 0x9E3779B97F4A7C15ull >> 32) &
        mask;
    while (keys[h] != empty_key) {
        h = (h + 1) & mask;
    }
    keys[h] = bin;
    vals[h] = load;
}

std::uint32_t* sharded_kd_process::conflict_table::find(std::uint32_t bin) {
    // Callers only look up bins inserted this chunk, so the probe chain
    // always terminates at the key (never at an empty slot).
    std::uint64_t h =
        (static_cast<std::uint64_t>(bin) * 0x9E3779B97F4A7C15ull >> 32) &
        mask;
    while (keys[h] != bin) {
        h = (h + 1) & mask;
    }
    return &vals[h];
}

std::uint32_t*
sharded_kd_process::conflict_table::find_or_null(std::uint32_t bin) {
    std::uint64_t h =
        (static_cast<std::uint64_t>(bin) * 0x9E3779B97F4A7C15ull >> 32) &
        mask;
    while (keys[h] != bin) {
        if (keys[h] == empty_key) {
            return nullptr;
        }
        h = (h + 1) & mask;
    }
    return &vals[h];
}

} // namespace kdc::core

#include "serve/dispatcher.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "core/fault_injection.hpp"
#include "core/thread_pool.hpp"
#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {

namespace {

/// One request's pregenerated tape: probes and their tie keys, drawn in
/// the FIXED order probes-then-keys per pool (one pool of d for batch
/// mode, k pools of d for per-task mode). The serial oracle
/// (serve/service.cpp) draws in the same order from the same
/// derive_seed(seed, id) stream — the contract that makes its choices
/// comparable bit for bit.
struct request_tape {
    std::vector<std::uint32_t> probes;
    std::vector<std::uint64_t> keys;
};

request_tape draw_tape(const dispatcher_config& config, std::uint64_t id) {
    rng::xoshiro256ss gen(rng::derive_seed(config.seed, id));
    const std::uint64_t pools = config.mode == probing::batch ? 1 : config.k;
    request_tape tape;
    tape.probes.resize(pools * config.d);
    tape.keys.resize(pools * config.d);
    for (std::uint64_t p = 0; p < pools; ++p) {
        const auto offset = static_cast<std::size_t>(p * config.d);
        rng::sample_with_replacement(
            gen, config.bins,
            std::span<std::uint32_t>(tape.probes.data() + offset,
                                     config.d));
        for (std::uint64_t j = 0; j < config.d; ++j) {
            tape.keys[offset + j] = gen();
        }
    }
    return tape;
}

} // namespace

dispatcher::dispatcher(const dispatcher_config& config,
                       core::thread_pool* pool)
    : config_(config), pool_(pool),
      layout_(config.bins, config.shards) {
    KD_EXPECTS_MSG(config.bins >= 1 && config.k >= 1 && config.d >= 1,
                   "dispatcher needs bins, k, d >= 1");
    KD_EXPECTS_MSG(config.mode != probing::batch || config.k <= config.d,
                   "batch (k,d)-choice needs k <= d");
    shards_.reserve(config.shards);
    for (std::uint64_t s = 0; s < config.shards; ++s) {
        shards_.emplace_back(layout_, s);
    }
}

void dispatcher::run_phase(std::size_t count,
                           const std::function<void(std::size_t)>& body) {
    if (pool_ != nullptr && count > 1) {
        pool_->run_phase(count, body);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        body(i);
    }
}

std::vector<request> dispatcher::accept(channel<request>& in,
                                        std::size_t max) {
    std::vector<request> batch;
    request next;
    while (batch.size() < max && in.try_receive(next)) {
        batch.push_back(next);
    }
    if (!batch.empty()) {
        core::fault_point(core::fault_site::serve_accept);
    }
    return batch;
}

std::vector<response>
dispatcher::process(const std::vector<request>& batch) {
    std::vector<response> responses;
    if (batch.empty()) {
        return responses;
    }
    for (std::size_t i = 1; i < batch.size(); ++i) {
        KD_EXPECTS_MSG(batch[i - 1].id < batch[i].id,
                       "dispatcher batches must be in id order");
    }
    core::fault_point(core::fault_site::serve_batch);

    // -- pregen (parallel over requests): releases carry no tape.
    std::vector<request_tape> tapes(batch.size());
    run_phase(batch.size(), [&](std::size_t i) {
        if (batch[i].kind == request_kind::allocate) {
            tapes[i] = draw_tape(config_, batch[i].id);
        }
    });

    // -- gather (parallel over shards): batch-start load of every probed
    // bin, read only from the owner's stripe. The slot table is indexed by
    // (request, probe) flattened in batch order.
    std::vector<std::size_t> slot_offset(batch.size() + 1, 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        slot_offset[i + 1] = slot_offset[i] + tapes[i].probes.size();
    }
    std::vector<std::uint32_t> slot_bin(slot_offset.back());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        std::copy(tapes[i].probes.begin(), tapes[i].probes.end(),
                  slot_bin.begin() +
                      static_cast<std::ptrdiff_t>(slot_offset[i]));
    }
    std::vector<core::bin_load> slot_load(slot_bin.size(), 0);
    run_phase(shards_.size(), [&](std::size_t s) {
        const bin_shard& shard = shards_[s];
        for (std::size_t slot = 0; slot < slot_bin.size(); ++slot) {
            const std::uint32_t bin = slot_bin[slot];
            if (bin >= shard.begin() && bin < shard.end()) {
                slot_load[slot] = shard.load(bin);
            }
        }
    });

    // -- select (serial, id order). `overlay` is the net delta committed
    // by earlier requests of THIS batch; effective load = gathered +
    // overlay is the live load a serial server would see. `ops` records
    // every (bin, delta) in id order for the commit phase.
    std::unordered_map<std::uint32_t, std::int64_t> overlay;
    std::vector<std::pair<std::uint32_t, std::int8_t>> ops;
    responses.reserve(batch.size());
    const auto effective = [&](std::size_t slot) -> std::int64_t {
        auto load = static_cast<std::int64_t>(slot_load[slot]);
        if (const auto it = overlay.find(slot_bin[slot]);
            it != overlay.end()) {
            load += it->second;
        }
        return load;
    };
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const request& req = batch[i];
        response resp;
        resp.client = req.client;
        resp.id = req.id;
        if (req.kind == request_kind::release) {
            const auto it = live_.find(req.target);
            KD_EXPECTS_MSG(it != live_.end(),
                           "release targets a non-live allocation");
            resp.bins = std::move(it->second);
            live_.erase(it);
            for (const std::uint32_t bin : resp.bins) {
                overlay[bin] -= 1;
                ops.emplace_back(bin, std::int8_t{-1});
            }
            responses.push_back(std::move(resp));
            continue;
        }
        const std::size_t base = slot_offset[i];
        const request_tape& tape = tapes[i];
        if (config_.mode == probing::batch) {
            // The paper's rule: d candidates with height = effective load
            // + occurrence index (a bin sampled m times may take up to m
            // balls), keep the k smallest by (height, key, slot).
            std::vector<std::tuple<std::int64_t, std::uint64_t,
                                   std::uint32_t>>
                cands(config_.d);
            for (std::uint64_t j = 0; j < config_.d; ++j) {
                std::int64_t occ = 0;
                for (std::uint64_t e = 0; e < j; ++e) {
                    occ += tape.probes[e] == tape.probes[j] ? 1 : 0;
                }
                cands[j] = {effective(base + j) + occ, tape.keys[j],
                            static_cast<std::uint32_t>(j)};
            }
            std::sort(cands.begin(), cands.end());
            for (std::uint64_t j = 0; j < config_.k; ++j) {
                resp.bins.push_back(tape.probes[std::get<2>(cands[j])]);
            }
            resp.probe_messages = config_.d;
        } else {
            // Per-task baseline: each of the k tasks spends its own d
            // probes and takes its least-loaded, seeing earlier tasks'
            // placements through the overlay (Sparrow-style late binding).
            for (std::uint64_t t = 0; t < config_.k; ++t) {
                const std::size_t pool_base =
                    base + static_cast<std::size_t>(t * config_.d);
                std::size_t best = 0;
                auto best_key = std::tuple<std::int64_t, std::uint64_t,
                                           std::uint64_t>{};
                for (std::uint64_t j = 0; j < config_.d; ++j) {
                    const auto key = std::tuple{
                        effective(pool_base + j),
                        tape.keys[static_cast<std::size_t>(t * config_.d) +
                                  j],
                        j};
                    if (j == 0 || key < best_key) {
                        best_key = key;
                        best = j;
                    }
                }
                const std::uint32_t bin = tape.probes
                    [static_cast<std::size_t>(t * config_.d) + best];
                resp.bins.push_back(bin);
                overlay[bin] += 1;
                ops.emplace_back(bin, std::int8_t{1});
            }
            resp.probe_messages = config_.k * config_.d;
        }
        if (config_.mode == probing::batch) {
            for (const std::uint32_t bin : resp.bins) {
                overlay[bin] += 1;
                ops.emplace_back(bin, std::int8_t{1});
            }
        }
        probe_messages_ += resp.probe_messages;
        live_.emplace(req.id, resp.bins);
        responses.push_back(std::move(resp));
    }

    // -- commit (parallel over shards): each shard applies its own bins'
    // deltas in id order, to its loads.
    core::fault_point(core::fault_site::serve_commit);
    run_phase(shards_.size(), [&](std::size_t s) {
        bin_shard& shard = shards_[s];
        for (const auto& [bin, delta] : ops) {
            if (bin < shard.begin() || bin >= shard.end()) {
                continue;
            }
            if (delta > 0) {
                shard.commit_alloc(bin);
            } else {
                shard.commit_release(bin);
            }
        }
    });
    return responses;
}

core::load_vector dispatcher::loads() const {
    core::load_vector all;
    all.reserve(config_.bins);
    for (const bin_shard& shard : shards_) {
        all.insert(all.end(), shard.loads().begin(), shard.loads().end());
    }
    return all;
}

std::uint64_t dispatcher::balls_held() const noexcept {
    std::uint64_t total = 0;
    for (const bin_shard& shard : shards_) {
        total += shard.balls_held();
    }
    return total;
}

} // namespace kdc::serve

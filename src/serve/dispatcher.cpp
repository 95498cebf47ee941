#include "serve/dispatcher.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>

#include "core/fault_injection.hpp"
#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {

namespace {

/// Draws one pool of a request's tape: d probes, then their d tie keys.
/// The serial oracle (serve/service.cpp) draws in the same order from the
/// same derive_seed(seed, id) stream — the contract that makes its choices
/// comparable bit for bit.
void draw_pool(rng::xoshiro256ss& gen, std::uint64_t bins,
               std::span<std::uint32_t> probes,
               std::span<std::uint64_t> keys) {
    rng::sample_with_replacement(gen, bins, probes);
    for (auto& key : keys) {
        key = gen();
    }
}

/// Starts loading `address` into cache without waiting for it.
void prefetch(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(address);
#else
    (void)address;
#endif
}

} // namespace

dispatcher::dispatcher(const dispatcher_config& config,
                       core::thread_pool* /*pool*/)
    : config_(config), loads_(config.bins, 0),
      tape_size_((config.mode == probing::batch ? 1 : config.k) * config.d),
      kept_(config.k) {
    KD_EXPECTS_MSG(config.bins >= 1 && config.k >= 1 && config.d >= 1,
                   "dispatcher needs bins, k, d >= 1");
    KD_EXPECTS_MSG(config.mode != probing::batch || config.k <= config.d,
                   "batch (k,d)-choice needs k <= d");
}

std::vector<request> dispatcher::accept(memory_channel<request>& in,
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
    process(batch, responses);
    return responses;
}

void dispatcher::process(std::span<const request> batch,
                         std::vector<response>& out) {
    out.resize(batch.size());
    if (batch.empty()) {
        return;
    }
    KD_EXPECTS_MSG(loads_.size() == config_.bins,
                   "dispatcher serves nothing after take_loads");
    for (std::size_t i = 1; i < batch.size(); ++i) {
        KD_EXPECTS_MSG(batch[i - 1].id < batch[i].id,
                       "dispatcher batches must be in id order");
    }
    core::fault_point(core::fault_site::serve_batch);
    // Pass 1: draw every allocate's tape and start loading its probed bins,
    // and each release's live-table entry, so pass 2 finds them in cache.
    tape_probes_.resize(batch.size() * tape_size_);
    tape_keys_.resize(batch.size() * tape_size_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].kind == request_kind::allocate) {
            draw_tape(batch[i].id, i * tape_size_);
        } else if (batch[i].target < state_.size()) {
            prefetch(bins_.data() + batch[i].target * config_.k);
        }
    }
    // Pass 2: serve in id order against the live loads, committing each
    // request before the next one selects.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].kind == request_kind::release) {
            release(batch[i], out[i]);
        } else {
            allocate(batch[i], i * tape_size_, out[i]);
        }
    }
}

void dispatcher::draw_tape(std::uint64_t id, std::size_t first) {
    rng::xoshiro256ss gen(rng::derive_seed(config_.seed, id));
    for (std::size_t pool = first; pool < first + tape_size_;
         pool += config_.d) {
        const std::span<std::uint32_t> probes(tape_probes_.data() + pool,
                                              config_.d);
        draw_pool(gen, config_.bins, probes,
                  std::span<std::uint64_t>(tape_keys_.data() + pool,
                                           config_.d));
        for (const std::uint32_t probe : probes) {
            prefetch(loads_.data() + probe);
        }
    }
}

void dispatcher::allocate(const request& req, std::size_t first,
                          response& resp) {
    KD_EXPECTS_MSG(req.id >= state_.size() ||
                       state_[req.id] == id_state::never,
                   "allocate of an id that was already allocated");
    if (req.id >= state_.size()) {
        const std::uint64_t ids = std::max<std::uint64_t>(
            req.id + 1, 2 * state_.size());
        state_.resize(ids, id_state::never);
        bins_.resize(ids * config_.k);
    }
    resp.client = req.client;
    resp.id = req.id;
    resp.bins.clear();
    resp.bins.reserve(config_.k);
    const std::uint32_t* probes = tape_probes_.data() + first;
    const std::uint64_t* keys = tape_keys_.data() + first;
    if (config_.mode == probing::batch) {
        // The paper's rule: d candidates with height = load + occurrence
        // index (a bin sampled m times may take up to m balls), keep the k
        // smallest by (height, key, probe index).
        core::top_k select(kept_.data(), config_.k);
        for (std::uint32_t j = 0; j < config_.d; ++j) {
            core::bin_load occ = 0;
            for (std::uint32_t e = 0; e < j; ++e) {
                occ += probes[e] == probes[j] ? 1 : 0;
            }
            select.offer(loads_[probes[j]] + occ, keys[j], j);
        }
        for (std::uint64_t j = 0; j < config_.k; ++j) {
            const std::uint32_t bin =
                probes[static_cast<std::uint32_t>(kept_[j])];
            resp.bins.push_back(bin);
            loads_[bin] += 1;
        }
        resp.probe_messages = config_.d;
    } else {
        // Per-task baseline: each of the k tasks spends its own d probes
        // and takes its least-loaded, seeing earlier tasks' placements
        // (Sparrow-style late binding).
        for (std::uint64_t t = 0; t < config_.k;
             ++t, probes += config_.d, keys += config_.d) {
            std::uint64_t best = 0;
            for (std::uint64_t j = 1; j < config_.d; ++j) {
                if (std::tuple{loads_[probes[j]], keys[j], j} <
                    std::tuple{loads_[probes[best]], keys[best], best}) {
                    best = j;
                }
            }
            resp.bins.push_back(probes[best]);
            loads_[probes[best]] += 1;
        }
        resp.probe_messages = config_.k * config_.d;
    }
    probe_messages_ += resp.probe_messages;
    state_[req.id] = id_state::live;
    std::copy(resp.bins.begin(), resp.bins.end(),
              bins_.begin() + static_cast<std::ptrdiff_t>(req.id * config_.k));
    live_count_ += 1;
}

void dispatcher::release(const request& req, response& resp) {
    KD_EXPECTS_MSG(req.target < state_.size() &&
                       state_[req.target] == id_state::live,
                   "release targets a non-live allocation");
    resp.client = req.client;
    resp.id = req.id;
    resp.probe_messages = 0;
    const auto first =
        bins_.begin() + static_cast<std::ptrdiff_t>(req.target * config_.k);
    resp.bins.assign(first, first + static_cast<std::ptrdiff_t>(config_.k));
    state_[req.target] = id_state::released;
    live_count_ -= 1;
    for (const std::uint32_t bin : resp.bins) {
        KD_EXPECTS_MSG(loads_[bin] > 0, "release of an empty bin");
        loads_[bin] -= 1;
    }
}

core::load_vector dispatcher::take_loads() noexcept {
    core::load_vector loads;
    loads.swap(loads_);
    return loads;
}

std::uint64_t dispatcher::balls_held() const noexcept {
    return std::accumulate(loads_.begin(), loads_.end(), std::uint64_t{0});
}

} // namespace kdc::serve

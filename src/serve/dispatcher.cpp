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

/// Draws one pool of the request's tape: d probes, then their d tie keys.
/// The serial oracle (serve/service.cpp) draws in the same order from the
/// same derive_seed(seed, id) stream — the contract that makes its choices
/// comparable bit for bit.
void draw_pool(rng::xoshiro256ss& gen, std::uint64_t bins,
               std::vector<std::uint32_t>& probes,
               std::vector<std::uint64_t>& keys) {
    rng::sample_with_replacement(gen, bins,
                                 std::span<std::uint32_t>(probes));
    for (auto& key : keys) {
        key = gen();
    }
}

} // namespace

dispatcher::dispatcher(const dispatcher_config& config,
                       core::thread_pool* /*pool*/)
    : config_(config), loads_(config.bins, 0), probes_(config.d),
      keys_(config.d), kept_(config.k) {
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
    if (batch.empty()) {
        return responses;
    }
    for (std::size_t i = 1; i < batch.size(); ++i) {
        KD_EXPECTS_MSG(batch[i - 1].id < batch[i].id,
                       "dispatcher batches must be in id order");
    }
    core::fault_point(core::fault_site::serve_batch);
    responses.reserve(batch.size());
    for (const request& req : batch) {
        responses.push_back(req.kind == request_kind::release
                                ? release(req)
                                : allocate(req));
    }
    return responses;
}

response dispatcher::allocate(const request& req) {
    KD_EXPECTS_MSG(req.id >= state_.size() ||
                       state_[req.id] == id_state::never,
                   "allocate of an id that was already allocated");
    if (req.id >= state_.size()) {
        const std::uint64_t ids = std::max<std::uint64_t>(
            req.id + 1, 2 * state_.size());
        state_.resize(ids, id_state::never);
        bins_.resize(ids * config_.k);
    }
    response resp;
    resp.client = req.client;
    resp.id = req.id;
    resp.bins.reserve(config_.k);
    rng::xoshiro256ss gen(rng::derive_seed(config_.seed, req.id));
    if (config_.mode == probing::batch) {
        // The paper's rule: d candidates with height = load + occurrence
        // index (a bin sampled m times may take up to m balls), keep the k
        // smallest by (height, key, probe index).
        draw_pool(gen, config_.bins, probes_, keys_);
        core::top_k select(kept_.data(), config_.k);
        for (std::uint32_t j = 0; j < config_.d; ++j) {
            core::bin_load occ = 0;
            for (std::uint32_t e = 0; e < j; ++e) {
                occ += probes_[e] == probes_[j] ? 1 : 0;
            }
            select.offer(loads_[probes_[j]] + occ, keys_[j], j);
        }
        for (std::uint64_t j = 0; j < config_.k; ++j) {
            const std::uint32_t bin =
                probes_[static_cast<std::uint32_t>(kept_[j])];
            resp.bins.push_back(bin);
            loads_[bin] += 1;
        }
        resp.probe_messages = config_.d;
    } else {
        // Per-task baseline: each of the k tasks spends its own d probes
        // and takes its least-loaded, seeing earlier tasks' placements
        // (Sparrow-style late binding).
        for (std::uint64_t t = 0; t < config_.k; ++t) {
            draw_pool(gen, config_.bins, probes_, keys_);
            std::uint64_t best = 0;
            for (std::uint64_t j = 1; j < config_.d; ++j) {
                if (std::tuple{loads_[probes_[j]], keys_[j], j} <
                    std::tuple{loads_[probes_[best]], keys_[best], best}) {
                    best = j;
                }
            }
            resp.bins.push_back(probes_[best]);
            loads_[probes_[best]] += 1;
        }
        resp.probe_messages = config_.k * config_.d;
    }
    probe_messages_ += resp.probe_messages;
    state_[req.id] = id_state::live;
    std::copy(resp.bins.begin(), resp.bins.end(),
              bins_.begin() + static_cast<std::ptrdiff_t>(req.id * config_.k));
    live_count_ += 1;
    return resp;
}

response dispatcher::release(const request& req) {
    KD_EXPECTS_MSG(req.target < state_.size() &&
                       state_[req.target] == id_state::live,
                   "release targets a non-live allocation");
    response resp;
    resp.client = req.client;
    resp.id = req.id;
    const auto first =
        bins_.begin() + static_cast<std::ptrdiff_t>(req.target * config_.k);
    resp.bins.assign(first, first + static_cast<std::ptrdiff_t>(config_.k));
    state_[req.target] = id_state::released;
    live_count_ -= 1;
    for (const std::uint32_t bin : resp.bins) {
        KD_EXPECTS_MSG(loads_[bin] > 0, "release of an empty bin");
        loads_[bin] -= 1;
    }
    return resp;
}

std::uint64_t dispatcher::balls_held() const noexcept {
    return std::accumulate(loads_.begin(), loads_.end(), std::uint64_t{0});
}

} // namespace kdc::serve

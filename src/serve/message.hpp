// Wire vocabulary of the allocation service: the request/response messages
// that flow between client sessions and the dispatcher over a channel
// (serve/channel.hpp).
//
// The paper's (k,d)-choice is a dispatcher protocol — k tasks share one
// pool of d probes, cutting the message cost from k*d (per-task d-choice,
// the Sparrow style modeled in sched/scheduler.hpp) to d per request. The
// service speaks exactly that protocol: an `allocate` request asks for k
// bins chosen by the (k,d) rule, a `release` request returns a previous
// allocation's balls (the churn direction of the ROADMAP). Requests carry
// a globally unique id assigned in ARRIVAL order; the dispatcher processes
// requests in id order, which is what makes the served allocation sequence
// reproducible by a serial oracle (serve/service.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace kdc::serve {

/// How an allocate request spends its probe budget: `batch` is the paper's
/// (k,d)-choice (ONE pool of d probes shared by the k tasks, d messages);
/// `per_task` is the Sparrow-style baseline (each of the k tasks probes d
/// bins independently, k*d messages). The two spellings mirror
/// sched::probe_strategy::{batch_kd_choice, per_task_d_choice}, so the
/// service's measured message cost lands on the same closed form the
/// scheduler model predicts.
enum class probing : std::uint8_t { batch, per_task };

[[nodiscard]] constexpr const char* probing_name(probing mode) noexcept {
    return mode == probing::batch ? "batch" : "per_task";
}

enum class request_kind : std::uint8_t {
    allocate, ///< place k balls via the configured probing mode
    release   ///< free the balls of an earlier allocate (churn)
};

/// One client request. `id` is assigned by the service in arrival order
/// and doubles as the RNG stream selector: every probe and tie-break draw
/// of request `id` comes from a generator seeded by (service seed, id), so
/// the drawn probes are a pure function of the request — independent of
/// batching.
struct request {
    request_kind kind = request_kind::allocate;
    std::uint64_t client = 0;
    std::uint64_t id = 0;
    /// release only: the id of the earlier allocate to undo. The
    /// dispatcher resolves it to bins server-side, so a release's content
    /// never depends on whether the allocate's RESPONSE already arrived —
    /// one of the two properties that make the oracle comparison exact.
    std::uint64_t target = 0;
};

/// The dispatcher's answer. For an allocate, `bins` holds the k chosen
/// bins in increasing post-placement height order (ties by tie key, then
/// probe index — the same order the round kernel reports placed balls).
/// For a release, `bins` echoes the freed bins.
struct response {
    std::uint64_t client = 0;
    std::uint64_t id = 0;
    std::vector<std::uint32_t> bins;
    /// Probe messages this request cost: d for batch, k*d for per_task,
    /// 0 for a release (the client already names the allocation).
    std::uint64_t probe_messages = 0;
};

} // namespace kdc::serve

// Snapshot staging for the heavy benches: run a level-kernel scenario as
// ONE stage of a longer campaign, resuming from and/or writing an
// O(max-load) level-profile snapshot (core/level_profile.hpp save/load).
//
// The heavily loaded regime the paper's open question lives in (m >> n,
// billion-bin runs measured in hours) is exactly where a bench invocation
// wants to be interruptible: `--snapshot-out=s1.profile` persists the final
// profile in a few kilobytes, and a later `--resume=s1.profile` continues
// piling balls onto that state instead of starting from empty bins. Each
// stage is a fresh process with its own seed, so a staged campaign is a
// sequence of independent-seeded segments over one evolving profile — the
// right semantics for "keep loading this system", not a bit-replay of one
// long run.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "core/scenario.hpp"

namespace kdc {
class arg_parser;
} // namespace kdc

namespace kdc::core {

/// Consumes the standard snapshot options (arg_parser::add_snapshot_options)
/// against an effective scenario. Returns false — without touching `out` —
/// when neither --snapshot-out nor --resume was supplied: the caller runs
/// its normal bench path. Otherwise runs ONE repetition of the scenario as
/// a staging run (seed derived as repetition 0 of `seed`, resolved_balls
/// balls), resuming from --resume's profile when given, writes the final
/// profile to --snapshot-out when given, prints a deterministic summary to
/// `out`, and returns true (the caller should exit successfully).
///
/// Staging requires the level kernel (profiles are level state, so
/// kernel=level with par=round is refused) and the "kd" family with
/// d >= 2. Violations and unreadable or mismatched
/// snapshots (a profile whose n differs from the scenario's) throw
/// cli_error / std::runtime_error with a precise message.
bool run_snapshot_stage(const arg_parser& args, const scenario& sc,
                        std::uint64_t seed, std::ostream& out);

} // namespace kdc::core

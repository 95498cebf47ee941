#include "core/snapshot_stage.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/fault_injection.hpp"
#include "core/level_process.hpp"
#include "core/steady_state.hpp"
#include "rng/splitmix64.hpp"
#include "support/cli.hpp"
#include "support/crc32.hpp"

namespace kdc::core {

namespace {

std::string hex32(std::uint32_t value) {
    std::ostringstream out;
    out << std::hex << std::setw(8) << std::setfill('0') << value;
    return std::move(out).str();
}

struct loaded_snapshot {
    level_profile profile;
    std::uint32_t crc = 0; ///< CRC-32 of the snapshot FILE bytes (body+trailer)
};

loaded_snapshot load_snapshot(const std::string& path, std::uint64_t n) {
    fault_point(fault_site::resume_load);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw cli_error("--resume: cannot open snapshot file '" + path + "'");
    }
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    if (in.bad()) {
        throw cli_error("--resume: read error on snapshot file '" + path +
                        "'");
    }
    fault_point(fault_site::resume_validate);
    std::istringstream stream(bytes);
    level_profile profile = level_profile::load(stream);
    if (profile.n() != n) {
        throw cli_error("--resume: snapshot '" + path + "' holds " +
                        std::to_string(profile.n()) +
                        " bins but the scenario asks for n=" +
                        std::to_string(n));
    }
    return {std::move(profile), crc32(bytes)};
}

/// Retries `fn` on injected_io_error (the transient-failure class) with a
/// short linear backoff; persistent failure surfaces as cli_error.
template <typename Fn>
void with_io_retry(const char* what, Fn&& fn) {
    constexpr int max_attempts = 3;
    for (int attempt = 1;; ++attempt) {
        try {
            fn();
            return;
        } catch (const injected_io_error& err) {
            if (attempt == max_attempts) {
                throw cli_error(
                    std::string(what) + ": transient I/O failure at " +
                    fault_site_name(err.site()) + " persisted after " +
                    std::to_string(max_attempts) + " attempts");
            }
            std::cerr << "snapshot-stage: transient I/O failure at "
                      << fault_site_name(err.site()) << " (attempt "
                      << attempt << "/" << max_attempts << "); retrying\n";
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 * attempt));
        }
    }
}

/// Crash-safe file write: the bytes land in `path + ".tmp"`, are flushed,
/// and only then atomically renamed over `path` — a crash at any point
/// leaves either the old file or the new one, never a torn mix. The two
/// fault sites bracket the write and the rename.
void write_file_atomic(const std::string& path, const std::string& bytes,
                       fault_site write_site, fault_site rename_site) {
    const std::string tmp = path + ".tmp";
    {
        fault_point(write_site);
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw cli_error("cannot open '" + tmp + "' for writing");
        }
        out << bytes;
        out.flush();
        if (!out) {
            throw cli_error("write to '" + tmp + "' failed");
        }
    }
    fault_point(rename_site);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        throw cli_error("cannot rename '" + tmp + "' over '" + path + "'");
    }
}

// ---------------------------------------------------------------------------
// Stage journal: `<snapshot-out>.journal` records that one exact stage ran
// to completion — its identifying key, the CRC of the snapshot it wrote and
// the stage's full stdout — inside the shared CRC-trailed envelope. The
// commit order is snapshot rename FIRST, journal rename second, so every
// crash point is recoverable: no journal (or a stale one) just means the
// deterministic stage is redone from its inputs, while a committed journal
// replays the recorded stdout byte-for-byte and skips the simulation.
// ---------------------------------------------------------------------------

constexpr const char* journal_magic = "kdc-stage-journal 1";

std::string journal_path(const std::string& snapshot_out) {
    return snapshot_out + ".journal";
}

std::string make_journal(const std::string& key, std::uint32_t snapshot_crc,
                         const std::string& output) {
    std::ostringstream body;
    body << journal_magic << '\n'
         << "key " << key << '\n'
         << "snapshot-crc " << hex32(snapshot_crc) << '\n'
         << "output-bytes " << output.size() << '\n'
         << output;
    const std::string text = std::move(body).str();
    std::ostringstream full;
    full << text << "crc32 " << hex32(crc32(text)) << '\n';
    return std::move(full).str();
}

struct journal_record {
    std::string key;
    std::string snapshot_crc;
    std::string output;
};

std::optional<journal_record> parse_journal(const std::string& body) {
    journal_record record;
    std::size_t pos = 0;
    const auto next_line = [&](std::string& line) {
        const std::size_t nl = body.find('\n', pos);
        if (nl == std::string::npos) {
            return false;
        }
        line.assign(body, pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    std::string line;
    if (!next_line(line) || line != journal_magic) {
        return std::nullopt;
    }
    if (!next_line(line) || line.rfind("key ", 0) != 0) {
        return std::nullopt;
    }
    record.key = line.substr(4);
    if (!next_line(line) || line.rfind("snapshot-crc ", 0) != 0) {
        return std::nullopt;
    }
    record.snapshot_crc = line.substr(13);
    if (!next_line(line) || line.rfind("output-bytes ", 0) != 0) {
        return std::nullopt;
    }
    std::uint64_t output_bytes = 0;
    try {
        std::size_t parsed = 0;
        output_bytes = std::stoull(line.substr(13), &parsed);
        if (parsed != line.size() - 13) {
            return std::nullopt;
        }
    } catch (const std::exception&) {
        return std::nullopt;
    }
    if (body.size() - pos != output_bytes) {
        return std::nullopt;
    }
    record.output = body.substr(pos);
    return record;
}

/// The committed stdout when the journal proves THIS stage (same key)
/// already completed and the snapshot on disk matches the recorded CRC;
/// nullopt (after a stderr notice when a journal exists but is unusable or
/// belongs to a different stage) otherwise.
std::optional<std::string> committed_output(const std::string& snapshot_out,
                                            const std::string& key) {
    const std::string path = journal_path(snapshot_out);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt; // no journal: a fresh stage
    }
    const auto redo = [&](const std::string& why) {
        std::cerr << "snapshot-stage: ignoring journal '" << path << "' ("
                  << why << "); redoing the stage\n";
        return std::nullopt;
    };
    std::string body;
    try {
        body = checked_snapshot_body(in, "stage-journal");
    } catch (const cli_error& err) {
        return redo(err.what());
    }
    const auto record = parse_journal(body);
    if (!record) {
        return redo("malformed journal body");
    }
    if (record->key != key) {
        return redo("journal is for a different stage");
    }
    std::ifstream snap(snapshot_out, std::ios::binary);
    if (!snap) {
        return redo("committed snapshot '" + snapshot_out + "' is missing");
    }
    const std::string snap_bytes{std::istreambuf_iterator<char>(snap),
                                 std::istreambuf_iterator<char>()};
    if (hex32(crc32(snap_bytes)) != record->snapshot_crc) {
        return redo("snapshot '" + snapshot_out +
                    "' does not match the journal's CRC");
    }
    return record->output;
}

void print_profile_line(std::ostream& out, const char* label,
                        const level_profile& profile) {
    const auto metrics = profile.metrics();
    out << label << " n=" << profile.n()
        << " total_balls=" << profile.total_balls()
        << " max_load=" << metrics.max_load << " gap=" << metrics.gap
        << '\n';
}

} // namespace

bool run_snapshot_stage(const arg_parser& args, const scenario& sc,
                        std::uint64_t seed, std::ostream& out) {
    const std::string snapshot_out = args.get_string("snapshot-out");
    const std::string resume = args.get_string("resume");
    if (snapshot_out.empty() && resume.empty()) {
        return false;
    }

    validate_scenario(sc);
    if (resolve_kernel(sc) != kernel_choice::level) {
        throw cli_error("snapshot staging persists level profiles; the "
                        "scenario must resolve to kernel=level (use "
                        "kernel=level or kernel=auto with a level-capable "
                        "policy)");
    }
    if (sc.family != "kd" || sc.d < 2) {
        throw cli_error("snapshot staging supports the 'kd' family with "
                        "d >= 2, got policy '" + sc.family + "'");
    }

    std::optional<loaded_snapshot> resumed;
    if (!resume.empty()) {
        resumed = load_snapshot(resume, sc.n);
    }
    level_profile initial =
        resumed ? std::move(resumed->profile) : level_profile(sc.n);
    std::uint64_t balls = resolved_balls(sc);
    const std::uint64_t derived = rng::derive_seed(seed, 0);

    // The stage key pins everything the stage's output is a function of:
    // the scenario (which embeds n/k/d/balls/par/shards/warmup), the seed
    // and the exact bytes resumed from. A journal whose key differs belongs
    // to a different stage and is ignored.
    const std::string stage_key =
        to_string(sc) + " seed=" + std::to_string(seed) + " resume=" +
        (resumed ? hex32(resumed->crc) : std::string("none"));
    if (!snapshot_out.empty()) {
        if (const auto replay = committed_output(snapshot_out, stage_key)) {
            std::cerr << "snapshot-stage: stage already committed (journal '"
                      << journal_path(snapshot_out)
                      << "'); replaying its recorded output\n";
            out << *replay;
            return true;
        }
    }

    // Stage stdout is accumulated here so a committed stage can journal it
    // and a later rerun can replay it byte-for-byte.
    std::ostringstream stage_out;
    stage_out << "snapshot-stage scenario=" << to_string(sc)
              << " seed=" << seed << " balls=" << balls << '\n';
    if (resumed) {
        print_profile_line(stage_out, "resumed", initial);
    } else if (sc.warmup == warmup_mode::fast_forward) {
        // A fresh warmup=ff stage starts from the synthesized steady-state
        // profile and simulates only the settle suffix; a --resume snapshot
        // always wins over the synthesis (its profile is the real thing).
        const ff_plan plan = plan_fast_forward(sc);
        const ff_split split = fast_forward_split(sc, balls);
        if (split.ff_balls > 0) {
            initial = steady_state_profile(sc, plan, split.ff_balls,
                                           rng::derive_seed(seed, 1));
            balls = split.settle_balls;
            print_profile_line(stage_out, "fast-forwarded", initial);
        }
    }

    // Each stage is its own independently seeded process over the evolving
    // profile.
    kd_choice_level_process process(std::move(initial), sc.k, sc.d, derived);
    process.run_balls(balls);
    const level_profile& final_profile = process.profile();

    print_profile_line(stage_out, "final", final_profile);
    if (!snapshot_out.empty()) {
        std::string snapshot_bytes;
        with_io_retry("--snapshot-out", [&] {
            fault_point(fault_site::snapshot_serialize);
            std::ostringstream serialized;
            final_profile.save(serialized);
            snapshot_bytes = std::move(serialized).str();
            write_file_atomic(snapshot_out, snapshot_bytes,
                              fault_site::snapshot_write,
                              fault_site::snapshot_rename);
        });
        stage_out << "snapshot written to " << snapshot_out << '\n';
        // Snapshot is committed; now journal the stage so a rerun replays
        // instead of recomputing. journal.commit sits before the rename —
        // the last crash window — and a crash there still recovers (the
        // rerun just redoes the deterministic stage).
        const std::string journal = make_journal(
            stage_key, crc32(snapshot_bytes), stage_out.str());
        with_io_retry("stage journal", [&] {
            write_file_atomic(journal_path(snapshot_out), journal,
                              fault_site::snapshot_write,
                              fault_site::journal_commit);
        });
    }
    out << stage_out.str();
    return true;
}

} // namespace kdc::core

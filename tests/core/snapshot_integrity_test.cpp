// Snapshot integrity: the CRC-gated format-v2 envelope must reject EVERY
// single-byte corruption and EVERY truncation of a valid snapshot with a
// precise cli_error (the byte-flip fuzz loop below literally tries them
// all), and the snapshot stage's journal must replay committed stages byte
// for byte.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/level_profile.hpp"
#include "core/snapshot_stage.hpp"
#include "support/cli.hpp"
#include "support/crc32.hpp"

namespace {

using kdc::arg_parser;
using kdc::cli_error;
using kdc::core::level_profile;

template <typename Load>
void expect_every_corruption_rejected(const std::string& valid, Load load) {
    // Any single-byte change is a burst error of at most 8 bits, which
    // CRC-32 detects unconditionally — so every mutation must throw, no
    // matter which byte and no matter the new value.
    const std::array<unsigned char, 3> masks{0x01, 0x80, 0xFF};
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
        for (const unsigned char mask : masks) {
            std::string corrupt = valid;
            corrupt[pos] = static_cast<char>(corrupt[pos] ^ mask);
            EXPECT_THROW((void)load(corrupt), cli_error)
                << "byte " << pos << " xor 0x" << std::hex << +mask;
        }
    }
    // Every proper prefix is a truncation; all must be rejected too.
    for (std::size_t len = 0; len < valid.size(); ++len) {
        EXPECT_THROW((void)load(valid.substr(0, len)), cli_error)
            << "truncated to " << len << " bytes";
    }
}

TEST(SnapshotIntegrity, EveryLevelProfileCorruptionIsRejected) {
    const auto profile =
        level_profile::from_loads({7, 0, 3, 3, 1, 0, 0, 2, 2, 2});
    std::ostringstream out;
    profile.save(out);
    const std::string valid = out.str();
    expect_every_corruption_rejected(valid, [](const std::string& text) {
        std::istringstream in(text);
        return level_profile::load(in);
    });
    // Sanity: the untouched bytes still load.
    std::istringstream in(valid);
    EXPECT_TRUE(level_profile::load(in) == profile);
}

/// The cli_error message a hand-written, CRC-valid snapshot body is refused
/// with, or "" if it loads.
std::string refusal_of(const std::string& body) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", kdc::crc32(body));
    std::istringstream in(body + "crc32 " + hex + "\n");
    try {
        (void)level_profile::load(in);
    } catch (const cli_error& e) {
        return e.what();
    }
    return "";
}

TEST(SnapshotIntegrity, LevelProfileLoadRejectsWrappingTotals) {
    // 2^64 - 1 + 2 wraps to 1 == n: the running sum must stop at n.
    EXPECT_NE(refusal_of(
                  "kdc-level-profile 2\n1 2\n18446744073709551615 2\n")
                  .find("sum past the header's 1 bins"),
              std::string::npos);
    // 2 * (2^64 - 1) balls at level 2 wrap the ball total.
    EXPECT_NE(refusal_of(
                  "kdc-level-profile 2\n18446744073709551615 3\n"
                  "0 0 18446744073709551615\n")
                  .find("ball total overflows 64 bits at level 2"),
              std::string::npos);
    // Exactly 2^64 - 1 balls still fit.
    EXPECT_EQ(refusal_of(
                  "kdc-level-profile 2\n18446744073709551615 2\n"
                  "0 18446744073709551615\n"),
              "");
}

// ---------------------------------------------------------------------------
// Snapshot stage: journal replay and resume-beats-ff precedence.
// ---------------------------------------------------------------------------

struct stage_args {
    arg_parser args;
    explicit stage_args(const std::vector<std::string>& extra) {
        args.add_snapshot_options();
        std::vector<const char*> argv{"prog"};
        for (const auto& arg : extra) {
            argv.push_back(arg.c_str());
        }
        if (!args.parse(static_cast<int>(argv.size()), argv.data())) {
            throw std::runtime_error("stage_args: parse failed");
        }
    }
};

kdc::core::scenario stage_scenario() {
    kdc::core::scenario sc;
    sc.n = 512;
    sc.k = 2;
    sc.d = 4;
    sc.kernel = kdc::core::kernel_choice::level;
    return sc;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(SnapshotStage, JournalReplaysCommittedStageByteForByte) {
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "journal_replay.profile";
    std::remove(snap.c_str());
    std::remove((snap + ".journal").c_str());
    stage_args cli({"--snapshot-out=" + snap});
    const auto sc = stage_scenario();

    std::ostringstream first;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(cli.args, sc, 21, first));
    const std::string snapshot_bytes = read_file(snap);

    // Second run: same key, committed journal -> replayed stdout, and the
    // snapshot on disk stays bit-identical.
    std::ostringstream second;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(cli.args, sc, 21, second));
    EXPECT_EQ(second.str(), first.str());
    EXPECT_EQ(read_file(snap), snapshot_bytes);

    // A corrupted journal is ignored (with a redo), never trusted: flip one
    // byte and the stage must still produce identical output by rerunning.
    std::string journal = read_file(snap + ".journal");
    journal[journal.size() / 2] ^= 0x20;
    std::ofstream(snap + ".journal", std::ios::binary) << journal;
    std::ostringstream third;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(cli.args, sc, 21, third));
    EXPECT_EQ(third.str(), first.str());

    // A DIFFERENT seed must not replay the old journal (stale key).
    std::ostringstream other;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(cli.args, sc, 22, other));
    EXPECT_NE(other.str(), first.str());
}

TEST(SnapshotStage, ResumeWinsOverFastForwardSynthesis) {
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "resume_vs_ff.profile";
    std::remove(snap.c_str());
    std::remove((snap + ".journal").c_str());

    // Stage 1 writes a real profile.
    stage_args writer({"--snapshot-out=" + snap});
    auto sc = stage_scenario();
    std::ostringstream stage1;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(writer.args, sc, 5, stage1));

    // Stage 2 asks for warmup=ff AND --resume: the real snapshot must win
    // over the synthesized steady-state profile.
    sc.warmup = kdc::core::warmup_mode::fast_forward;
    sc.balls = 16 * sc.n; // heavy enough that ff_balls would be nonzero
    stage_args resumer({"--resume=" + snap});
    std::ostringstream stage2;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(resumer.args, sc, 6, stage2));
    EXPECT_NE(stage2.str().find("resumed "), std::string::npos);
    EXPECT_EQ(stage2.str().find("fast-forwarded"), std::string::npos);

    // Without --resume the same scenario does fast-forward (the control).
    stage_args fresh({"--snapshot-out=" + snap + ".ff"});
    std::ostringstream stage3;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(fresh.args, sc, 6, stage3));
    EXPECT_NE(stage3.str().find("fast-forwarded"), std::string::npos);
}

TEST(SnapshotStage, ResumeRejectsCorruptAndMismatchedSnapshots) {
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "resume_reject.profile";
    std::remove((snap + ".journal").c_str());
    stage_args writer({"--snapshot-out=" + snap});
    const auto sc = stage_scenario();
    std::ostringstream out;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(writer.args, sc, 9, out));

    // Corrupt one byte: --resume must refuse with a cli_error.
    std::string bytes = read_file(snap);
    bytes[bytes.size() / 3] ^= 0x04;
    const std::string bad = snap + ".bad";
    std::ofstream(bad, std::ios::binary) << bytes;
    stage_args resumer({"--resume=" + bad});
    std::ostringstream ignored;
    EXPECT_THROW(
        (void)kdc::core::run_snapshot_stage(resumer.args, sc, 9, ignored),
        cli_error);

    // A healthy snapshot with the WRONG n is refused too.
    auto small = sc;
    small.n = 256;
    stage_args mismatch({"--resume=" + snap});
    EXPECT_THROW((void)kdc::core::run_snapshot_stage(mismatch.args, small, 9,
                                                     ignored),
                 cli_error);
}

TEST(SnapshotStage, LevelParRoundResumeIsACliErrorNotAnAbort) {
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "level_par_round.profile";
    const std::string out_path = snap + ".next";
    for (const auto& p : {snap, out_path}) {
        std::remove(p.c_str());
        std::remove((p + ".journal").c_str());
    }
    stage_args writer({"--snapshot-out=" + snap});
    auto sc = stage_scenario();
    std::ostringstream out;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(writer.args, sc, 4, out));

    // There is no round-parallel level kernel to resume on: the stage is
    // refused before anything is read or written.
    sc.par = kdc::core::par_mode::round;
    sc.shards = 8;
    stage_args resumer({"--resume=" + snap, "--snapshot-out=" + out_path});
    std::ostringstream ignored;
    try {
        (void)kdc::core::run_snapshot_stage(resumer.args, sc, 5, ignored);
        ADD_FAILURE() << "kernel=level,par=round stage was not refused";
    } catch (const cli_error& err) {
        EXPECT_NE(std::string(err.what()).find(
                      "kernel=level has no round-parallel kernel"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_FALSE(std::ifstream(out_path).good());
}

TEST(SnapshotStage, InjectedIoErrorIsRetriedToAnIdenticalSnapshot) {
    const std::string dir = ::testing::TempDir();
    const std::string clean_path = dir + "retry_clean.profile";
    const std::string faulty_path = dir + "retry_faulty.profile";
    for (const auto& p : {clean_path, faulty_path}) {
        std::remove(p.c_str());
        std::remove((p + ".journal").c_str());
    }
    const auto sc = stage_scenario();

    stage_args clean({"--snapshot-out=" + clean_path});
    std::ostringstream clean_out;
    ASSERT_TRUE(kdc::core::run_snapshot_stage(clean.args, sc, 13, clean_out));

    kdc::core::arm_faults(
        kdc::core::fault_plan::parse("snapshot.write:io_error@1"));
    stage_args faulty({"--snapshot-out=" + faulty_path});
    std::ostringstream faulty_out;
    ASSERT_TRUE(
        kdc::core::run_snapshot_stage(faulty.args, sc, 13, faulty_out));
    kdc::core::disarm_faults();

    // The retried write must land the SAME bytes a clean run writes, and
    // the stage stdout (which never mentions the path) matters only up to
    // the differing --snapshot-out value; compare the snapshots directly.
    EXPECT_EQ(read_file(faulty_path), read_file(clean_path));
}

TEST(SnapshotStage, PersistentIoErrorSurfacesAsCliError) {
    const std::string dir = ::testing::TempDir();
    const std::string snap = dir + "retry_exhausted.profile";
    std::remove(snap.c_str());
    std::remove((snap + ".journal").c_str());
    // Three rules, one per retry attempt: the bounded retry must give up.
    kdc::core::arm_faults(kdc::core::fault_plan::parse(
        "snapshot.write:io_error@1;snapshot.write:io_error@2;"
        "snapshot.write:io_error@3"));
    stage_args cli({"--snapshot-out=" + snap});
    std::ostringstream out;
    EXPECT_THROW((void)kdc::core::run_snapshot_stage(cli.args,
                                                     stage_scenario(), 3, out),
                 cli_error);
    kdc::core::disarm_faults();
}

} // namespace

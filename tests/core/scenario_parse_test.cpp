// The scenario grammar and policy table: parsing, precise errors, key
// liveness, kernel/auto resolution, string round-trips and the CLI merge.
// The behavioural (distribution/byte-equality) side lives in
// scenario_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "support/cli.hpp"

using kdc::cli_error;
using kdc::core::kernel_choice;
using kdc::core::kernel_choice_name;
using kdc::core::metric_kind;
using kdc::core::parse_scenario;
using kdc::core::probe_mode;
using kdc::core::resolve_kernel;
using kdc::core::resolved_balls;
using kdc::core::scenario;
using kdc::core::scenario_reads_key;

namespace {

/// The cli_error message for a parse, or "" when none is thrown.
std::string parse_error(const std::string& text) {
    try {
        (void)parse_scenario(text);
    } catch (const cli_error& error) {
        return error.what();
    }
    return "";
}

} // namespace

TEST(ScenarioParse, DefaultsAndFullKeySet) {
    const auto sc = parse_scenario("kd:n=1024,k=2,d=4");
    EXPECT_EQ(sc.family, "kd");
    EXPECT_EQ(sc.n, 1024u);
    EXPECT_EQ(sc.k, 2u);
    EXPECT_EQ(sc.d, 4u);
    EXPECT_EQ(sc.kernel, kernel_choice::auto_pick);
    EXPECT_EQ(sc.metric, metric_kind::max_load);
    EXPECT_EQ(sc.replacement, probe_mode::with_replacement);

    const auto full = parse_scenario(
        "one_plus_beta:n=4096,balls=1000,beta=0.25,replacement=with,"
        "kernel=perbin,metric=gap");
    EXPECT_EQ(full.balls, 1000u);
    EXPECT_EQ(full.family, "one_plus_beta");
    EXPECT_DOUBLE_EQ(full.beta, 0.25);
    EXPECT_EQ(full.kernel, kernel_choice::per_bin);
    EXPECT_EQ(full.metric, metric_kind::gap);
}

TEST(ScenarioParse, ScientificNotationCounts) {
    EXPECT_EQ(parse_scenario("kd:n=1e6,k=2,d=4").n, 1'000'000u);
    EXPECT_EQ(parse_scenario("kd:n=2.5e3,k=2,d=4").n, 2'500u);
    // A count that is not an integer is rejected, not rounded.
    EXPECT_THROW((void)parse_scenario("kd:n=2.5"), cli_error);
}

TEST(ScenarioParse, FamilyPrefixIsOptionalAndValidated) {
    EXPECT_EQ(parse_scenario("n=512,k=2,d=4").family, "kd");
    EXPECT_EQ(parse_scenario("single:n=512").family, "single");
    const auto message = parse_error("bogus:n=512");
    EXPECT_NE(message.find("unknown scenario family 'bogus'"),
              std::string::npos);
    // The error names the valid families.
    EXPECT_NE(message.find("kd"), std::string::npos);
    EXPECT_NE(message.find("weighted"), std::string::npos);
}

TEST(ScenarioParse, UnknownKeyNamesTheValidSet) {
    const auto message = parse_error("kd:n=512,foo=3");
    EXPECT_NE(message.find("unknown scenario key 'foo'"), std::string::npos);
    EXPECT_NE(message.find("kernel"), std::string::npos);
    EXPECT_NE(message.find("metric"), std::string::npos);
}

TEST(ScenarioParse, DuplicateKeyIsAnError) {
    const auto message = parse_error("kd:n=512,n=1024");
    EXPECT_NE(message.find("duplicate scenario key 'n'"), std::string::npos);
}

TEST(ScenarioParse, MalformedPairsAreErrors) {
    EXPECT_THROW((void)parse_scenario("kd:n=512,,k=2"), cli_error);
    EXPECT_THROW((void)parse_scenario("kd:n"), cli_error);
    EXPECT_THROW((void)parse_scenario("kd:=5"), cli_error);
    EXPECT_THROW((void)parse_scenario("kd:n=abc"), cli_error);
    EXPECT_THROW((void)parse_scenario("one_plus_beta:beta=1e999"), cli_error);
    EXPECT_THROW((void)parse_scenario("weighted:n=512,k=2,d=4,skew=inf"),
                 cli_error);
}

TEST(ScenarioParse, EnumValuesAreValidated) {
    EXPECT_THROW((void)parse_scenario("kd:kernel=nope"), cli_error);
    EXPECT_THROW((void)parse_scenario("kd:metric=nope"), cli_error);
    EXPECT_THROW((void)parse_scenario("kd:replacement=nope"), cli_error);
}

TEST(ScenarioParse, ParameterRangesAreValidated) {
    // k >= d (and not the 1,1 degeneration) is invalid for kd.
    EXPECT_THROW((void)parse_scenario("kd:n=512,k=4,d=4"), cli_error);
    EXPECT_THROW((void)parse_scenario("kd:n=2,k=1,d=4"), cli_error);
    EXPECT_NO_THROW((void)parse_scenario("kd:n=512,k=1,d=1"));
    EXPECT_THROW((void)parse_scenario("one_plus_beta:beta=1.5"), cli_error);
    EXPECT_THROW((void)parse_scenario("weighted:n=512,k=2,d=4,skew=-1"),
                 cli_error);
    EXPECT_THROW((void)parse_scenario("threshold:cap=0"), cli_error);
}

TEST(ScenarioParse, LevelKernelRejectionNamesTheCapableSet) {
    const auto message =
        parse_error("threshold:n=512,kernel=level");
    EXPECT_NE(message.find("policy 'threshold' has no level-compressed "
                           "kernel"),
              std::string::npos);
    for (const char* name : {"dchoice", "kd", "one_plus_beta", "single"}) {
        EXPECT_NE(message.find(name), std::string::npos) << name;
    }
    // weighted runs on its per-bin kernel only.
    scenario weighted = parse_scenario("weighted:n=512,k=2,d=4");
    weighted.kernel = kernel_choice::level;
    try {
        (void)resolve_kernel(weighted);
        ADD_FAILURE() << "weighted kernel=level was not refused";
    } catch (const cli_error& error) {
        EXPECT_STREQ(error.what(),
                     "policy 'weighted' has no level-compressed kernel; "
                     "kernel=level supports: dchoice, kd, one_plus_beta, "
                     "single");
    }
    EXPECT_THROW((void)parse_scenario("greedy:n=512,k=2,d=4,kernel=level"),
                 cli_error);
    // without-replacement probes exist on the per-bin kernel only.
    EXPECT_THROW(
        (void)parse_scenario("kd:n=512,k=2,d=4,replacement=without,"
                             "kernel=level"),
        cli_error);
    EXPECT_THROW((void)parse_scenario("single:replacement=without"),
                 cli_error);
}

TEST(ScenarioParse, AutoKernelPicksLevelWhereSupported) {
    EXPECT_EQ(resolve_kernel(parse_scenario("kd:n=512,k=2,d=4")),
              kernel_choice::level);
    EXPECT_EQ(resolve_kernel(parse_scenario("single:n=512")),
              kernel_choice::level);
    EXPECT_EQ(resolve_kernel(parse_scenario("one_plus_beta:n=512")),
              kernel_choice::level);
    // Policies without a level kernel degrade to perbin under auto.
    EXPECT_EQ(resolve_kernel(parse_scenario(
                  "weighted:n=512,k=2,d=4,skew=0.5")),
              kernel_choice::per_bin);
    EXPECT_EQ(resolve_kernel(parse_scenario("threshold:n=512")),
              kernel_choice::per_bin);
    EXPECT_EQ(resolve_kernel(parse_scenario("greedy:n=512,k=2,d=4")),
              kernel_choice::per_bin);
    // ... and so does the without-replacement ablation.
    EXPECT_EQ(resolve_kernel(parse_scenario(
                  "kd:n=512,k=2,d=4,replacement=without")),
              kernel_choice::per_bin);
    // ... and so does par=round: the round-parallel kernel is per-bin.
    EXPECT_EQ(resolve_kernel(parse_scenario("kd:n=512,k=2,d=4,par=round")),
              kernel_choice::per_bin);
    // Explicit kernels are honored as-is.
    EXPECT_EQ(resolve_kernel(parse_scenario("kd:n=512,k=2,d=4,"
                                            "kernel=perbin")),
              kernel_choice::per_bin);
}

TEST(ScenarioParse, ResolvedBallsFollowsThePolicy) {
    EXPECT_EQ(resolved_balls(parse_scenario("kd:n=1000,k=3,d=6")), 999u);
    EXPECT_EQ(resolved_balls(parse_scenario("kd:n=1000,k=1,d=1")), 1000u);
    EXPECT_EQ(resolved_balls(parse_scenario("single:n=1000")), 1000u);
    EXPECT_EQ(resolved_balls(parse_scenario("dchoice:n=1000,d=2")), 1000u);
    EXPECT_EQ(resolved_balls(parse_scenario("one_plus_beta:n=1000")), 1000u);
    EXPECT_EQ(resolved_balls(parse_scenario("greedy:n=1000,k=3,d=6")), 999u);
    EXPECT_EQ(resolved_balls(parse_scenario("kd:n=1000,k=3,d=6,balls=42")),
              42u);
}

TEST(ScenarioParse, ExplicitBallsMustBeWholeRounds) {
    // A balls count that is not a multiple of k is a cli_error at parse
    // time for the round-based policies, never a contract violation later.
    const auto message = parse_error("kd:n=100,k=3,d=6,balls=100");
    EXPECT_NE(message.find("whole number of rounds"), std::string::npos);
    EXPECT_THROW((void)parse_scenario("greedy:n=100,k=3,d=6,balls=100"),
                 cli_error);
    EXPECT_THROW(
        (void)parse_scenario("weighted:n=100,k=3,d=6,skew=0.5,balls=100"),
        cli_error);
    EXPECT_NO_THROW((void)parse_scenario("kd:n=100,k=3,d=6,balls=99"));
    // Per-ball policies take any count.
    EXPECT_NO_THROW((void)parse_scenario("single:n=100,balls=7"));
    EXPECT_NO_THROW((void)parse_scenario("kd:n=100,k=1,d=1,balls=7"));
}

TEST(ScenarioParse, ToStringRoundTripsFullDoublePrecision) {
    scenario sc = parse_scenario("one_plus_beta:n=512");
    sc.beta = 0.123456789012345;
    EXPECT_EQ(parse_scenario(kdc::core::to_string(sc)), sc);
    sc = parse_scenario("weighted:n=512,k=2,d=4");
    sc.skew = 1.0 / 3.0;
    EXPECT_EQ(parse_scenario(kdc::core::to_string(sc)), sc);
}

TEST(ScenarioParse, ToStringRoundTrips) {
    for (const char* text :
         {"kd:n=1024,k=2,d=4", "single:n=512,kernel=level",
          "weighted:n=4096,k=8,d=16,skew=0.5,metric=gap",
          "threshold:n=256,threshold=3,cap=8,metric=messages",
          "dchoice:n=512,d=3,kernel=perbin",
          "kd:n=512,k=2,d=4,replacement=without,kernel=perbin",
          "greedy:n=512,k=2,d=4,balls=100"}) {
        const auto sc = parse_scenario(text);
        EXPECT_EQ(parse_scenario(kdc::core::to_string(sc)), sc) << text;
    }
}

TEST(ScenarioParse, PolicyTableListsTheSevenFamilies) {
    const std::vector<std::string> families{
        "dchoice", "greedy", "kd", "one_plus_beta", "single", "threshold",
        "weighted"};
    for (const auto& family : families) {
        EXPECT_EQ(parse_scenario(family + ":n=512").family, family);
    }
    // The unknown-family error lists exactly the table, in order.
    std::string listed;
    for (const auto& family : families) {
        listed += (listed.empty() ? "" : ", ") + family;
    }
    EXPECT_EQ(parse_error("no_such_policy:n=512"),
              "unknown scenario family 'no_such_policy'; valid families: " +
                  listed);
    // A hand-built scenario with an unknown family fails validation the
    // same way.
    scenario sc;
    sc.family = "no_such_policy";
    EXPECT_THROW(kdc::core::validate_scenario(sc), cli_error);
}

namespace {

/// The family-specific keys each family reads, independently of the
/// implementation's table.
struct family_keys {
    const char* family;
    std::set<std::string> keys;
};

const std::vector<family_keys>& family_key_table() {
    static const std::vector<family_keys> table{
        {"kd", {"k", "d"}},
        {"single", {}},
        {"dchoice", {"d"}},
        {"greedy", {"k", "d"}},
        {"weighted", {"k", "d", "skew"}},
        {"one_plus_beta", {"beta"}},
        {"threshold", {"threshold", "cap"}},
    };
    return table;
}

/// The keys of a canonical echo "family:key=value,...".
std::set<std::string> echoed_keys(const std::string& echo) {
    std::set<std::string> keys;
    std::size_t at = echo.find(':') + 1;
    while (at < echo.size()) {
        const auto comma = std::min(echo.find(',', at), echo.size());
        const std::string pair = echo.substr(at, comma - at);
        keys.insert(pair.substr(0, pair.find('=')));
        at = comma + 1;
    }
    return keys;
}

} // namespace

TEST(ScenarioKeys, EchoOfEachFamilyDefaultHoldsExactlyItsLiveKeys) {
    for (const auto& row : family_key_table()) {
        SCOPED_TRACE(row.family);
        // balls is live everywhere but echoed only when set (0 = the
        // family default).
        std::set<std::string> expected{"n",   "replacement", "kernel",
                                       "par", "metric",      "warmup"};
        expected.insert(row.keys.begin(), row.keys.end());
        const auto sc = parse_scenario(std::string(row.family) + ":");
        const std::string echo = kdc::core::to_string(sc);
        EXPECT_EQ(echoed_keys(echo), expected) << echo;
        EXPECT_EQ(parse_scenario(echo), sc) << echo;
        for (const auto& key : expected) {
            EXPECT_TRUE(scenario_reads_key(sc, key)) << key;
        }
        EXPECT_TRUE(scenario_reads_key(sc, "balls"));
        EXPECT_FALSE(scenario_reads_key(sc, "shards"));
        EXPECT_FALSE(scenario_reads_key(sc, "selpar"));
        EXPECT_FALSE(scenario_reads_key(sc, "probe"));
    }
    // par=round makes shards and selpar live (kd, the one family with a
    // round-parallel kernel).
    const auto round = parse_scenario("kd:n=4096,k=2,d=4,par=round");
    const auto keys = echoed_keys(kdc::core::to_string(round));
    EXPECT_EQ(keys.count("shards"), 1u);
    EXPECT_EQ(keys.count("selpar"), 1u);
}

TEST(ScenarioKeys, EveryDeadKeyIsRefused) {
    for (const auto& row : family_key_table()) {
        for (const char* key :
             {"k", "d", "skew", "beta", "threshold", "cap"}) {
            if (row.keys.count(key) != 0) {
                continue;
            }
            const std::string text =
                std::string(row.family) + ":" + key + "=1";
            EXPECT_NE(parse_error(text).find(
                          "scenario key '" + std::string(key) +
                          "' is not read by family '" + row.family + "'"),
                      std::string::npos)
                << text;
        }
        for (const char* key : {"shards", "selpar"}) {
            const std::string text = std::string(row.family) + ":" + key +
                                     "=4,par=rep";
            EXPECT_NE(parse_error(text).find(" under par=rep; it reads: "),
                      std::string::npos)
                << text;
        }
    }
    // The base scenario counts: a merge that keeps the family keeps its
    // key set.
    scenario base;
    base.family = "single";
    EXPECT_THROW((void)parse_scenario("k=2", base), cli_error);
}

TEST(ScenarioKeys, DeadKeyErrorNamesTheFamilysKeys) {
    EXPECT_EQ(parse_error("kd:n=512,k=2,d=4,beta=0.3"),
              "scenario key 'beta' is not read by family 'kd'; it reads: n, "
              "k, d, balls, replacement, kernel, par, metric, warmup");
}

TEST(ScenarioKeys, ProbeIsAnUnknownKey) {
    EXPECT_NE(parse_error("kd:n=512,k=2,d=4,probe=weighted")
                  .find("unknown scenario key 'probe'"),
              std::string::npos);
}

TEST(ScenarioKeys, EchoCarriesOnlyLiveKeys) {
    const std::string kd =
        kdc::core::to_string(parse_scenario("kd:n=4096,k=2,d=4"));
    for (const char* dead :
         {"skew", "beta", "threshold", "cap", "shards", "selpar"}) {
        EXPECT_EQ(kd.find(dead), std::string::npos) << dead << " in " << kd;
    }
    const std::string beta =
        kdc::core::to_string(parse_scenario("one_plus_beta:n=4096,beta=0.25"));
    EXPECT_NE(beta.find("beta=0.25"), std::string::npos) << beta;
    EXPECT_EQ(beta.find(",k="), std::string::npos) << beta;
    EXPECT_EQ(beta.find(",d="), std::string::npos) << beta;
}

TEST(ScenarioParse, PerBinBinIdsMustFit32Bits) {
    EXPECT_NE(parse_error("kd:n=5e9,k=2,d=4,kernel=perbin")
                  .find("32-bit ids and need n < 2^32 - 1"),
              std::string::npos);
    EXPECT_NE(parse_error("greedy:n=5e9,k=2,d=4")
                  .find("32-bit ids and need n < 2^32 - 1"),
              std::string::npos);
    EXPECT_NE(parse_error("kd:n=5e9,k=2,d=4,par=round")
                  .find("32-bit ids and need n < 2^32 - 1"),
              std::string::npos);
    // The last 32-bit id is reserved, so n = 2^32 - 2 is the largest.
    EXPECT_THROW((void)parse_scenario("kd:n=4294967295,k=2,d=4,"
                                      "kernel=perbin"),
                 cli_error);
    EXPECT_EQ(parse_error("kd:n=4294967294,k=2,d=4,kernel=perbin"), "");
    // kernel=auto resolves to level, whose state is O(max load).
    EXPECT_EQ(resolve_kernel(parse_scenario("kd:n=5e9,k=2,d=4")),
              kernel_choice::level);
    // par=round packs probe slots into 32 bits.
    EXPECT_NE(parse_error("kd:n=4e9,k=2,d=3e9,par=round")
                  .find("par=round packs probe slots into 32 bits"),
              std::string::npos);
}

TEST(ScenarioCli, ScenarioOverridesLegacyFlagsKeyByKey) {
    kdc::arg_parser args;
    args.add_option("n", "2048", "bins");
    args.add_scenario_option();
    const char* argv[] = {"bench", "--scenario=kd:kernel=level,metric=gap"};
    ASSERT_TRUE(args.parse(2, argv));

    scenario base;
    base.n = static_cast<std::uint64_t>(args.get_int("n"));
    base.k = 2;
    base.d = 4;
    base.kernel = kernel_choice::per_bin;
    const auto merged = kdc::core::scenario_from_cli(args, base);
    EXPECT_EQ(merged.n, 2048u);          // inherited from the legacy flag
    EXPECT_EQ(merged.kernel, kernel_choice::level); // overridden
    EXPECT_EQ(merged.metric, metric_kind::gap);     // overridden
}

TEST(ScenarioCli, KernelFlagParsesLikeTheKernelKey) {
    auto parse_flag = [](const char* value) {
        kdc::arg_parser args;
        args.add_kernel_option();
        const std::string arg = std::string("--kernel=") + value;
        const char* argv[] = {"bench", arg.c_str()};
        EXPECT_TRUE(args.parse(2, argv));
        return kdc::core::kernel_from_name(args.get_string("kernel"));
    };
    for (const char* name : {"perbin", "level", "auto"}) {
        EXPECT_EQ(parse_flag(name),
                  parse_scenario(std::string("kd:kernel=") + name).kernel);
        EXPECT_STREQ(kernel_choice_name(parse_flag(name)), name);
    }
    // One parser, one message for the flag and the key.
    const std::string message =
        "scenario key 'kernel' must be 'perbin', 'level' or 'auto', got "
        "'lvl'";
    EXPECT_EQ(parse_error("kd:kernel=lvl"), message);
    try {
        (void)parse_flag("lvl");
        ADD_FAILURE() << "--kernel=lvl parsed";
    } catch (const cli_error& error) {
        EXPECT_EQ(error.what(), message);
    }

    // Default (option absent) is the per-bin reference kernel.
    kdc::arg_parser args;
    args.add_kernel_option();
    const char* argv[] = {"bench"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(kdc::core::kernel_from_name(args.get_string("kernel")),
              kernel_choice::per_bin);
}

TEST(ScenarioCli, AbsentScenarioReturnsTheBaseUntouched) {
    kdc::arg_parser args;
    args.add_scenario_option();
    const char* argv[] = {"bench"};
    ASSERT_TRUE(args.parse(1, argv));
    scenario base;
    base.n = 77; // deliberately invalid for most policies (d=2 > n is fine)
    base.k = 9;
    base.d = 11;
    const auto merged = kdc::core::scenario_from_cli(args, base);
    EXPECT_EQ(merged, base); // no parse, no validation, no surprises
}

TEST(ScenarioParse, ParAndShardsKeys) {
    // Defaults: serial repetition-level parallelism, auto shard count.
    const auto plain = parse_scenario("kd:n=1024,k=2,d=4");
    EXPECT_EQ(plain.par, kdc::core::par_mode::rep);
    EXPECT_EQ(plain.shards, 0u);

    const auto sharded =
        parse_scenario("kd:n=1024,k=2,d=4,par=round,shards=64");
    EXPECT_EQ(sharded.par, kdc::core::par_mode::round);
    EXPECT_EQ(sharded.shards, 64u);

    EXPECT_EQ(
        parse_scenario("kd:n=1024,k=2,d=4,par=round,shards=auto").shards,
        0u);
    EXPECT_EQ(
        parse_scenario("kd:n=1024,k=2,d=4,par=round,shards=1e3").shards,
        1000u);
    EXPECT_EQ(parse_scenario("kd:n=1024,k=2,d=4,par=rep").par,
              kdc::core::par_mode::rep);
}

TEST(ScenarioParse, SelparKey) {
    // Default: auto selection segments, carried as 0.
    EXPECT_EQ(parse_scenario("kd:n=1024,k=2,d=4").selpar, 0u);
    EXPECT_EQ(
        parse_scenario("kd:n=1024,k=2,d=4,par=round,selpar=auto").selpar,
        0u);
    EXPECT_EQ(
        parse_scenario("kd:n=1024,k=2,d=4,par=round,selpar=8").selpar, 8u);
    EXPECT_EQ(
        parse_scenario("kd:n=1024,k=2,d=4,par=round,selpar=1e2").selpar,
        100u);
    EXPECT_NE(parse_error("kd:n=512,k=2,d=4,par=round,selpar=0")
                  .find("'selpar' must be 'auto' or a positive count"),
              std::string::npos);
    EXPECT_NE(parse_error("kd:n=512,k=2,d=4,par=round,selpar=many")
                  .find("'selpar'"),
              std::string::npos);
}

TEST(ScenarioParse, ParAndShardsRoundTripThroughToString) {
    for (const char* text :
         {"kd:n=1024,k=2,d=4,par=round,shards=16",
          "kd:n=4096,k=8,d=16,par=round",
          "kd:n=512,k=2,d=4,par=round,shards=7",
          "kd:n=512,k=2,d=4,par=round,shards=4,selpar=7"}) {
        const auto sc = parse_scenario(text);
        EXPECT_EQ(parse_scenario(kdc::core::to_string(sc)), sc) << text;
    }
}

TEST(ScenarioParse, ParAndShardsErrorsArePrecise) {
    // Bad spellings.
    EXPECT_NE(parse_error("kd:n=512,k=2,d=4,par=parallel")
                  .find("par must be 'rep' or 'round'"),
              std::string::npos);
    EXPECT_NE(parse_error("kd:n=512,k=2,d=4,par=round,shards=0")
                  .find("'shards' must be 'auto' or a positive count"),
              std::string::npos);

    // par=round is the sharded (k,d) kernel: only the kd family, only
    // with-replacement probes.
    EXPECT_NE(parse_error("single:n=512,par=round").find("'kd' family"),
              std::string::npos);
    EXPECT_NE(parse_error("weighted:n=512,k=2,d=4,skew=0.5,par=round")
                  .find("'kd' family"),
              std::string::npos);
    EXPECT_NE(parse_error("kd:n=512,k=2,d=4,replacement=without,par=round")
                  .find("with-replacement"),
              std::string::npos);
    // ... and only the per-bin kernel: level rounds are inherently serial.
    EXPECT_EQ(parse_error("kd:n=512,k=2,d=4,kernel=level,par=round"),
              "kernel=level has no round-parallel kernel (every level round "
              "depends on the exact current profile); use kernel=level with "
              "par=rep, or par=round with kernel=perbin or kernel=auto");

    // par=rep stays valid for all of those scenarios.
    EXPECT_EQ(parse_error("kd:n=512,k=2,d=4,replacement=without,par=rep"),
              "");
}

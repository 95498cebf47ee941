#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "support/contracts.hpp"

namespace {

using kdc::arg_parser;
using kdc::cli_error;

TEST(ArgParser, DefaultsApplyWhenAbsent) {
    arg_parser parser;
    parser.add_option("n", "1024", "bins");
    const std::array argv{"prog"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(parser.get_int("n"), 1024);
}

TEST(ArgParser, ParsesKeyValue) {
    arg_parser parser;
    parser.add_option("n", "1024", "bins");
    parser.add_option("label", "none", "text");
    const std::array argv{"prog", "--n=65536", "--label=table1"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(parser.get_int("n"), 65536);
    EXPECT_EQ(parser.get_string("label"), "table1");
}

TEST(ArgParser, ParsesDouble) {
    arg_parser parser;
    parser.add_option("beta", "0.5", "mix");
    const std::array argv{"prog", "--beta=0.25"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_DOUBLE_EQ(parser.get_double("beta"), 0.25);
}

TEST(ArgParser, FlagDefaultsFalseAndSetsTrue) {
    arg_parser parser;
    parser.add_flag("csv", "emit csv");
    {
        const std::array argv{"prog"};
        arg_parser fresh = parser;
        ASSERT_TRUE(fresh.parse(static_cast<int>(argv.size()), argv.data()));
        EXPECT_FALSE(fresh.get_flag("csv"));
    }
    {
        const std::array argv{"prog", "--csv"};
        ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
        EXPECT_TRUE(parser.get_flag("csv"));
    }
}

TEST(ArgParser, UnknownOptionThrows) {
    arg_parser parser;
    parser.add_option("n", "1", "bins");
    const std::array argv{"prog", "--typo=3"};
    EXPECT_THROW((void)parser.parse(static_cast<int>(argv.size()), argv.data()),
                 cli_error);
}

TEST(ArgParser, MalformedIntThrows) {
    arg_parser parser;
    parser.add_option("n", "1", "bins");
    const std::array argv{"prog", "--n=abc"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_THROW((void)parser.get_int("n"), cli_error);
}

TEST(ArgParser, OptionWithoutValueThrows) {
    arg_parser parser;
    parser.add_option("n", "1", "bins");
    const std::array argv{"prog", "--n"};
    EXPECT_THROW((void)parser.parse(static_cast<int>(argv.size()), argv.data()),
                 cli_error);
}

TEST(ArgParser, FlagWithValueThrows) {
    arg_parser parser;
    parser.add_flag("csv", "emit csv");
    const std::array argv{"prog", "--csv=yes"};
    EXPECT_THROW((void)parser.parse(static_cast<int>(argv.size()), argv.data()),
                 cli_error);
}

TEST(ArgParser, BareDoubleDashIsMalformed) {
    arg_parser parser;
    parser.add_option("n", "1", "bins");
    const std::array argv{"prog", "--"};
    try {
        (void)parser.parse(static_cast<int>(argv.size()), argv.data());
        FAIL() << "expected cli_error";
    } catch (const cli_error& e) {
        // Regression: this used to report the misleading "unknown option --".
        EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos);
    }
}

TEST(ArgParser, EmptyKeyWithValueIsMalformed) {
    arg_parser parser;
    parser.add_option("n", "1", "bins");
    const std::array argv{"prog", "--=3"};
    try {
        (void)parser.parse(static_cast<int>(argv.size()), argv.data());
        FAIL() << "expected cli_error";
    } catch (const cli_error& e) {
        EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--=3"), std::string::npos);
    }
}

TEST(ArgParser, ThreadsOptionDefaultsToAutoSentinel) {
    arg_parser parser;
    parser.add_threads_option();
    const std::array argv{"prog"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(parser.get_threads(), 0u);
}

/// A parser holding only `--threads=<value>`. Parsing never builds a pool.
arg_parser threads_parser(const std::string& value) {
    arg_parser parser;
    parser.add_threads_option();
    const std::string option = "--threads=" + value;
    const std::array argv{"prog", option.c_str()};
    EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    return parser;
}

TEST(ArgParser, ThreadsOptionParsesExplicitCount) {
    EXPECT_EQ(threads_parser("8").get_threads(), 8u);
    EXPECT_EQ(threads_parser("1024").get_threads(), 1024u);
}

TEST(ArgParser, ThreadsOptionRejectsOverflowingCount) {
    // 2^32 would wrap to the 0 "all hardware threads" sentinel if the cast
    // were unchecked; 1025 and 2^32 - 1 fit an unsigned but would ask the
    // pool for that many threads.
    for (const char* value : {"1025", "4294967295", "4294967296"}) {
        try {
            (void)threads_parser(value).get_threads();
            ADD_FAILURE() << "--threads=" << value << " was accepted";
        } catch (const cli_error& error) {
            EXPECT_STREQ(error.what(),
                         ("option --threads out of range, got " +
                          std::string(value))
                             .c_str());
        }
    }
}

TEST(ArgParser, ThreadsOptionRejectsNegative) {
    arg_parser parser;
    parser.add_threads_option();
    const std::array argv{"prog", "--threads=-2"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_THROW((void)parser.get_threads(), cli_error);
}

TEST(ArgParser, PositionalArgumentsCollected) {
    arg_parser parser;
    const std::array argv{"prog", "input.csv", "output.csv"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    ASSERT_EQ(parser.positional().size(), 2u);
    EXPECT_EQ(parser.positional()[0], "input.csv");
}

TEST(ArgParser, HelpReturnsFalse) {
    arg_parser parser;
    parser.add_option("n", "1", "bins");
    const std::array argv{"prog", "--help"};
    testing::internal::CaptureStdout();
    EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    const std::string help = testing::internal::GetCapturedStdout();
    EXPECT_NE(help.find("--n"), std::string::npos);
}

TEST(ArgParser, UndeclaredGetViolatesContract) {
    arg_parser parser;
    EXPECT_THROW((void)parser.get_string("nope"), kdc::contract_violation);
}

TEST(ArgParser, UsageListsDefaults) {
    arg_parser parser;
    parser.add_option("reps", "10", "repetitions");
    const std::string usage = parser.usage("prog");
    EXPECT_NE(usage.find("default: 10"), std::string::npos);
    EXPECT_NE(usage.find("repetitions"), std::string::npos);
}

/// Parses one --ci-width value through a fresh parser and returns the
/// cli_error message get_positive_double produced (empty if it accepted).
std::string positive_double_error(const std::string& value) {
    arg_parser parser;
    parser.add_option("ci-width", "0.5", "target half-width");
    const std::string arg = "--ci-width=" + value;
    const std::array argv{"prog", arg.c_str()};
    if (!parser.parse(static_cast<int>(argv.size()), argv.data())) {
        return "help?";
    }
    try {
        (void)parser.get_positive_double("ci-width");
        return "";
    } catch (const cli_error& e) {
        return e.what();
    }
}

TEST(ArgParser, PositiveDoubleAcceptsOrdinaryValues) {
    EXPECT_EQ(positive_double_error("0.25"), "");
    EXPECT_EQ(positive_double_error("3"), "");
    EXPECT_EQ(positive_double_error("1e-3"), "");
}

TEST(ArgParser, PositiveDoubleRejectsZeroAndNegativesPrecisely) {
    // Each rejection names the option, the offending text, and the rule —
    // never a silent fall-back to the default.
    EXPECT_NE(positive_double_error("0").find("--ci-width must be > 0"),
              std::string::npos);
    EXPECT_NE(positive_double_error("0").find("'0'"), std::string::npos);
    EXPECT_NE(positive_double_error("-0.5").find("must be > 0"),
              std::string::npos);
}

TEST(ArgParser, DoubleRejectsGarbageAndTrailingJunk) {
    EXPECT_NE(positive_double_error("abc").find("expects a number"),
              std::string::npos);
    EXPECT_NE(positive_double_error("abc").find("'abc'"), std::string::npos);
    EXPECT_NE(positive_double_error("1.5abc").find("trailing characters"),
              std::string::npos);
    EXPECT_NE(positive_double_error("").find("expects a number"),
              std::string::npos);
}

TEST(ArgParser, DoubleRejectsOutOfRangeAndNonFiniteValues) {
    EXPECT_NE(positive_double_error("1e999").find("out of range"),
              std::string::npos);
    EXPECT_NE(positive_double_error("inf").find("must be finite"),
              std::string::npos);
    EXPECT_NE(positive_double_error("nan").find("must be finite"),
              std::string::npos);
}

/// Parses one --requests value through a fresh parser and returns the
/// cli_error message get_positive_int produced (empty if it accepted).
std::string positive_int_error(const std::string& value) {
    arg_parser parser;
    parser.add_option("requests", "20000", "total arrivals");
    const std::string arg = "--requests=" + value;
    const std::array argv{"prog", arg.c_str()};
    if (!parser.parse(static_cast<int>(argv.size()), argv.data())) {
        return "help?";
    }
    try {
        (void)parser.get_positive_int("requests");
        return "";
    } catch (const cli_error& e) {
        return e.what();
    }
}

TEST(ArgParser, PositiveIntAcceptsOneAndAbove) {
    EXPECT_EQ(positive_int_error("1"), "");
    EXPECT_EQ(positive_int_error("250000"), "");
}

TEST(ArgParser, PositiveIntRejectsZeroNegativesAndGarbagePrecisely) {
    EXPECT_NE(positive_int_error("0").find("--requests must be >= 1"),
              std::string::npos);
    EXPECT_NE(positive_int_error("0").find("'0'"), std::string::npos);
    EXPECT_NE(positive_int_error("-1").find("--requests must be >= 1"),
              std::string::npos);
    EXPECT_NE(positive_int_error("1.5").find("expects an integer"),
              std::string::npos);
}

TEST(ArgParser, AdaptiveOptionsDeclareDocumentedDefaults) {
    arg_parser parser;
    parser.add_adaptive_options();
    const std::array argv{"prog"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(parser.get_flag("adaptive"));
    EXPECT_DOUBLE_EQ(parser.get_positive_double("ci-width"), 0.5);
    EXPECT_EQ(parser.get_int("min-reps"), 3);
    EXPECT_EQ(parser.get_int("max-reps"), 0);
}

} // namespace

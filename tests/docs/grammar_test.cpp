// Keeps docs/scenario-grammar.md honest. The key table in that page is
// machine-extracted here and checked against the parser itself:
//
//   * the documented key set must equal the parser's key set exactly
//     (extracted from the "unknown scenario key" error, so a key added
//     to the grammar without a docs row fails, and vice versa);
//   * every `example` cell must be a complete scenario string that
//     parses, validates, and round-trips through to_string.
//
// KDC_DOCS_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree docs/ directory.

#include "core/fault_injection.hpp"
#include "core/scenario.hpp"
#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

using kdc::cli_error;
using kdc::core::parse_scenario;
using kdc::core::scenario;
using kdc::core::to_string;
using kdc::core::validate_scenario;

std::string read_grammar_page() {
    const std::string path = std::string(KDC_DOCS_DIR) + "/scenario-grammar.md";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// The parser is the authority on which keys exist: an unknown key's
// cli_error enumerates the valid set.
std::set<std::string> parser_key_set() {
    std::set<std::string> keys;
    try {
        (void)parse_scenario("kd:n=512,zzz=1");
        ADD_FAILURE() << "parser accepted an unknown key";
    } catch (const cli_error& err) {
        const std::string message = err.what();
        const std::string marker = "valid keys: ";
        const auto at = message.find(marker);
        EXPECT_NE(at, std::string::npos) << message;
        std::istringstream list(message.substr(at + marker.size()));
        std::string key;
        while (std::getline(list, key, ',')) {
            const auto begin = key.find_first_not_of(' ');
            const auto end = key.find_last_not_of(' ');
            if (begin != std::string::npos) {
                keys.insert(key.substr(begin, end - begin + 1));
            }
        }
    }
    return keys;
}

struct doc_row {
    std::string key;
    std::string example;
};

std::string strip_backticks(std::string cell) {
    cell.erase(std::remove(cell.begin(), cell.end(), '`'), cell.end());
    const auto begin = cell.find_first_not_of(' ');
    if (begin == std::string::npos) {
        return "";
    }
    const auto end = cell.find_last_not_of(' ');
    return cell.substr(begin, end - begin + 1);
}

// Table rows look like: | `key` | values | default | meaning | `example` |
// The key is the first cell, the example the last non-empty cell.
std::vector<doc_row> documented_rows(const std::string& page) {
    std::vector<doc_row> rows;
    std::istringstream lines(page);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("| `", 0) != 0) {
            continue;
        }
        std::vector<std::string> cells;
        std::istringstream parts(line);
        std::string cell;
        while (std::getline(parts, cell, '|')) {
            cells.push_back(cell);
        }
        while (!cells.empty() && strip_backticks(cells.back()).empty()) {
            cells.pop_back();
        }
        if (cells.size() < 3) {
            continue;
        }
        rows.push_back({strip_backticks(cells[1]), strip_backticks(cells.back())});
    }
    return rows;
}

TEST(DocsGrammar, KeyTableMatchesParserExactly) {
    const std::set<std::string> parser_keys = parser_key_set();
    ASSERT_FALSE(parser_keys.empty());

    std::set<std::string> doc_keys;
    for (const doc_row& row : documented_rows(read_grammar_page())) {
        EXPECT_TRUE(doc_keys.insert(row.key).second)
            << "key '" << row.key << "' documented twice";
    }

    for (const std::string& key : parser_keys) {
        EXPECT_TRUE(doc_keys.count(key))
            << "parser key '" << key
            << "' has no row in docs/scenario-grammar.md";
    }
    for (const std::string& key : doc_keys) {
        EXPECT_TRUE(parser_keys.count(key))
            << "documented key '" << key << "' does not exist in the parser";
    }
}

TEST(DocsGrammar, EveryExampleParsesValidatesAndRoundTrips) {
    const std::vector<doc_row> rows = documented_rows(read_grammar_page());
    ASSERT_FALSE(rows.empty());

    for (const doc_row& row : rows) {
        SCOPED_TRACE("key '" + row.key + "' example '" + row.example + "'");
        ASSERT_FALSE(row.example.empty());

        scenario parsed;
        ASSERT_NO_THROW(parsed = parse_scenario(row.example));
        ASSERT_NO_THROW(validate_scenario(parsed));

        // The example must actually exercise its own key (defaults do
        // not count): re-parsing the canonical spelling must mention it
        // or the row documents the family prefix itself.
        const std::string canonical = to_string(parsed);
        scenario round_tripped;
        ASSERT_NO_THROW(round_tripped = parse_scenario(canonical));
        EXPECT_EQ(round_tripped, parsed) << "canonical form: " << canonical;
    }
}

TEST(DocsGrammar, ErrorCatalogCoversUnknownKeyMessage) {
    // The error catalog section transcribes parser messages; spot-check
    // that the load-bearing one (the key list) is present verbatim.
    const std::string page = read_grammar_page();
    std::string expected = "unknown scenario key '...'; valid keys: ";
    bool first = true;
    for (const std::string& key : parser_key_set()) {
        if (!first) {
            expected += ", ";
        }
        expected += key;
        first = false;
    }
    EXPECT_NE(page.find(expected), std::string::npos)
        << "docs error catalog is missing or stale: " << expected;

    // The kernel=level + par=round refusal is transcribed verbatim too.
    std::string level_round;
    try {
        (void)parse_scenario("kd:n=512,k=2,d=4,kernel=level,par=round");
    } catch (const cli_error& err) {
        level_round = err.what();
    }
    ASSERT_FALSE(level_round.empty());
    EXPECT_NE(page.find(level_round), std::string::npos)
        << "docs error catalog is missing or stale: " << level_round;

    // So are the unknown-family, dead-key and 32-bit bin-id refusals, with
    // the offending input spelled '...' as the catalog does.
    const auto catalog_form = [](const std::string& text,
                                 const std::vector<std::string>& inputs) {
        std::string message;
        try {
            (void)parse_scenario(text);
        } catch (const cli_error& err) {
            message = err.what();
        }
        EXPECT_FALSE(message.empty()) << text << " was accepted";
        for (const std::string& input : inputs) {
            const auto at = message.find(input);
            EXPECT_NE(at, std::string::npos) << message;
            if (at != std::string::npos) {
                message.replace(at, input.size(), "...");
            }
        }
        return message;
    };
    for (const std::string& line :
         {catalog_form("zzz:n=512", {"zzz"}),
          catalog_form("kd:n=512,k=2,d=4,beta=0.3",
                       {"beta", "kd",
                        "n, k, d, balls, replacement, kernel, par, metric, "
                        "warmup"}),
          catalog_form("kd:n=5e9,k=2,d=4,kernel=perbin", {"5000000000"})}) {
        EXPECT_NE(page.find(line), std::string::npos)
            << "docs error catalog is missing or stale: " << line;
    }
}

// ---------------------------------------------------------------------------
// docs/robustness.md: the fault-site catalog and example plans are checked
// against core/fault_injection.hpp the same way the grammar page is checked
// against the scenario parser.
// ---------------------------------------------------------------------------

std::string read_robustness_page() {
    const std::string path = std::string(KDC_DOCS_DIR) + "/robustness.md";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// First backticked cell of each `| \`...\` |` table row inside the named
// "## ..." section (up to the next "## " heading).
std::vector<std::string> section_row_cells(const std::string& page,
                                           const std::string& heading) {
    std::vector<std::string> cells;
    std::istringstream lines(page);
    std::string line;
    bool inside = false;
    while (std::getline(lines, line)) {
        if (line.rfind("## ", 0) == 0) {
            inside = line == heading;
            continue;
        }
        if (inside && line.rfind("| `", 0) == 0) {
            const auto close = line.find('`', 3);
            if (close != std::string::npos) {
                cells.push_back(line.substr(3, close - 3));
            }
        }
    }
    return cells;
}

TEST(DocsRobustness, FaultSiteTableMatchesTheImplementationExactly) {
    const auto documented =
        section_row_cells(read_robustness_page(), "## Fault sites");
    const auto actual = kdc::core::fault_site_names();
    ASSERT_FALSE(documented.empty());
    // Same names, same order: the table IS the catalog.
    ASSERT_EQ(documented.size(), actual.size())
        << "docs/robustness.md site table has drifted from "
           "fault_site_names()";
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(documented[i], actual[i]) << "row " << i;
    }
}

TEST(DocsRobustness, EveryExamplePlanParses) {
    const auto plans =
        section_row_cells(read_robustness_page(), "## Example plans");
    ASSERT_FALSE(plans.empty());
    for (const std::string& plan : plans) {
        SCOPED_TRACE("plan '" + plan + "'");
        EXPECT_NO_THROW((void)kdc::core::fault_plan::parse(plan));
    }
}

TEST(DocsRobustness, GrammarActionsAreTranscribedVerbatim) {
    const std::string page = read_robustness_page();
    for (const char* needle :
         {"'crash' | 'io_error' | 'alloc_fail'", "KDC_FAULTS",
          "--inject-faults", "crc32 <8 lowercase hex digits>"}) {
        EXPECT_NE(page.find(needle), std::string::npos)
            << "docs/robustness.md lost the load-bearing text: " << needle;
    }
}

}  // namespace

#include "core/fault_injection.hpp"

#include <array>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <new>

#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace kdc::core {

namespace {

constexpr std::array<const char*, fault_site_count> site_names = {
    "shard.pregen",       "shard.bucket",   "shard.gather",
    "shard.select",       "shard.handoff",  "shard.commit",
    "snapshot.serialize", "snapshot.write", "snapshot.rename",
    "journal.commit",     "resume.load",    "resume.validate",
    "steady.pilot",       "perbin.alloc",   "serve.accept",
    "serve.batch",
};

/// The armed plan and its hit counters. The plan is written under the
/// mutex by arm/disarm and read under it by the slow path; the counters
/// are plain values behind the same mutex (the slow path only runs at
/// phase boundaries, a handful of times per chunk, so contention is nil).
std::mutex plan_mutex;
fault_plan armed_plan;                              // NOLINT
std::array<std::uint64_t, fault_site_count> hits{}; // NOLINT

std::string known_sites() {
    std::string out;
    for (const char* name : site_names) {
        if (!out.empty()) {
            out += ", ";
        }
        out += name;
    }
    return out;
}

fault_site parse_site(std::string_view text) {
    for (std::size_t i = 0; i < site_names.size(); ++i) {
        if (text == site_names[i]) {
            return static_cast<fault_site>(i);
        }
    }
    throw cli_error("fault plan: unknown site '" + std::string(text) +
                    "'; known sites: " + known_sites());
}

fault_action parse_action(std::string_view text) {
    if (text == "crash") {
        return fault_action::crash;
    }
    if (text == "io_error") {
        return fault_action::io_error;
    }
    if (text == "alloc_fail") {
        return fault_action::alloc_fail;
    }
    throw cli_error("fault plan: unknown action '" + std::string(text) +
                    "'; actions: crash, io_error, alloc_fail");
}

std::uint64_t parse_hit(std::string_view text) {
    if (text.empty()) {
        throw cli_error("fault plan: empty hit count after '@'");
    }
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9' || value > 1'000'000'000'000ULL) {
            throw cli_error("fault plan: hit count must be a positive "
                            "integer, got '" +
                            std::string(text) + "'");
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value == 0) {
        throw cli_error("fault plan: hit count is 1-based, got '" +
                        std::string(text) + "'");
    }
    return value;
}

fault_rule parse_rule(std::string_view text) {
    const auto colon = text.find(':');
    if (colon == std::string_view::npos || colon == 0) {
        throw cli_error("fault plan: malformed rule '" + std::string(text) +
                        "': expected site:action[@hit]");
    }
    fault_rule rule;
    rule.site = parse_site(text.substr(0, colon));
    std::string_view action = text.substr(colon + 1);
    const auto at = action.find('@');
    if (at != std::string_view::npos) {
        rule.hit = parse_hit(action.substr(at + 1));
        action = action.substr(0, at);
    }
    rule.action = parse_action(action);
    return rule;
}

} // namespace

namespace detail {

std::atomic<bool> faults_armed_flag{false}; // NOLINT

void fault_point_slow(fault_site site) {
    fault_action action{};
    bool fire = false;
    {
        const std::lock_guard<std::mutex> lock(plan_mutex);
        const auto index = static_cast<std::size_t>(site);
        const std::uint64_t hit = ++hits[index];
        for (const fault_rule& rule : armed_plan.rules) {
            if (rule.site == site && rule.hit == hit) {
                action = rule.action;
                fire = true;
                break;
            }
        }
    }
    if (!fire) {
        return;
    }
    switch (action) {
    case fault_action::crash:
        // A simulated power cut: no unwinding, no flushes, no atexit.
        std::raise(SIGKILL);
        std::abort(); // unreachable on POSIX; keeps the path total
    case fault_action::io_error:
        throw injected_io_error(site);
    case fault_action::alloc_fail:
        throw std::bad_alloc();
    }
}

} // namespace detail

const char* fault_site_name(fault_site site) noexcept {
    const auto index = static_cast<std::size_t>(site);
    return index < site_names.size() ? site_names[index] : "invalid";
}

std::vector<std::string> fault_site_names() {
    return {site_names.begin(), site_names.end()};
}

std::vector<fault_site> snapshot_path_sites() {
    return {fault_site::snapshot_serialize, fault_site::snapshot_write,
            fault_site::snapshot_rename,    fault_site::journal_commit,
            fault_site::resume_load,        fault_site::resume_validate,
            fault_site::steady_pilot};
}

std::vector<fault_site> serve_sites() {
    return {fault_site::serve_accept, fault_site::serve_batch};
}

const char* fault_action_name(fault_action action) noexcept {
    switch (action) {
    case fault_action::io_error:
        return "io_error";
    case fault_action::alloc_fail:
        return "alloc_fail";
    case fault_action::crash:
        break;
    }
    return "crash";
}

fault_plan fault_plan::parse(std::string_view spec) {
    fault_plan plan;
    std::string_view rest = spec;
    while (!rest.empty()) {
        const auto semi = rest.find(';');
        const std::string_view rule = rest.substr(0, semi);
        rest = semi == std::string_view::npos ? std::string_view{}
                                              : rest.substr(semi + 1);
        if (rule.empty()) {
            throw cli_error("fault plan: empty rule (double or trailing "
                            "';'?) in '" +
                            std::string(spec) + "'");
        }
        plan.rules.push_back(parse_rule(rule));
    }
    return plan;
}

injected_io_error::injected_io_error(fault_site site)
    : std::runtime_error(std::string("injected io_error at site ") +
                         fault_site_name(site)),
      site_(site) {}

void arm_faults(fault_plan plan) {
    const bool arm = !plan.empty();
    {
        const std::lock_guard<std::mutex> lock(plan_mutex);
        armed_plan = std::move(plan);
        hits.fill(0);
    }
    detail::faults_armed_flag.store(arm, std::memory_order_relaxed);
}

void disarm_faults() noexcept {
    detail::faults_armed_flag.store(false, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(plan_mutex);
    armed_plan.rules.clear();
    hits.fill(0);
}

bool faults_armed() noexcept {
    return detail::faults_armed_flag.load(std::memory_order_relaxed);
}

bool arm_faults_from_cli(const arg_parser& args) {
    std::string spec;
    if (const char* env = std::getenv("KDC_FAULTS");
        env != nullptr && *env != '\0') {
        spec = env; // the env override wins over the flag
    } else {
        spec = args.get_string("inject-faults");
    }
    if (spec.empty()) {
        return false;
    }
    arm_faults(fault_plan::parse(spec));
    return true;
}

} // namespace kdc::core

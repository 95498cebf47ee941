#include "core/level_profile.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/cli.hpp"
#include "support/crc32.hpp"

namespace kdc::core {

level_profile::level_profile(std::uint64_t n) : counts_(1, n), n_(n) {
    KD_EXPECTS_MSG(n >= 1, "a profile needs at least one bin");
}

level_profile level_profile::from_loads(const load_vector& loads) {
    KD_EXPECTS_MSG(!loads.empty(), "a profile needs at least one bin");
    level_profile profile(loads.size());
    profile.counts_[0] = 0;
    for (const bin_load load : loads) {
        if (load >= profile.counts_.size()) {
            profile.counts_.resize(std::max<std::size_t>(
                                       load + 1, profile.counts_.size() * 2),
                                   0);
        }
        ++profile.counts_[load];
        profile.total_balls_ += load;
        profile.max_level_ = std::max<std::uint64_t>(profile.max_level_, load);
    }
    return profile;
}

level_profile level_profile::from_counts(std::vector<std::uint64_t> counts) {
    std::uint64_t n = 0;
    for (const std::uint64_t count : counts) {
        n += count;
    }
    level_profile profile(n);
    profile.counts_ = std::move(counts);
    for (std::size_t level = 0; level < profile.counts_.size(); ++level) {
        if (profile.counts_[level] != 0) {
            profile.total_balls_ += level * profile.counts_[level];
            profile.max_level_ = level;
        }
    }
    return profile;
}

level_state::level_state(const level_profile& profile)
    : counts(profile.level_capacity()), top(profile.max_level()) {
    for (std::uint64_t level = 0; level <= top; ++level) {
        counts[level] = profile.bins_at(level);
    }
    while (counts[base] == 0) {
        ++base;
    }
}

load_vector level_profile::to_sorted_loads() const {
    load_vector loads;
    loads.reserve(n_);
    for (std::uint64_t level = max_level_ + 1; level-- > 0;) {
        loads.insert(loads.end(), counts_[level],
                     static_cast<bin_load>(level));
    }
    return loads;
}

namespace {

/// Magic line of the snapshot format; the trailing integer is the version.
/// Version 2 adds the CRC-32 trailer line ("crc32 <8 hex digits>") over
/// every preceding byte; version-1 files (no trailer) are refused.
constexpr const char* snapshot_magic = "kdc-level-profile";
constexpr int snapshot_version = 2;

} // namespace

void level_profile::save(std::ostream& out) const {
    std::ostringstream body;
    body << snapshot_magic << ' ' << snapshot_version << '\n';
    body << n_ << ' ' << (max_level_ + 1) << '\n';
    for (std::uint64_t level = 0; level <= max_level_; ++level) {
        body << counts_[level] << (level == max_level_ ? '\n' : ' ');
    }
    const std::string text = body.str();
    out << text << "crc32 " << std::hex << std::setw(8) << std::setfill('0')
        << crc32(text) << std::dec << '\n';
    if (!out) {
        throw cli_error("level_profile snapshot write failed");
    }
}

std::string checked_snapshot_body(std::istream& in, const char* what) {
    const std::string prefix = std::string(what) + " snapshot: ";
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    // Locate the trailer: the LAST line must be "crc32 <8 hex digits>".
    // The check runs before any field is parsed, so no corrupted byte —
    // header, counts or the trailer itself — ever reaches the parser.
    const auto at = text.rfind("crc32 ");
    if (at == std::string::npos || (at != 0 && text[at - 1] != '\n')) {
        throw cli_error(prefix + "missing 'crc32 <hex>' trailer (truncated "
                                 "file or pre-v2 snapshot?)");
    }
    const std::string hex = text.substr(at + 6);
    if (hex.size() != 9 || hex.back() != '\n') {
        throw cli_error(prefix + "malformed crc32 trailer '" +
                        hex.substr(0, 16) + "'");
    }
    std::uint32_t stated = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const char c = hex[i];
        std::uint32_t digit = 0;
        if (c >= '0' && c <= '9') {
            digit = static_cast<std::uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<std::uint32_t>(c - 'a') + 10;
        } else {
            throw cli_error(prefix + "malformed crc32 trailer '" + hex +
                            "' (expected 8 lowercase hex digits)");
        }
        stated = (stated << 4) | digit;
    }
    const std::string body = text.substr(0, at);
    const std::uint32_t actual = crc32(body);
    if (actual != stated) {
        std::ostringstream msg;
        msg << prefix << "CRC mismatch (stated " << std::hex << std::setw(8)
            << std::setfill('0') << stated << ", computed " << std::setw(8)
            << actual << "): the file is corrupted or truncated";
        throw cli_error(msg.str());
    }
    return body;
}

level_profile level_profile::load(std::istream& in) {
    const std::string body = checked_snapshot_body(in, "level_profile");
    std::istringstream fields(body);
    std::string magic;
    int version = 0;
    if (!(fields >> magic >> version)) {
        throw cli_error(
            "level_profile snapshot: missing header (expected '" +
            std::string(snapshot_magic) + " <version>')");
    }
    if (magic != snapshot_magic) {
        throw cli_error(
            "level_profile snapshot: bad magic '" + magic + "' (expected '" +
            std::string(snapshot_magic) + "')");
    }
    if (version != snapshot_version) {
        throw cli_error(
            "level_profile snapshot: unsupported version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(snapshot_version) + ")");
    }
    std::uint64_t n = 0;
    std::uint64_t levels = 0;
    if (!(fields >> n >> levels) || n == 0 || levels == 0) {
        throw cli_error("level_profile snapshot: malformed bin or "
                        "level count");
    }
    // Every count needs at least two body bytes (digit + separator), so a
    // declared level count beyond the body size cannot be honest — refuse
    // it before it turns into a giant allocation.
    if (levels > body.size()) {
        throw cli_error("level_profile snapshot: declared level count " +
                        std::to_string(levels) +
                        " exceeds what the file could hold");
    }
    level_profile profile(n);
    profile.counts_.assign(levels, 0);
    std::uint64_t bins = 0;
    for (std::uint64_t level = 0; level < levels; ++level) {
        std::uint64_t count = 0;
        if (!(fields >> count)) {
            throw cli_error(
                "level_profile snapshot: expected " + std::to_string(levels) +
                " per-level counts, got " + std::to_string(level));
        }
        if (count == 0) {
            continue;
        }
        if (count > n - bins) {
            throw cli_error("level_profile snapshot: counts through level " +
                            std::to_string(level) +
                            " sum past the header's " + std::to_string(n) +
                            " bins");
        }
        if (level != 0 && count > (std::numeric_limits<std::uint64_t>::max() -
                                   profile.total_balls_) /
                                      level) {
            throw cli_error("level_profile snapshot: the ball total "
                            "overflows 64 bits at level " +
                            std::to_string(level));
        }
        profile.counts_[level] = count;
        profile.total_balls_ += level * count;
        profile.max_level_ = level;
        bins += count;
    }
    fields >> std::ws;
    if (!fields.eof()) {
        throw cli_error("level_profile snapshot: trailing data after the "
                        "declared " +
                        std::to_string(levels) + " per-level counts");
    }
    if (bins != n) {
        throw cli_error(
            "level_profile snapshot: counts sum to " + std::to_string(bins) +
            " bins but the header promises " + std::to_string(n));
    }
    return profile;
}

bool level_profile::operator==(const level_profile& other) const {
    if (n_ != other.n_ || max_level_ != other.max_level_ ||
        total_balls_ != other.total_balls_) {
        return false;
    }
    return std::equal(counts_.begin(),
                      counts_.begin() +
                          static_cast<std::ptrdiff_t>(max_level_ + 1),
                      other.counts_.begin());
}

load_metrics level_profile::metrics() const {
    load_metrics out;
    out.max_load = max_level_;
    out.total_balls = total_balls_;
    out.empty_bins = counts_[0];
    std::uint64_t min_level = 0;
    while (counts_[min_level] == 0) {
        ++min_level; // terminates: some level holds a bin (n >= 1)
    }
    out.min_load = min_level;
    out.mean_load =
        static_cast<double>(total_balls_) / static_cast<double>(n_);
    out.gap = static_cast<double>(out.max_load) - out.mean_load;
    return out;
}

} // namespace kdc::core

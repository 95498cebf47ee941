#include "support/huge_pages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace {

using kdc::huge_page_min_bytes;
using kdc::zeroed_vector;

/// The VmFlags tokens of the mapping that holds `address`, read from
/// /proc/self/smaps; nullopt when no mapping holds it or smaps is absent.
std::optional<std::vector<std::string>> vm_flags_of(const void* address) {
    const auto target = reinterpret_cast<std::uintptr_t>(address);
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool inside = false;
    while (std::getline(smaps, line)) {
        unsigned long long lo = 0;
        unsigned long long hi = 0;
        if (std::sscanf(line.c_str(), "%llx-%llx ", &lo, &hi) == 2) {
            inside = lo <= target && target < hi;
        } else if (inside && line.rfind("VmFlags:", 0) == 0) {
            std::istringstream tokens(line.substr(8));
            std::vector<std::string> flags;
            for (std::string flag; tokens >> flag;) {
                flags.push_back(flag);
            }
            return flags;
        }
    }
    return std::nullopt;
}

bool lists(const std::vector<std::string>& flags, const std::string& flag) {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
}

void skip_without_thp() {
#if !defined(__linux__)
    GTEST_SKIP() << "transparent huge pages are Linux only";
#else
    if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage")) {
        GTEST_SKIP() << "kernel built without transparent huge pages";
    }
#endif
}

TEST(ZeroedVector, HasTheRequestedSizeAndValue) {
    EXPECT_TRUE(zeroed_vector<std::uint32_t>(0).empty());
    EXPECT_EQ(zeroed_vector<double>(3), std::vector<double>(3, 0.0));
    for (const std::size_t n : {std::size_t{1000}, huge_page_min_bytes / 4,
                                huge_page_min_bytes / 4 + 1}) {
        const auto buffer = zeroed_vector<std::uint32_t>(n);
        ASSERT_EQ(buffer.size(), n);
        EXPECT_TRUE(std::all_of(buffer.begin(), buffer.end(),
                                [](std::uint32_t v) { return v == 0; }));
    }
}

TEST(ZeroedVector, LargeBufferIsAdvisedForHugePages) {
    skip_without_thp();
    if (IsSkipped()) {
        return;
    }
    const auto buffer = zeroed_vector<std::uint32_t>(huge_page_min_bytes / 4);
    const auto flags = vm_flags_of(buffer.data());
    ASSERT_TRUE(flags.has_value()) << "no mapping holds the buffer";
    EXPECT_TRUE(lists(*flags, "hg"));
}

TEST(ZeroedVector, BufferBelowTheThresholdIsNotAdvised) {
    skip_without_thp();
    if (IsSkipped()) {
        return;
    }
    const auto buffer =
        zeroed_vector<std::uint32_t>(huge_page_min_bytes / 4 - 1024);
    const auto flags = vm_flags_of(buffer.data());
    ASSERT_TRUE(flags.has_value()) << "no mapping holds the buffer";
    EXPECT_FALSE(lists(*flags, "hg"));
}

TEST(ZeroedVector, AdvisedProcessMatchesAnUnadvisedStart) {
    // n = 2^23 bins of 4 bytes is exactly the threshold, so the first
    // process's loads (and its round stamps) are advised; the second starts
    // from a plain caller-supplied vector.
    constexpr std::uint64_t n = std::uint64_t{1} << 23;
    static_assert(n * sizeof(kdc::core::bin_load) >= huge_page_min_bytes);
    kdc::core::kd_choice_process advised(n, 8, 16, 5);
    kdc::core::kd_choice_process plain(kdc::core::load_vector(n, 0), 8, 16,
                                       5);
    advised.run_balls(std::uint64_t{1} << 21);
    plain.run_balls(std::uint64_t{1} << 21);
    EXPECT_EQ(advised.balls_placed(), plain.balls_placed());
    EXPECT_TRUE(advised.loads() == plain.loads());
}

} // namespace

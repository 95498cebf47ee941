// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum behind the
// snapshot trailers (core/level_profile.hpp, core/snapshot_stage.cpp). A
// 32-bit CRC detects every burst error up to 32 bits long, so in particular
// EVERY single-byte corruption of a snapshot is caught by the trailer check
// before any field is parsed.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace kdc {

namespace detail {

consteval std::array<std::uint32_t, 256> make_crc32_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
        std::uint32_t crc = byte;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
        }
        table[byte] = crc;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> crc32_table =
    make_crc32_table();

} // namespace detail

/// CRC-32 of the given bytes (standard init/final XOR with ~0).
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) noexcept {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char c : bytes) {
        crc = (crc >> 8) ^
              detail::crc32_table[(crc ^ static_cast<unsigned char>(c)) &
                                  0xFFu];
    }
    return crc ^ 0xFFFFFFFFu;
}

} // namespace kdc

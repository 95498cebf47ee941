// Large per-bin buffers backed by transparent huge pages.
//
// The per-bin kernels keep O(n) state: load vectors, duplicate stamps, the
// sharded kernel's packed bin state. At n = 2^25 building that state is
// bound by page faults, one per 4 KiB page on first touch. zeroed_vector
// allocates the buffer, asks the kernel to back the still-untouched range
// with transparent huge pages (madvise(MADV_HUGEPAGE)), and only then fills
// it, so the fill faults once per 2 MiB. This needs THP in `madvise` or
// `always` mode (/sys/kernel/mm/transparent_hugepage/enabled); under `never`
// the advice does nothing. Contents are the same either way.
#pragma once

#include <cstddef>
#include <vector>

namespace kdc {

/// Only buffers of at least this many bytes are advised. glibc serves every
/// allocation this large with a fresh mmap (its dynamic mmap threshold never
/// exceeds 32 MiB on 64-bit targets), so the range is untouched when it is
/// advised and no other allocation shares its pages.
inline constexpr std::size_t huge_page_min_bytes = std::size_t{32} << 20;

/// Advises [data, data + bytes), its start rounded down to a page, for
/// transparent huge pages when bytes >= huge_page_min_bytes. A no-op below
/// the threshold and where MADV_HUGEPAGE does not exist; madvise errors are
/// ignored (the buffer then simply keeps its small pages).
void advise_huge_pages(const void* data, std::size_t bytes) noexcept;

/// n value-initialized (zero) elements, huge-page backed when the buffer is
/// at least huge_page_min_bytes.
template <typename T>
[[nodiscard]] std::vector<T> zeroed_vector(std::size_t n) {
    std::vector<T> buffer;
    buffer.reserve(n);
    advise_huge_pages(buffer.data(), n * sizeof(T));
    buffer.resize(n);
    return buffer;
}

} // namespace kdc

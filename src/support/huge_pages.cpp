#include "support/huge_pages.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace kdc {

void advise_huge_pages(const void* data, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
    if (bytes < huge_page_min_bytes) {
        return;
    }
    const long page_size = ::sysconf(_SC_PAGESIZE);
    if (page_size <= 0) {
        return;
    }
    const auto page = static_cast<std::uintptr_t>(page_size);
    const auto begin = reinterpret_cast<std::uintptr_t>(data);
    const std::uintptr_t start = begin - begin % page;
    // The return value is ignored on purpose: without THP the buffer keeps
    // its small pages and its contents are the same.
    (void)::madvise(reinterpret_cast<void*>(start), begin + bytes - start,
                    MADV_HUGEPAGE);
#else
    (void)data;
    (void)bytes;
#endif
}

} // namespace kdc

// Page-level advice for large word arrays: transparent huge pages for a
// buffer about to be filled, and eager physical-page release for a buffer
// about to be freed.
//
// Huge pages: a DRAM-resident filter's word array spans far more 4 KiB
// pages than the TLB can map, so every random word fetch also pays a page
// walk. Where THP is in `madvise` mode, madvise(MADV_HUGEPAGE) before the
// first touch lets the kernel back the array's 2 MiB-aligned interior with
// huge pages, leaving one cache miss per fetch.
//
// Release: freeing a drained segment's word array hands the bytes back to
// the allocator, but glibc keeps small-and-medium chunks resident in its
// arena indefinitely — a server that grew to N segments and compacted
// back down still holds the peak RSS. madvise(MADV_DONTNEED) on the
// buffer's page-aligned interior returns the physical pages to the OS
// immediately while leaving the mapping (and the allocator's chunk
// bookkeeping around the buffer) untouched: the region stays valid
// memory that simply rereads as zeroes, which is fine for a buffer
// whose next event is its own free().
//
// Both round the range *inward* so bytes the allocator may own just
// outside the buffer are never advised.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace mpcbf::util {

/// The PMD huge-page size on x86-64 and 4 KiB-page arm64. On other page
/// geometries advising 2 MiB-aligned ranges is still correct; the kernel
/// simply backs whichever of its own huge pages fit inside.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {

/// madvise()s the `align`-aligned interior of [p, p+n) with `advice`.
/// Returns the bytes advised (0 when no aligned block fits, the call
/// fails, or the platform lacks madvise).
inline std::size_t advise_interior(void* p, std::size_t n, std::uintptr_t align,
                                   int advice) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  if (p == nullptr || n == 0) return 0;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (addr + align - 1) & ~(align - 1);
  const std::uintptr_t last = (addr + n) & ~(align - 1);
  if (last <= first) return 0;
  if (::madvise(reinterpret_cast<void*>(first), last - first, advice) != 0) {
    return 0;
  }
  return last - first;
#else
  (void)p;
  (void)n;
  (void)align;
  (void)advice;
  return 0;
#endif
}

}  // namespace detail

/// Asks for transparent huge pages on the 2 MiB-aligned interior of
/// [p, p+n). Call before the first touch: pages already faulted in stay
/// 4 KiB. A buffer with no aligned 2 MiB block inside (any filter under
/// 2 MiB) is left alone, so small filters never grow their RSS. Returns
/// the bytes advised; 0 where THP is unavailable.
inline std::size_t advise_huge_pages(void* p, std::size_t n) noexcept {
#if defined(MADV_HUGEPAGE)
  return detail::advise_interior(p, n, kHugePageBytes, MADV_HUGEPAGE);
#else
  (void)p;
  (void)n;
  return 0;
#endif
}

/// Drops the resident pages fully inside [p, p+n). Returns the bytes
/// advised (0 when no full page fits or the platform lacks madvise). The
/// caller must treat the buffer's contents as destroyed.
inline std::size_t drop_resident_pages(void* p, std::size_t n) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  static const auto page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  return detail::advise_interior(p, n, page, MADV_DONTNEED);
#else
  (void)p;
  (void)n;
  return 0;
#endif
}

}  // namespace mpcbf::util

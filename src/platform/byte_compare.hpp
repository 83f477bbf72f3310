// Word-at-a-time comparison of two byte images, the scan under every diff
// (paper §4.2: "each byte on the dirty page must be compared to its
// corresponding byte on the original page").  mem::diff_bytes cuts byte
// ranges with it; idx::diff_runs maps its hits to elements.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hdsm::plat {

/// First offset in [i, end) where `a` and `b` differ, or `end`.  Equal
/// 8-byte words (at offsets that are multiples of 8) are skipped; on a
/// little-endian host the lowest set byte of a differing pair's XOR names
/// its first differing byte.
inline std::size_t first_diff(const std::byte* a, const std::byte* b,
                              std::size_t i, std::size_t end) {
  while (i < end && i % 8 != 0) {
    if (a[i] != b[i]) return i;
    ++i;
  }
  while (i + 8 <= end) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    if (wa != wb) {
      if constexpr (std::endian::native == std::endian::little) {
        return i + static_cast<std::size_t>(std::countr_zero(wa ^ wb)) / 8;
      } else {
        while (a[i] == b[i]) ++i;
        return i;
      }
    }
    i += 8;
  }
  while (i < end) {
    if (a[i] != b[i]) return i;
    ++i;
  }
  return end;
}

}  // namespace hdsm::plat

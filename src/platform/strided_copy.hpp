// Element copies at a stride: the gather of a strided update run into its
// block (pack) and the scatter of a block's elements back to their stride
// (apply).  The common element sizes get a fixed-size copy the compiler
// inlines, instead of one memcpy call per element.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>

namespace hdsm::plat {

/// Copy `count` elements of `elem` bytes from `src`, `src_step` bytes
/// apart, to `dst`, `dst_step` bytes apart.  The ranges must not overlap.
inline void strided_copy(std::byte* dst, std::size_t dst_step,
                         const std::byte* src, std::size_t src_step,
                         std::size_t elem, std::size_t count) {
  const auto copy = [&](auto size) {
    for (std::size_t k = 0; k < count; ++k) {
      std::memcpy(dst + k * dst_step, src + k * src_step, size);
    }
  };
  switch (elem) {
    case 4:
      return copy(std::integral_constant<std::size_t, 4>{});
    case 8:
      return copy(std::integral_constant<std::size_t, 8>{});
    case 16:
      return copy(std::integral_constant<std::size_t, 16>{});
    default:
      return copy(elem);
  }
}

}  // namespace hdsm::plat

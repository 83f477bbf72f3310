#include "memory/diff.hpp"

#include <stdexcept>

#include "platform/byte_compare.hpp"

namespace hdsm::mem {

namespace {

/// First equal byte index in [i, len), or len.
std::size_t find_same(const std::byte* a, const std::byte* b, std::size_t i,
                      std::size_t len) {
  while (i < len) {
    if (a[i] == b[i]) return i;
    ++i;
  }
  return len;
}

}  // namespace

void diff_bytes(const std::byte* current, const std::byte* twin,
                std::size_t len, std::size_t base_offset,
                std::vector<ByteRange>& out) {
  if (!out.empty() && base_offset < out.back().begin) {
    // The back-merge below assumes callers scan pages in ascending offset
    // order; silently accepting an out-of-order window would merge wrong
    // ranges.  One compare per page — not per byte — so this is free.
    throw std::invalid_argument(
        "diff_bytes: windows must be diffed in ascending offset order");
  }
  std::size_t i = 0;
  while (i < len) {
    const std::size_t d = plat::first_diff(current, twin, i, len);
    if (d == len) break;
    const std::size_t e = find_same(current, twin, d, len);
    const std::size_t begin = base_offset + d;
    const std::size_t end = base_offset + e;
    if (!out.empty() && begin <= out.back().end) {
      if (end > out.back().end) out.back().end = end;
    } else {
      out.push_back(ByteRange{begin, end});
    }
    i = e;
  }
}

std::size_t total_bytes(const std::vector<ByteRange>& ranges) noexcept {
  std::size_t n = 0;
  for (const ByteRange& r : ranges) n += r.length();
  return n;
}

}  // namespace hdsm::mem

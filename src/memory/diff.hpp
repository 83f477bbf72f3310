// Twin/diff computation (paper §4.2): "each byte on the dirty page must be
// compared to its corresponding byte on the original page."
//
// The scan is word-at-a-time with byte-exact range refinement.  The byte
// ranges serve the page-granularity baseline (baseline::PageDsm); the DSM
// collect walks written pages by the index table's elements instead
// (idx::diff_runs) and never builds a range list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdsm::mem {

/// A modified byte range [begin, end), offsets relative to the region base.
struct ByteRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t length() const noexcept { return end - begin; }
  bool operator==(const ByteRange&) const = default;
};

/// Compare `len` bytes of `current` against `twin`; append the maximal
/// differing ranges (offset by `base_offset`) to `out`.  A range that
/// begins exactly where `out.back()` ends extends it, so a change running
/// across successive calls (the cross-page case) stays one range.
///
/// Precondition: successive calls appending into the same `out` must scan
/// ascending, non-overlapping windows — `base_offset` must be at or after
/// the begin of `out.back()` — or the in-place merge would corrupt the
/// range list.  Violations throw std::invalid_argument.
void diff_bytes(const std::byte* current, const std::byte* twin,
                std::size_t len, std::size_t base_offset,
                std::vector<ByteRange>& out);

/// Total byte count covered by `ranges`.
std::size_t total_bytes(const std::vector<ByteRange>& ranges) noexcept;

}  // namespace hdsm::mem

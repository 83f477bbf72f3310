// Twin/diff computation (paper §4.2): "each byte on the dirty page must be
// compared to its corresponding byte on the original page."
//
// The scan is word-at-a-time with byte-exact range refinement.  An optional
// merge slack joins ranges separated by small unchanged gaps, trading a few
// redundant bytes for fewer ranges (and so fewer tags).
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

/// Compare `len` bytes of `current` against `twin`; append the differing
/// ranges (offset by `base_offset`) to `out`.  Ranges separated by an
/// unchanged gap of at most `merge_slack` bytes are merged — including
/// across successive calls (the cross-page case): a new range whose begin
/// is within `merge_slack` of `out.back().end` extends that range.
///
/// Precondition: successive calls appending into the same `out` must scan
/// ascending, non-overlapping windows — `base_offset` must be at or after
/// the begin of `out.back()` — or the in-place merge would corrupt the
/// range list.  Violations throw std::invalid_argument.
void diff_bytes(const std::byte* current, const std::byte* twin,
                std::size_t len, std::size_t base_offset,
                std::vector<ByteRange>& out, std::size_t merge_slack = 0);

/// Total byte count covered by `ranges`.
std::size_t total_bytes(const std::vector<ByteRange>& ranges) noexcept;

}  // namespace hdsm::mem

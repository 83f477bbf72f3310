// The CGT-RMR tag grammar of paper §3.2.
//
// A tag is a sequence of (m,n) tuples:
//   (m,n)                 scalar run: size m, count n
//   (m,-n)                pointer run: pointer size m, count n
//   (m,0)                 padding slot of m bytes; (0,0) means "no padding"
//   ((..)(..)...,n)       aggregate: nested tuple sequence repeated n times
//
// After every structure member the generated tag carries the padding tuple
// to the next member (or to the structure end) — hence the characteristic
// "(4,-1)(0,0)(4,1)(0,0)..." strings of the paper's Figure 3.
//
// Tags serve two roles in the DSM: (1) a full-image tag describes a whole
// GThV / thread-state image; (2) small per-update tags describe the element
// runs shipped by MTh_unlock.  Homogeneity between two nodes is detected by
// comparing tag strings for equality, exactly as in the paper.  Tags travel
// only in this text form: a binary encoding (the paper's §5 future work)
// was measured slower than the text and removed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.hpp"
#include "tags/layout.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::tags {

/// One tuple (or nested aggregate) of a tag.
struct TagItem {
  enum class Kind : std::uint8_t { Scalar, Pointer, Padding, Aggregate };

  Kind kind = Kind::Padding;
  std::uint64_t size = 0;   ///< scalar/pointer elem size, or padding bytes
  std::uint64_t count = 0;  ///< run length (pointers print negated); aggregate repeat
  std::vector<TagItem> children;  ///< aggregate members

  bool operator==(const TagItem& other) const;
};

/// A parsed or generated tag.
class Tag {
 public:
  Tag() = default;
  explicit Tag(std::vector<TagItem> items) : items_(std::move(items)) {}

  const std::vector<TagItem>& items() const noexcept { return items_; }
  std::vector<TagItem>& items() noexcept { return items_; }
  bool empty() const noexcept { return items_.empty(); }

  /// Exact paper text form, e.g. "(4,-1)(0,0)(4,1)(0,0)".
  std::string to_string() const;

  /// Parse the text form; throws std::invalid_argument on malformed input.
  static Tag parse(std::string_view text);

  /// Total number of data bytes the tag describes (padding included).
  std::uint64_t described_bytes() const;

  bool operator==(const Tag& other) const { return items_ == other.items_; }

 private:
  std::vector<TagItem> items_;
};

/// Generate the full-image tag of `t` on platform `p` — byte-for-byte what
/// the preprocessor-emitted sprintf() calls produce at run time (Figure 3).
Tag make_tag(const TypeDesc& t, const plat::PlatformDesc& p);

/// Tag for a single update run: `(elem_size, count)` or `(elem_size,-count)`
/// for pointers.
Tag make_run_tag(std::uint32_t elem_size, std::uint64_t count,
                 bool is_pointer);

/// Append the tag of one update run to `out` without building a Tag.  A
/// contiguous run (`stride` 1) renders exactly as
/// make_run_tag(elem_size, count, is_pointer).to_string(); a strided one as
/// the aggregate "((m,1)(p,0),n)" — one element and the p = (stride-1)*m
/// padding bytes to the next, n times (pointers print "(m,-1)").  The send
/// side renders every run of a payload through this into one reused
/// buffer.
void append_run_tag(std::string& out, std::uint32_t elem_size,
                    std::uint64_t count, bool is_pointer,
                    std::uint32_t stride = 1);

}  // namespace hdsm::tags

// The application-level index table of paper §4 (Table 1).
//
// "a table is built upon application start-up that contains the tag
//  information ... Each row in the table represents an element from the
//  GThV structure."  Rows hold (address, size, number); arrays are one row
//  with the element count in Number, pointers carry a negative Number, and
//  a padding row follows every member (size 0 / number 0 when there is no
//  padding — the (0,0) slots visible in Table 1).
//
// The table is the bridge of the hierarchical granularity scheme:
// inconsistency is detected at page level (the write trap names the written
// pages) and each written page is then walked against its twin by this
// table's elements (diff_runs), yielding architecture-independent element
// indexes that both sides of a heterogeneous pair agree on even though
// their sizes differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tags/layout.hpp"
#include "tags/tag.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::idx {

/// One table row: an element of the GThV structure, or a padding slot.
struct IndexRow {
  std::uint64_t offset = 0;  ///< region-relative byte offset
  std::uint32_t size = 0;    ///< element size on this platform (padding: slot bytes, 0 if none)
  std::int64_t number = 0;   ///< element count; negative = pointers; 0 = padding row
  tags::FlatRun::Cat cat = tags::FlatRun::Cat::Padding;
  plat::ScalarKind kind = plat::ScalarKind::Int;

  bool is_padding() const noexcept { return number == 0; }
  bool is_pointer() const noexcept { return number < 0; }
  std::uint64_t element_count() const noexcept {
    return static_cast<std::uint64_t>(number < 0 ? -number : number);
  }
  std::uint64_t byte_length() const noexcept {
    return is_padding() ? size
                        : static_cast<std::uint64_t>(size) * element_count();
  }
  std::uint64_t end() const noexcept { return offset + byte_length(); }
};

/// Architecture-independent index table for one GThV type on one platform.
///
/// Row *positions* are identical across platforms for the same TypeDesc
/// ("while the data-type sizes may differ within the tables, the indexes of
/// each element will remain the same"); sizes and offsets are per platform.
class IndexTable {
 public:
  IndexTable(tags::TypePtr type, const plat::PlatformDesc& platform);

  const std::vector<IndexRow>& rows() const noexcept { return rows_; }
  const tags::Layout& layout() const noexcept { return layout_; }
  const plat::PlatformDesc& platform() const noexcept {
    return *layout_.platform;
  }
  std::uint64_t image_size() const noexcept { return layout_.size; }

  /// Row index + element index for a byte offset (padding rows included).
  struct Locator {
    std::size_t row = 0;
    std::uint64_t elem = 0;
  };
  Locator locate(std::uint64_t offset) const;

  /// Render like the paper's Table 1, with `base_address` standing in for
  /// the run-time address of GThV.
  std::string to_table_string(std::uint64_t base_address) const;

  /// Row index of the first row of top-level struct field `field_index`
  /// (only when the table was built from a Struct type).
  std::size_t row_of_field(std::size_t field_index) const;
  /// Row index of the top-level field named `name`; throws
  /// std::out_of_range when absent.
  std::size_t row_of_field(const std::string& name) const;

 private:
  tags::Layout layout_;
  std::vector<IndexRow> rows_;
  std::vector<std::size_t> field_rows_;
  std::vector<std::string> field_names_;
};

/// A run of modified elements within one table row — the unit an update
/// tag describes: `count` elements, `stride` elements apart, from
/// `first_elem` on.  Stride 1 is a contiguous run; a run of one element has
/// stride 1.  The stride fills what would otherwise be the padding after
/// `row`, so a run stays 24 bytes.
struct UpdateRun {
  std::uint32_t row = 0;
  std::uint32_t stride = 1;
  std::uint64_t first_elem = 0;
  std::uint64_t count = 0;

  UpdateRun() = default;
  constexpr UpdateRun(std::uint32_t r, std::uint64_t first, std::uint64_t n,
                      std::uint32_t s = 1)
      : row(r), stride(s), first_elem(first), count(n) {}

  /// The run's last element.
  std::uint64_t last_elem() const noexcept {
    return first_elem + (count - 1) * stride;
  }
  bool operator==(const UpdateRun&) const = default;
};
static_assert(sizeof(UpdateRun) == 24);

/// How diff_runs joins changed elements into runs.
struct RunRules {
  /// Join the changed elements of a row into constant-stride runs — the
  /// paper's optimization that "distills many (hundreds, perhaps
  /// thousands) indexes into a single tag", extended to the every-other
  /// element writes of a red/black sweep.  Off = one run per changed
  /// element (the paper's uncoalesced index list).
  bool coalesce = true;
};

/// Append changed element `elem` of row `row` to the sorted run list `out`,
/// greedily by constant stride: it extends the last run when it lies
/// exactly one stride past that run's last element, and a one-element run
/// takes its stride from the element that joins it.  An element at or
/// before the last run's last element is already shipped (an element
/// straddling a window edge, seen again from its second window) and is
/// dropped.
void append_element(std::vector<UpdateRun>& out, std::uint32_t row,
                    std::uint64_t elem);

/// Walk one written window [base, base + len) of the image (t_index work):
/// compare `cur` against its `twin` row by row, skipping equal 8-byte
/// words, map each first differing byte to its element, and append the
/// element to `out` (append_element when coalescing, one run per element
/// otherwise).  A partially modified element is shipped whole.  Padding
/// bytes are never compared.  Only bytes inside the window are compared,
/// so an element straddling the window's edge counts as changed when its
/// bytes inside differ; a run at the end of one window continues into the
/// next, and an element already in `out`'s last run is not appended twice.
///
/// Precondition: successive calls appending into the same `out` walk
/// ascending windows, each inside the image.  A window that ends at or
/// before the start of `out`'s last run throws std::invalid_argument.
void diff_runs(const IndexTable& table, std::uint64_t base,
               const std::byte* cur, const std::byte* twin, std::size_t len,
               const RunRules& rules, std::vector<UpdateRun>& out);

/// Region byte offset of the first byte of a run.
std::uint64_t run_offset(const IndexTable& table, const UpdateRun& run);

}  // namespace hdsm::idx

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
// inconsistency is detected at page level (twin/diff byte ranges) and then
// *abstracted* to architecture-independent element indexes here, which both
// sides of a heterogeneous pair agree on even though their sizes differ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memory/diff.hpp"
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

/// A run of consecutive modified elements within one table row — the unit
/// an update tag describes.
struct UpdateRun {
  std::uint32_t row = 0;
  std::uint64_t first_elem = 0;
  std::uint64_t count = 0;

  bool operator==(const UpdateRun&) const = default;
};

/// Map twin/diff byte ranges onto element runs (t_index work).  A partially
/// modified element is shipped whole.  With `coalesce`, adjacent element
/// runs in the same row merge — the paper's optimization that "distills
/// many (hundreds, perhaps thousands) indexes into a single tag".
std::vector<UpdateRun> map_ranges_to_runs(
    const IndexTable& table, const std::vector<mem::ByteRange>& ranges,
    bool coalesce = true);

/// Region byte offset of the first byte of a run.
std::uint64_t run_offset(const IndexTable& table, const UpdateRun& run);
/// Byte length of a run on `table`'s platform.
std::uint64_t run_byte_length(const IndexTable& table, const UpdateRun& run);

}  // namespace hdsm::idx

#include "index/index_table.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "platform/byte_compare.hpp"

namespace hdsm::idx {

namespace {

using tags::FlatRun;
using tags::TypeDesc;

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}

class RowBuilder {
 public:
  explicit RowBuilder(const plat::PlatformDesc& p) : p_(p) {}

  /// Emit rows for one member at `offset` (no trailing padding row).
  void member(const TypeDesc& t, std::uint64_t offset) {
    switch (t.kind()) {
      case TypeDesc::Kind::Scalar:
        data_row(offset, p_.size_of(t.scalar_kind()), 1,
                 tags::category_of(t.scalar_kind()), t.scalar_kind());
        return;
      case TypeDesc::Kind::Pointer:
        data_row(offset, p_.size_of(plat::ScalarKind::Pointer), -1,
                 FlatRun::Cat::Pointer, plat::ScalarKind::Pointer);
        return;
      case TypeDesc::Kind::Reserved:
        padding_row(offset, static_cast<std::uint32_t>(t.reserved_bytes()));
        return;
      case TypeDesc::Kind::Array: {
        const TypeDesc& e = *t.element();
        if (e.kind() == TypeDesc::Kind::Scalar) {
          data_row(offset, p_.size_of(e.scalar_kind()),
                   static_cast<std::int64_t>(t.count()),
                   tags::category_of(e.scalar_kind()), e.scalar_kind());
          return;
        }
        if (e.kind() == TypeDesc::Kind::Pointer) {
          data_row(offset, p_.size_of(plat::ScalarKind::Pointer),
                   -static_cast<std::int64_t>(t.count()),
                   FlatRun::Cat::Pointer, plat::ScalarKind::Pointer);
          return;
        }
        const std::uint64_t stride = tags::size_of(e, p_);
        for (std::uint64_t i = 0; i < t.count(); ++i) {
          member(e, offset + i * stride);
          if (i + 1 < t.count()) padding_row(offset + (i + 1) * stride, 0);
        }
        return;
      }
      case TypeDesc::Kind::Struct:
        struct_members(t, offset);
        return;
    }
  }

  /// Emit rows for a struct's members including the per-member padding rows.
  void struct_members(const TypeDesc& t, std::uint64_t base) {
    std::uint64_t cursor = 0;
    const std::uint64_t total = tags::size_of(t, p_);
    const std::size_t nfields = t.fields().size();
    for (std::size_t i = 0; i < nfields; ++i) {
      const tags::Field& f = t.fields()[i];
      const std::uint64_t aligned =
          round_up(cursor, tags::align_of(*f.type, p_));
      member(*f.type, base + aligned);
      cursor = aligned + tags::size_of(*f.type, p_);
      const std::uint64_t next =
          (i + 1 < nfields)
              ? round_up(cursor, tags::align_of(*t.fields()[i + 1].type, p_))
              : total;
      padding_row(base + cursor, static_cast<std::uint32_t>(next - cursor));
      cursor = next;
    }
  }

  std::vector<IndexRow> take() { return std::move(rows_); }

  std::size_t row_count() const noexcept { return rows_.size(); }

  void padding_row(std::uint64_t offset, std::uint32_t bytes) {
    IndexRow r;
    r.offset = offset;
    r.size = bytes;
    r.number = 0;
    r.cat = FlatRun::Cat::Padding;
    rows_.push_back(r);
  }

 private:
  void data_row(std::uint64_t offset, std::uint32_t size, std::int64_t number,
                FlatRun::Cat cat, plat::ScalarKind kind) {
    IndexRow r;
    r.offset = offset;
    r.size = size;
    r.number = number;
    r.cat = cat;
    r.kind = kind;
    rows_.push_back(r);
  }

  const plat::PlatformDesc& p_;
  std::vector<IndexRow> rows_;
};

}  // namespace

IndexTable::IndexTable(tags::TypePtr type, const plat::PlatformDesc& platform)
    : layout_(tags::compute_layout(type, platform)) {
  RowBuilder b(platform);
  if (type->kind() == TypeDesc::Kind::Struct) {
    // Inline the struct walk so the first row of every top-level field can
    // be recorded for name-based lookups.
    std::uint64_t cursor = 0;
    const std::uint64_t total = tags::size_of(*type, platform);
    const std::size_t nfields = type->fields().size();
    for (std::size_t i = 0; i < nfields; ++i) {
      const tags::Field& f = type->fields()[i];
      const std::uint64_t aligned =
          round_up(cursor, tags::align_of(*f.type, platform));
      field_rows_.push_back(b.row_count());
      field_names_.push_back(f.name);
      b.member(*f.type, aligned);
      cursor = aligned + tags::size_of(*f.type, platform);
      const std::uint64_t next =
          (i + 1 < nfields)
              ? round_up(cursor,
                         tags::align_of(*type->fields()[i + 1].type, platform))
              : total;
      b.padding_row(cursor, static_cast<std::uint32_t>(next - cursor));
      cursor = next;
    }
  } else {
    b.member(*type, 0);
    b.padding_row(tags::size_of(*type, platform), 0);
  }
  rows_ = b.take();
}

std::size_t IndexTable::row_of_field(std::size_t field_index) const {
  return field_rows_.at(field_index);
}

std::size_t IndexTable::row_of_field(const std::string& name) const {
  for (std::size_t i = 0; i < field_names_.size(); ++i) {
    if (field_names_[i] == name) return field_rows_[i];
  }
  throw std::out_of_range("IndexTable: no top-level field named " + name);
}

IndexTable::Locator IndexTable::locate(std::uint64_t offset) const {
  if (offset >= layout_.size) {
    throw std::out_of_range("IndexTable::locate: offset past image end");
  }
  // Rows are offset-ordered; zero-length padding rows share offsets with
  // their successors, so search by row end and skip zero-length rows.
  std::size_t lo = 0, hi = rows_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (rows_[mid].end() <= offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  while (lo < rows_.size() && rows_[lo].byte_length() == 0) ++lo;
  if (lo >= rows_.size()) {
    throw std::out_of_range("IndexTable::locate: no row covers offset");
  }
  Locator loc;
  loc.row = lo;
  const IndexRow& r = rows_[lo];
  loc.elem = r.is_padding() ? 0 : (offset - r.offset) / r.size;
  return loc;
}

std::string IndexTable::to_table_string(std::uint64_t base_address) const {
  std::ostringstream os;
  os << "Address      Size  Number\n";
  for (const IndexRow& r : rows_) {
    os << "0x" << std::hex << base_address + r.offset << std::dec << "  "
       << r.size << "  " << r.number << "\n";
  }
  return os.str();
}

void append_element(std::vector<UpdateRun>& out, std::uint32_t row,
                    std::uint64_t elem) {
  if (!out.empty() && out.back().row == row) {
    UpdateRun& back = out.back();
    const std::uint64_t last = back.last_elem();
    if (elem <= last) return;
    const std::uint64_t step = elem - last;
    if (back.count == 1 && step <= std::numeric_limits<std::uint32_t>::max()) {
      back.stride = static_cast<std::uint32_t>(step);
      back.count = 2;
      return;
    }
    if (step == back.stride) {
      ++back.count;
      return;
    }
  }
  out.push_back(UpdateRun{row, elem, 1});
}

void diff_runs(const IndexTable& table, std::uint64_t base,
               const std::byte* cur, const std::byte* twin, std::size_t len,
               const RunRules& rules, std::vector<UpdateRun>& out) {
  if (len == 0) return;
  const std::uint64_t end = base + len;
  if (!out.empty() && run_offset(table, out.back()) >= end) {
    // Runs extend out.back() in place, which is only sound for
    // windows walked in ascending order.  One compare per window.
    throw std::invalid_argument(
        "diff_runs: windows must be walked in ascending offset order");
  }
  const std::vector<IndexRow>& rows = table.rows();
  for (std::size_t r = table.locate(base).row;
       r < rows.size() && rows[r].offset < end; ++r) {
    const IndexRow& row = rows[r];
    if (row.is_padding()) continue;
    const auto row_index = static_cast<std::uint32_t>(r);
    const std::uint64_t size = row.size;
    const std::uint64_t hi = std::min(row.end(), end) - base;
    std::uint64_t i = std::max(row.offset, base) - base;
    // The element holding window offset i, and where it begins (an image
    // offset: a straddling element begins before the window).
    std::uint64_t elem = (base + i - row.offset) / size;
    std::uint64_t elem_begin = row.offset + elem * size;
    while (i < hi) {
      const std::uint64_t d = plat::first_diff(cur, twin, i, hi);
      if (d == hi) break;
      // Most differences sit in this element or the next (dense or
      // stride-2 writes); only a longer jump pays for a division.
      const std::uint64_t skip = base + d - elem_begin;
      if (skip >= size) {
        const std::uint64_t n = skip < 2 * size ? 1 : skip / size;
        elem += n;
        elem_begin += n * size;
      }
      if (rules.coalesce) {
        append_element(out, row_index, elem);
      } else if (out.empty() || out.back().row != row_index ||
                 out.back().first_elem < elem) {
        out.push_back(UpdateRun{row_index, elem, 1});
      }
      // Jump to the next element boundary: the rest of this one ships
      // anyway.
      ++elem;
      elem_begin += size;
      i = elem_begin - base;
    }
  }
}

std::uint64_t run_offset(const IndexTable& table, const UpdateRun& run) {
  const IndexRow& row = table.rows().at(run.row);
  return row.offset + run.first_elem * row.size;
}

}  // namespace hdsm::idx

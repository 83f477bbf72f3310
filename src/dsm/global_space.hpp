// The GThV global space of one node (paper §4, Figure 4).
//
// "the MigThread preprocessor collects all global data into a single
//  structure, GThV" — a GlobalSpace binds that structure's TypeDesc to one
// (virtual) platform: it owns the write-tracked region holding the byte
// image *in that platform's representation*, the index table built over it
// at start-up (Table 1), and the full-image tag (Figure 3).
//
// Workload code reads and writes elements through typed views that
// transcode between host values and the node's virtual representation on
// the fly; stores are ordinary memory writes into the region, so the
// write trap sees them exactly as it would on the real machine.
#pragma once

#include <cstring>
#include <memory>
#include <vector>
#include <stdexcept>
#include <string>

#include "index/index_table.hpp"
#include "memory/write_trap.hpp"
#include "platform/byteswap.hpp"
#include "platform/float_codec.hpp"
#include "platform/int_codec.hpp"
#include "tags/tag.hpp"

namespace hdsm::dsm {

class GlobalSpace;

/// Typed element accessor over one index-table row (a scalar or array
/// member of GThV).  T is the host-side value type; the stored
/// representation follows the node's platform.
template <typename T>
class View {
 public:
  View() = default;
  View(GlobalSpace* space, std::size_t row);

  std::uint64_t size() const noexcept { return count_; }

  T get(std::uint64_t i) const;
  void set(std::uint64_t i, T value);

  /// Scalar shorthand (element 0).
  T get() const { return get(0); }
  void set(T value) { set(0, value); }

  /// Bulk read of elements [first, first+count) into `out` (host
  /// representation).  Takes the memcpy fast path on a native view.
  void get_range(std::uint64_t first, std::uint64_t count, T* out) const;
  /// Bulk write of `count` host values starting at element `first`.
  void set_range(std::uint64_t first, std::uint64_t count, const T* values);

  /// Whole-array conveniences.
  std::vector<T> to_vector() const {
    std::vector<T> out(count_);
    get_range(0, count_, out.data());
    return out;
  }
  void assign(const std::vector<T>& values) {
    if (values.size() != count_) {
      throw std::invalid_argument("View::assign: size mismatch");
    }
    set_range(0, count_, values.data());
  }

 private:
  std::byte* base_ = nullptr;      // first element in the region image
  std::uint32_t elem_size_ = 0;
  std::uint64_t count_ = 0;
  tags::FlatRun::Cat cat_ = tags::FlatRun::Cat::Padding;
  plat::Endian endian_ = plat::Endian::Little;
  plat::LongDoubleFormat ldf_ = plat::LongDoubleFormat::Binary64;
  bool native_ = false;  // byte image == host representation of T
};

class GlobalSpace {
 public:
  /// `trap` picks the region's write-trap backend (tests run both).
  GlobalSpace(tags::TypePtr gthv, const plat::PlatformDesc& platform,
              mem::TrapBackend trap = mem::TrapBackend::Auto)
      : table_(gthv, platform),
        region_(table_.image_size(), trap),
        image_tag_(tags::make_tag(*gthv, platform)),
        image_tag_text_(image_tag_.to_string()) {
    std::memset(region_.data(), 0, region_.length());
  }

  const plat::PlatformDesc& platform() const noexcept {
    return table_.platform();
  }
  const idx::IndexTable& table() const noexcept { return table_; }
  mem::TrackedRegion& region() noexcept { return region_; }
  const mem::TrackedRegion& region() const noexcept { return region_; }
  const tags::Tag& image_tag() const noexcept { return image_tag_; }
  const std::string& image_tag_text() const noexcept {
    return image_tag_text_;
  }

  /// Typed view over the top-level field `name` (array or scalar).
  template <typename T>
  View<T> view(const std::string& name) {
    return View<T>(this, table_.row_of_field(name));
  }

 private:
  idx::IndexTable table_;
  mem::TrackedRegion region_;
  tags::Tag image_tag_;
  std::string image_tag_text_;
};

template <typename T>
View<T>::View(GlobalSpace* space, std::size_t row) {
  static_assert(std::is_arithmetic_v<T>,
                "View<T> requires an arithmetic host type");
  const idx::IndexRow& r = space->table().rows().at(row);
  if (r.is_padding()) {
    throw std::invalid_argument("View: row is a padding slot");
  }
  base_ = space->region().data() + r.offset;
  elem_size_ = r.size;
  count_ = r.element_count();
  cat_ = r.cat;
  endian_ = space->platform().endian;
  ldf_ = r.kind == plat::ScalarKind::LongDouble
             ? space->platform().long_double_format
             : plat::LongDoubleFormat::Binary64;
  const bool host_order = endian_ == plat::host_endian();
  if constexpr (std::is_integral_v<T>) {
    native_ = host_order && elem_size_ == sizeof(T) &&
              cat_ != tags::FlatRun::Cat::Float;
  } else {
    native_ = host_order && elem_size_ == sizeof(T) &&
              cat_ == tags::FlatRun::Cat::Float;
  }
}

template <typename T>
T View<T>::get(std::uint64_t i) const {
  if (i >= count_) throw std::out_of_range("View::get");
  const std::byte* p = base_ + i * elem_size_;
  if (native_) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  switch (cat_) {
    case tags::FlatRun::Cat::SignedInt:
      return static_cast<T>(plat::read_sint(p, elem_size_, endian_));
    case tags::FlatRun::Cat::UnsignedInt:
    case tags::FlatRun::Cat::Pointer:
      return static_cast<T>(plat::read_uint(p, elem_size_, endian_));
    case tags::FlatRun::Cat::Float:
      return static_cast<T>(plat::decode_float(p, elem_size_, endian_, ldf_));
    case tags::FlatRun::Cat::Padding:
      break;
  }
  throw std::logic_error("View::get: padding row");
}

template <typename T>
void View<T>::set(std::uint64_t i, T value) {
  if (i >= count_) throw std::out_of_range("View::set");
  std::byte* p = base_ + i * elem_size_;
  if (native_) {
    std::memcpy(p, &value, sizeof(T));
    return;
  }
  switch (cat_) {
    case tags::FlatRun::Cat::SignedInt:
      plat::write_sint(p, elem_size_, endian_,
                       static_cast<std::int64_t>(value));
      return;
    case tags::FlatRun::Cat::UnsignedInt:
    case tags::FlatRun::Cat::Pointer:
      plat::write_uint(p, elem_size_, endian_,
                       static_cast<std::uint64_t>(value));
      return;
    case tags::FlatRun::Cat::Float:
      plat::encode_float(static_cast<double>(value), p, elem_size_, endian_,
                         ldf_);
      return;
    case tags::FlatRun::Cat::Padding:
      break;
  }
  throw std::logic_error("View::set: padding row");
}

template <typename T>
void View<T>::get_range(std::uint64_t first, std::uint64_t count,
                        T* out) const {
  if (first + count > count_ || first + count < first) {
    throw std::out_of_range("View::get_range");
  }
  if (native_) {
    std::memcpy(out, base_ + first * elem_size_, count * sizeof(T));
    return;
  }
  for (std::uint64_t i = 0; i < count; ++i) out[i] = get(first + i);
}

template <typename T>
void View<T>::set_range(std::uint64_t first, std::uint64_t count,
                        const T* values) {
  if (first + count > count_ || first + count < first) {
    throw std::out_of_range("View::set_range");
  }
  if (native_) {
    std::memcpy(base_ + first * elem_size_, values, count * sizeof(T));
    return;
  }
  for (std::uint64_t i = 0; i < count; ++i) set(first + i, values[i]);
}

}  // namespace hdsm::dsm

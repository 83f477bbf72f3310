#include "convert/converter.hpp"

#include <cstring>
#include <stdexcept>

#include "platform/byteswap.hpp"
#include "platform/float_codec.hpp"
#include "platform/int_codec.hpp"

namespace hdsm::conv {

namespace {

using tags::FlatRun;

plat::LongDoubleFormat float_format(const plat::PlatformDesc& p,
                                    plat::ScalarKind kind) {
  return kind == plat::ScalarKind::LongDouble
             ? p.long_double_format
             : plat::LongDoubleFormat::Binary64;  // codec keys off size for 4/8
}

/// Byte-identical representation for this run on both platforms?
bool same_representation(std::uint32_t src_size, const plat::PlatformDesc& sp,
                         std::uint32_t dst_size, const plat::PlatformDesc& dp,
                         FlatRun::Cat cat, plat::ScalarKind kind) {
  if (src_size != dst_size) return false;
  if (src_size == 1) return true;
  if (sp.endian != dp.endian) return false;
  if (cat == FlatRun::Cat::Float && src_size > 8) {
    return float_format(sp, kind) == float_format(dp, kind);
  }
  return true;
}

}  // namespace

Route plan_route(std::uint32_t src_size, const plat::PlatformDesc& sp,
                 std::uint32_t dst_size, const plat::PlatformDesc& dp,
                 FlatRun::Cat cat, plat::ScalarKind kind,
                 bool allow_bulk_swap) {
  // Fast path 1: identical representation -> bulk memcpy.
  if (same_representation(src_size, sp, dst_size, dp, cat, kind)) {
    return Route::Memcpy;
  }

  // Fast path 2: same width, opposite endianness, plain sign-magnitude-free
  // formats (ints, binary32/64 floats, pointer tokens): bulk swap.
  const bool swap_only =
      allow_bulk_swap && src_size == dst_size && sp.endian != dp.endian &&
      !(cat == FlatRun::Cat::Float && src_size > 8 &&
        float_format(sp, kind) != float_format(dp, kind));
  if (swap_only) return Route::BulkSwap;

  return Route::Elementwise;
}

void convert_run_routed(Route route, const std::byte* src,
                        std::uint32_t src_size, const plat::PlatformDesc& sp,
                        std::byte* dst, std::uint32_t dst_size,
                        const plat::PlatformDesc& dp, std::uint64_t count,
                        FlatRun::Cat cat, plat::ScalarKind kind,
                        ConversionStats* stats) {
  if (stats) {
    stats->bytes_in += static_cast<std::uint64_t>(src_size) * count;
    stats->bytes_out += static_cast<std::uint64_t>(dst_size) * count;
  }

  if (route == Route::Memcpy) {
    std::memcpy(dst, src, static_cast<std::size_t>(src_size) * count);
    if (stats) ++stats->memcpy_runs;
    return;
  }

  if (route == Route::BulkSwap) {
    std::memcpy(dst, src, static_cast<std::size_t>(src_size) * count);
    plat::swap_elements_inplace(dst, src_size, count);
    if (stats) ++stats->bulk_swap_runs;
    return;
  }

  // Slow path: element-wise decode / re-encode.
  if (stats) ++stats->elementwise_runs;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::byte* s = src + i * src_size;
    std::byte* d = dst + i * dst_size;
    switch (cat) {
      case FlatRun::Cat::SignedInt: {
        const std::int64_t v = plat::read_sint(s, src_size, sp.endian);
        plat::write_sint(d, dst_size, dp.endian, v);
        break;
      }
      case FlatRun::Cat::UnsignedInt: {
        const std::uint64_t v = plat::read_uint(s, src_size, sp.endian);
        plat::write_uint(d, dst_size, dp.endian, v);
        break;
      }
      case FlatRun::Cat::Float: {
        const double v =
            plat::decode_float(s, src_size, sp.endian, float_format(sp, kind));
        plat::encode_float(v, d, dst_size, dp.endian, float_format(dp, kind));
        break;
      }
      case FlatRun::Cat::Pointer: {
        const std::uint64_t v = plat::read_uint(s, src_size, sp.endian);
        plat::write_uint(d, dst_size, dp.endian, v);
        break;
      }
      case FlatRun::Cat::Padding:
        break;
    }
  }
}

void convert_run(const std::byte* src, std::uint32_t src_size,
                 const plat::PlatformDesc& sp, std::byte* dst,
                 std::uint32_t dst_size, const plat::PlatformDesc& dp,
                 std::uint64_t count, FlatRun::Cat cat, plat::ScalarKind kind,
                 ConversionStats* stats, bool allow_bulk_swap) {
  if (cat == FlatRun::Cat::Padding) {
    std::memset(dst, 0, dst_size);
    return;
  }
  const Route route =
      plan_route(src_size, sp, dst_size, dp, cat, kind, allow_bulk_swap);
  convert_run_routed(route, src, src_size, sp, dst, dst_size, dp, count, cat,
                     kind, stats);
}

bool convertible(const tags::Layout& a, const tags::Layout& b) {
  std::size_t i = 0, j = 0;
  for (;;) {
    while (i < a.runs.size() && a.runs[i].cat == FlatRun::Cat::Padding) ++i;
    while (j < b.runs.size() && b.runs[j].cat == FlatRun::Cat::Padding) ++j;
    if (i == a.runs.size() || j == b.runs.size()) {
      return i == a.runs.size() && j == b.runs.size();
    }
    const FlatRun& ra = a.runs[i];
    const FlatRun& rb = b.runs[j];
    if (ra.cat != rb.cat || ra.count != rb.count) return false;
    ++i;
    ++j;
  }
}

void convert_image(const std::byte* src, const tags::Layout& src_layout,
                   std::byte* dst, const tags::Layout& dst_layout,
                   ConversionStats* stats) {
  const plat::PlatformDesc& sp = *src_layout.platform;
  const plat::PlatformDesc& dp = *dst_layout.platform;

  if (sp.homogeneous_with(dp)) {
    // A machine is always homogeneous to itself (paper §4): whole-image
    // memcpy, including padding, exactly like the home-node twin copy.
    std::memcpy(dst, src, src_layout.size);
    if (stats) {
      stats->bytes_in += src_layout.size;
      stats->bytes_out += dst_layout.size;
      ++stats->memcpy_runs;
    }
    return;
  }

  if (!convertible(src_layout, dst_layout)) {
    throw std::invalid_argument(
        "convert_image: layouts describe different logical structures");
  }

  std::memset(dst, 0, dst_layout.size);
  std::size_t i = 0, j = 0;
  while (i < src_layout.runs.size()) {
    const FlatRun& rs = src_layout.runs[i];
    if (rs.cat == FlatRun::Cat::Padding) {
      ++i;
      continue;
    }
    while (dst_layout.runs[j].cat == FlatRun::Cat::Padding) ++j;
    const FlatRun& rd = dst_layout.runs[j];
    convert_run(src + rs.offset, rs.elem_size, sp, dst + rd.offset,
                rd.elem_size, dp, rs.count, rs.cat, rs.kind, stats);
    ++i;
    ++j;
  }
}

}  // namespace hdsm::conv

// CGT-RMR ("Coarse-Grain Tagged receiver-makes-right") data conversion.
//
// Updates travel the DSM in the *sender's* representation together with a
// tag; the receiver "makes right" by re-encoding into its own platform
// format (paper §3.2, §4.1).  Homogeneous pairs reduce to memcpy; identical
// widths with flipped endianness take a bulk byte-swap path; everything
// else converts element-wise through the integer/float codecs, applying
// sign extension, width change, and IEEE 754 re-encoding.  Whole arrays are
// converted "as a whole" (paper §4) rather than per scalar tag.
#pragma once

#include <cstddef>
#include <cstdint>

#include "platform/platform.hpp"
#include "tags/layout.hpp"

namespace hdsm::conv {

/// Accounting of which path each converted run took; drives the fast-path
/// ablation bench and white-box tests.
struct ConversionStats {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t memcpy_runs = 0;       ///< identical representation
  std::uint64_t bulk_swap_runs = 0;    ///< width equal, endianness flipped
  std::uint64_t elementwise_runs = 0;  ///< full decode/re-encode
};

/// The execution strategy convert_run picks for a (src rep, dst rep, cat)
/// combination.  The decision depends only on per-row facts — element
/// sizes, platform summaries, category, scalar kind — never on the data or
/// the element count, so callers converting many runs of the same row can
/// plan once and replay the route per run (the SyncEngine's per-(sender,
/// row) conversion-plan cache does exactly that).
enum class Route : std::uint8_t {
  Memcpy,       ///< identical representation
  BulkSwap,     ///< width equal, endianness flipped: vectorizable swap
  Elementwise,  ///< full decode / re-encode per element
};

/// Decide the conversion route for one row; `allow_bulk_swap` as on
/// convert_run.
Route plan_route(std::uint32_t src_size, const plat::PlatformDesc& sp,
                 std::uint32_t dst_size, const plat::PlatformDesc& dp,
                 tags::FlatRun::Cat cat, plat::ScalarKind kind,
                 bool allow_bulk_swap = true);

/// Execute a pre-planned route on one run (no per-run re-decision).  The
/// route must come from plan_route with the same arguments.
void convert_run_routed(Route route, const std::byte* src,
                        std::uint32_t src_size, const plat::PlatformDesc& sp,
                        std::byte* dst, std::uint32_t dst_size,
                        const plat::PlatformDesc& dp, std::uint64_t count,
                        tags::FlatRun::Cat cat, plat::ScalarKind kind,
                        ConversionStats* stats = nullptr);

/// Convert one run of `count` elements.
///
/// `src` holds the sender's representation (`src_size` bytes per element on
/// platform `sp`); `dst` receives `dst_size`-byte elements for platform
/// `dp`.  `cat` selects the value semantics (sign/zero extension, float
/// re-encode, pointer translation); `kind` disambiguates the long double
/// storage format.  Padding runs are skipped by the caller.
/// When `allow_bulk_swap` is false, same-width cross-endian runs convert
/// element by element instead of through the vectorizable bulk byte-swap —
/// the behaviour of the paper's 2006 implementation ("we must (potentially)
/// convert each byte of data"), kept selectable so the figure benches can
/// reproduce its cost profile and the ablation bench can quantify the
/// improvement the paper's future-work section anticipates.
void convert_run(const std::byte* src, std::uint32_t src_size,
                 const plat::PlatformDesc& sp, std::byte* dst,
                 std::uint32_t dst_size, const plat::PlatformDesc& dp,
                 std::uint64_t count, tags::FlatRun::Cat cat,
                 plat::ScalarKind kind, ConversionStats* stats = nullptr,
                 bool allow_bulk_swap = true);

/// True when the two layouts describe the same logical structure and can be
/// converted into each other (same non-padding run sequence: category and
/// element count per run).
bool convertible(const tags::Layout& a, const tags::Layout& b);

/// Convert a complete image laid out per `src_layout` into `dst` laid out
/// per `dst_layout`.  `dst` must have room for `dst_layout.size` bytes;
/// destination padding bytes are zeroed.  Throws std::invalid_argument if
/// the layouts are not convertible.
void convert_image(const std::byte* src, const tags::Layout& src_layout,
                   std::byte* dst, const tags::Layout& dst_layout,
                   ConversionStats* stats = nullptr);

}  // namespace hdsm::conv

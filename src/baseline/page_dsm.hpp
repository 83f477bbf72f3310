// The traditional homogeneous page-based DSM the paper contrasts itself
// with (§4): twin/diff at page granularity, updates applied as raw byte
// ranges with no tags and no conversion — which is exactly why it "is
// unable to handle changes in page size, endianness, etc."
//
// Includes the classic whole-page-send optimization ("when differences
// exceed a certain threshold ... it is common to send the entire page
// rather than to continue with the diff") that the heterogeneous system
// cannot use; the ablation benches quantify both sides.
#pragma once

#include <cstdint>
#include <vector>

#include "memory/diff.hpp"
#include "memory/write_trap.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::base {

struct PageDsmOptions {
  /// Send the whole page when more than this fraction of it changed; 1.0
  /// or more never promotes a page.
  ///
  /// Default derived from the bench_abl_diff_threshold sweep (threshold%
  /// x dirty-density%, in-memory transport, 64-page region):
  ///
  ///   density  5%: 1.17-1.28 ms/sync at thresholds 10/50/100 (no
  ///                promotion triggers at any of them — equal by design)
  ///   density 25%: 4.66 ms at 100, 5.19 ms at 50, 0.75 ms at 10 —
  ///                promotion is ~6.5x faster; per-update overhead
  ///                dominates (65.5k scattered updates vs 64 whole pages)
  ///   density 100%: 0.50 ms at 100 vs 0.48 ms at 50 (whole page anyway)
  ///
  /// So the old hand-picked 0.5 behaved like no promotion at moderate
  /// density and left the ~6.5x win on the table.  0.2 captures it while
  /// keeping sparse pages (5%) on the diff path — a hedge for real wires,
  /// where the bench's in-memory transport undercounts the cost of the
  /// 4x byte inflation promotion causes at 25% density.
  double whole_page_threshold = 0.2;
};

/// A raw update: bytes at an offset, sender representation (which is also
/// the receiver representation — homogeneity is assumed).
struct PageUpdate {
  std::size_t offset = 0;
  std::vector<std::byte> data;
  bool whole_page = false;
};

struct PageDsmStats {
  std::uint64_t diff_ns = 0;
  std::uint64_t apply_ns = 0;
  std::uint64_t updates = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t whole_pages = 0;
  std::uint64_t dirty_pages = 0;
};

/// One node of the baseline DSM.
class PageDsmNode {
 public:
  explicit PageDsmNode(std::size_t image_size, PageDsmOptions opts = {});

  mem::TrackedRegion& region() noexcept { return region_; }
  std::byte* data() noexcept { return region_.data(); }
  std::size_t image_size() const noexcept { return image_size_; }

  void start_tracking() { region_.begin_tracking(); }
  void stop_tracking() {
    if (region_.tracking()) region_.end_tracking();
  }

  /// Diff dirty pages against twins and emit raw updates; restarts the
  /// tracking interval.
  std::vector<PageUpdate> collect_updates();

  /// Apply raw updates by direct memcpy (valid only between homogeneous
  /// nodes, by construction of this baseline).
  void apply_updates(const std::vector<PageUpdate>& updates);

  const PageDsmStats& stats() const noexcept { return stats_; }

  /// Optional telemetry (borrowed, must outlive the node): collect/apply
  /// record Diff/Unpack spans so baseline runs land in the same exported
  /// trace as the heterogeneous system's, on their own lanes.
  void set_obs(obs::Telemetry* telemetry) noexcept { obs_ = telemetry; }

 private:
  std::size_t image_size_;
  PageDsmOptions opts_;
  mem::TrackedRegion region_;
  PageDsmStats stats_;
  obs::Telemetry* obs_ = nullptr;
};

}  // namespace hdsm::base

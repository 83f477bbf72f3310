// Write detection with twin pages (paper §4, §4.1), on one of two backends.
//
// "Upon writing to a page in the GThV structure, a copy of the unmodified
//  page is made and the write is allowed to proceed.  This minimizes the
//  time spent in the signal handler as subsequent writes to the same page
//  will not trigger a segmentation fault."
//
// The twins are one standing shadow of the whole image, the same on both
// backends: copied at begin_tracking(), refreshed page by page after each
// collected page is diffed, and written by every apply_update while
// tracking.  The unmodified copy of a page is therefore already there when
// its first write lands, and the trap only has to detect that write and let
// it through.  The backends differ only in how pages are protected and how
// written pages are found.
//
// Sigsegv is the paper's mechanism: mprotect the pages and catch the first
// write to each with SIGSEGV; the handler marks the page written and
// unprotects it.  One process-wide handler dispatches faults to the
// TrackedRegion that owns the faulting address.  The registry is a fixed
// array of atomic slots so the handler never allocates or locks; faults
// outside any tracked region go to the previous handler or re-raise with
// the default disposition (a real crash stays a crash).
//
// Uffd is a userfaultfd asynchronous write-protect trap: the kernel clears
// a page's write-protect bit itself on the first write (no signal), and one
// PAGEMAP_SCAN ioctl returns the written pages and re-protects them.
// Auto picks Uffd whenever the kernel accepts every step and Sigsegv
// otherwise.  A region whose tracking began before fork() is not tracked
// in the child: the child does not inherit the userfaultfd registration.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "memory/region.hpp"

namespace hdsm::mem {

enum class TrapBackend : std::uint8_t {
  Auto,     ///< Uffd when the kernel accepts it, else Sigsegv
  Sigsegv,  ///< mprotect + SIGSEGV (paper §4)
  Uffd,     ///< userfaultfd async write-protect + PAGEMAP_SCAN
};

/// A Region with twin/diff write tracking.
///
/// Lifecycle:
///   begin_tracking()  - copy the image into the shadow, protect all pages;
///                       the interval starts
///   ... application writes are detected once per page ...
///   collect(visit)    - visit each written page with its twin, re-protect
///                       it; the next interval starts
///   end_tracking()    - un-protect; writes are no longer detected
///
/// Thread safety: any number of application threads may write concurrently
/// while tracking; begin/end/collect must not race with each other or with
/// application writes.
class TrackedRegion {
 public:
  /// `want` = Auto picks the backend; Uffd throws std::system_error when
  /// the kernel refuses it.
  explicit TrackedRegion(std::size_t length,
                         TrapBackend want = TrapBackend::Auto);
  ~TrackedRegion();

  TrackedRegion(const TrackedRegion&) = delete;
  TrackedRegion& operator=(const TrackedRegion&) = delete;

  std::byte* data() noexcept { return region_.data(); }
  const std::byte* data() const noexcept { return region_.data(); }
  std::size_t length() const noexcept { return region_.length(); }
  std::size_t requested() const noexcept { return region_.requested(); }
  std::size_t page_count() const noexcept { return region_.page_count(); }
  /// The backend in use: Sigsegv or Uffd, never Auto.
  TrapBackend backend() const noexcept { return backend_; }

  void begin_tracking();
  void end_tracking();
  bool tracking() const noexcept {
    return tracking_.load(std::memory_order_acquire);
  }

  /// Ends the interval without leaving tracking: calls `visit(page, twin)`
  /// for every page written since begin_tracking() or the last collect(),
  /// in ascending order, where `twin` holds the page as the interval began
  /// (with apply_update's bytes written in).  The pages are re-protected
  /// for the next interval.  Returns the number of pages visited; visits
  /// nothing when not tracking.
  template <typename Visit>
  std::size_t collect(Visit&& visit) {
    if (!tracking()) return 0;
    const std::vector<std::size_t> pages = take_written();
    const std::size_t ps = Region::host_page_size();
    for (const std::size_t page : pages) {
      std::byte* twin = twins_.get() + page * ps;
      visit(page, static_cast<const std::byte*>(twin));
      // The shadow catches up with the page just diffed.
      std::memcpy(twin, region_.data() + page * ps, ps);
    }
    return pages.size();
  }

  /// Ascending pages written in the current interval, without ending it.
  std::vector<std::size_t> dirty_pages() const;
  bool page_dirty(std::size_t page) const;
  /// Pages detected written in the current interval (on Sigsegv, one
  /// fault each).
  std::size_t fault_count() const { return dirty_pages().size(); }

  /// Write bytes that must NOT appear as local modifications (incoming DSM
  /// updates): stores into the data image through the alias view, which
  /// no backend traps, and, while tracking, into the shadow so the next
  /// diff is silent about them.  A clean page stays protected, so the next
  /// application write to it is still detected.  (Sigsegv without a dual
  /// mapping: the alias is the primary view, the store faults like an
  /// application write, and the shadow still keeps the diff silent.)
  void apply_update(std::size_t offset, const void* src, std::size_t n);
  /// apply_update of `count` elements of `elem` bytes, packed back to back
  /// at `src`, scattered `stride` bytes apart from `offset` on: the bytes
  /// between them are left as they are.
  void apply_strided(std::size_t offset, const void* src, std::size_t elem,
                     std::size_t count, std::size_t stride);

  /// Sigsegv handler entry: true if this region owned and resolved `addr`.
  bool on_fault(void* addr) noexcept;

 private:
  /// The written pages, re-protected for the next interval.
  std::vector<std::size_t> take_written();
  /// Uffd: the written pages in [first, last) by PAGEMAP_SCAN, re-protected
  /// when `reprotect`.
  std::vector<std::size_t> scan_written(std::size_t first, std::size_t last,
                                        bool reprotect) const;
  void register_uffd();
  void write_protect(bool on);

  Region region_;
  TrapBackend backend_ = TrapBackend::Sigsegv;
  bool uffd_registered_ = false;
  // The standing shadow, written only while tracking.  Default-initialised,
  // so an untracked region (object mode) never touches these pages.
  std::unique_ptr<std::byte[]> twins_;
  // Sigsegv only.  Per page: 0 = clean, 1 = written + unprotected.
  std::unique_ptr<std::atomic<std::uint8_t>[]> page_state_;
  std::atomic<bool> tracking_{false};
};

namespace trap_internal {
/// Registers/unregisters a Sigsegv region with the global fault
/// dispatcher.  Exposed for white-box tests only.
void register_region(TrackedRegion* r);
void unregister_region(TrackedRegion* r);
std::size_t registered_count();
}  // namespace trap_internal

}  // namespace hdsm::mem

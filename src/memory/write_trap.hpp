// Write detection with twin pages (paper §4, §4.1), adaptive per page, on
// one of two backends.
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
// it through.
//
// Each page is cold or hot.  A cold page is write-protected, and its first
// write is trapped, which makes it hot.  A hot page stays writable across
// collects, so a page written in every interval (a lock holder's own
// counters, a SOR band) pays neither the trap nor the re-protect: each
// collect compares it with its shadow instead, one memcmp, and visits it
// only when its bytes changed.  A hot page that compares clean in
// kCoolAfter consecutive collects is write-protected again.  The backends
// differ only in how pages are protected and how written pages are found.
//
// Sigsegv is the paper's mechanism: mprotect the pages and catch the first
// write to each with SIGSEGV; the handler marks the page hot and
// unprotects it.  One process-wide handler dispatches faults to the
// TrackedRegion that owns the faulting address.  The registry is a fixed
// array of atomic slots so the handler never allocates or locks; faults
// outside any tracked region go to the previous handler or re-raise with
// the default disposition (a real crash stays a crash).
//
// Uffd is a userfaultfd asynchronous write-protect trap: the kernel clears
// a page's write-protect bit itself on the first write (no signal), and a
// PAGEMAP_SCAN ioctl returns the pages whose bit is clear: the hot ones.
// Auto picks Uffd whenever the kernel accepts every step and Sigsegv
// otherwise.  A region whose tracking began before fork() is not tracked
// in the child: the child does not inherit the userfaultfd registration.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
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

/// A Region with twin/diff write tracking and per-page hot/cold state.
///
/// Lifecycle:
///   begin_tracking()  - copy the image into the shadow, protect all pages
///                       (all cold); the interval starts
///   ... the first write to a cold page is detected and makes it hot ...
///   collect(visit)    - compare each hot page with its shadow, visit those
///                       whose bytes changed, re-protect those going cold;
///                       the next interval starts
///   end_tracking()    - un-protect; writes are no longer detected
///
/// Thread safety: any number of application threads may write concurrently
/// while tracking; begin/end/collect must not race with each other or with
/// application writes.
class TrackedRegion {
 public:
  /// Consecutive clean collects after which a hot page goes cold.  Each
  /// costs one memcmp of the page; going cold costs a re-protect and, if
  /// the page is written again, a trap (EXPERIMENTS.md, "Hot pages").
  static constexpr std::uint8_t kCoolAfter = 2;

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
  /// for every page whose bytes changed since begin_tracking() or the last
  /// collect(), and only those, in ascending order, where `twin` holds the
  /// page as the interval began (with apply_update's bytes written in).
  /// Every page written in the interval stays hot (writable) unless it
  /// compared clean for the kCoolAfter-th collect in a row, in which case
  /// it is re-protected (cold).  Returns the number of pages visited;
  /// visits nothing when not tracking.
  template <typename Visit>
  std::size_t collect(Visit&& visit) {
    if (!tracking()) return 0;
    const std::vector<std::size_t>& pages = take_changed();
    const std::size_t ps = Region::host_page_size();
    for (const std::size_t page : pages) {
      std::byte* twin = twins_.get() + page * ps;
      visit(page, static_cast<const std::byte*>(twin));
      // The shadow catches up with the page just diffed.
      std::memcpy(twin, region_.data() + page * ps, ps);
    }
    return pages.size();
  }

  /// Ascending hot pages: those the next collect will compare with their
  /// shadow (every page written since begin_tracking() that has not gone
  /// cold again).
  std::vector<std::size_t> dirty_pages() const;
  /// True when the next collect will compare `page` (it is hot).
  bool page_dirty(std::size_t page) const;
  /// The number of hot pages.  Only a cold page's first write is detected
  /// (on Sigsegv, one fault), so a write to a hot page leaves it as is.
  std::size_t fault_count() const { return dirty_pages().size(); }

  /// Write bytes that must NOT appear as local modifications (incoming DSM
  /// updates): stores into the data image through the alias view, which
  /// no backend traps, and, while tracking, into the shadow so the next
  /// diff is silent about them.  A cold page stays protected, so the next
  /// application write to it is still detected, and a hot page compares
  /// clean unless the application wrote it too.  (Sigsegv without a dual
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
  /// The hot pages whose bytes differ from their shadow, ascending; the
  /// clean ones count toward going cold, and those that reach kCoolAfter
  /// are re-protected.  Valid until the next call.
  const std::vector<std::size_t>& take_changed();
  /// Appends the hot pages in [first, last) to `out`, ascending (Uffd: by
  /// PAGEMAP_SCAN).
  void hot_pages(std::size_t first, std::size_t last,
                 std::vector<std::size_t>& out) const;
  void register_uffd();
  /// Write-protects (`on`) or unprotects `count` pages from `first` on.
  void protect_pages(std::size_t first, std::size_t count, bool on);

  Region region_;
  TrapBackend backend_ = TrapBackend::Sigsegv;
  bool uffd_registered_ = false;
  // The standing shadow, written only while tracking.  Default-initialised,
  // so an untracked region (object mode) never touches these pages.
  std::unique_ptr<std::byte[]> twins_;
  // Sigsegv only.  Per page: 0 = cold (protected), 1 = hot (unprotected).
  std::unique_ptr<std::atomic<std::uint8_t>[]> page_state_;
  // Per page: consecutive collects in which the hot page compared clean.
  std::unique_ptr<std::uint8_t[]> clean_runs_;
  // take_changed()'s scratch, kept so a steady-state collect allocates
  // nothing.
  std::vector<std::size_t> hot_;
  std::vector<std::size_t> changed_;
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

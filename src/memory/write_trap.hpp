// mprotect/SIGSEGV write detection with twin pages (paper §4, §4.1).
//
// "Upon writing to a page in the GThV structure, a copy of the unmodified
//  page is made and the write is allowed to proceed.  This minimizes the
//  time spent in the signal handler as subsequent writes to the same page
//  will not trigger a segmentation fault."
//
// One process-wide SIGSEGV handler dispatches faults to the TrackedRegion
// that owns the faulting address.  The registry is a fixed array of atomic
// slots so the handler never allocates or locks; faults outside any tracked
// region re-raise with the default disposition (a real crash stays a
// crash).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "memory/region.hpp"

namespace hdsm::mem {

/// A Region with twin/diff write tracking.
///
/// Lifecycle per release-consistency interval:
///   begin_tracking()  - write-protect all pages, clear dirty state
///   ... application writes fault once per page, get twinned ...
///   end_tracking()    - un-protect; dirty pages + twins stay readable
///   dirty_pages()/twin_page() feed the diff engine
///
/// Thread safety: any number of application threads may write concurrently
/// while tracking; begin/end/clear must not race with each other.
class TrackedRegion {
 public:
  explicit TrackedRegion(std::size_t length);
  ~TrackedRegion();

  TrackedRegion(const TrackedRegion&) = delete;
  TrackedRegion& operator=(const TrackedRegion&) = delete;

  std::byte* data() noexcept { return region_.data(); }
  const std::byte* data() const noexcept { return region_.data(); }
  std::size_t length() const noexcept { return region_.length(); }
  std::size_t requested() const noexcept { return region_.requested(); }
  std::size_t page_count() const noexcept { return region_.page_count(); }

  void begin_tracking();
  void end_tracking();
  bool tracking() const noexcept {
    return tracking_.load(std::memory_order_acquire);
  }

  /// Start the next interval without leaving tracking: clear dirty state
  /// and re-protect the whole region with a single mprotect (much cheaper
  /// than end+begin when most pages are dirty).  The diff engine calls this
  /// once per collected interval; incoming updates never need it, because
  /// apply_update leaves protection alone.  Caller must guarantee no
  /// concurrent application writes.
  void rearm();

  /// Ascending page indices dirtied since begin_tracking()/clear_dirty().
  std::vector<std::size_t> dirty_pages() const;
  bool page_dirty(std::size_t page) const noexcept;
  /// The pre-write snapshot of a dirty page (undefined for clean pages).
  const std::byte* twin_page(std::size_t page) const noexcept;
  void clear_dirty();

  /// Write bytes that must NOT appear as local modifications (incoming DSM
  /// updates): stores into the data image and mirrors into any live twin so
  /// the next diff is silent about them.  Safe whether or not tracking.
  /// The store goes through the alias view and never changes page
  /// protection, so a clean page stays write-protected and the next
  /// application write to it still faults.  (Without a dual mapping the
  /// alias is the primary view: the store faults like an application
  /// write, and the twin mirror still keeps the diff silent.)
  void apply_update(std::size_t offset, const void* src, std::size_t n);

  /// Count of SIGSEGV faults absorbed (one per first-write page).
  std::uint64_t fault_count() const noexcept {
    return faults_.load(std::memory_order_relaxed);
  }

  /// Handler entry: returns true if this region owned and resolved `addr`.
  bool on_fault(void* addr) noexcept;

 private:
  Region region_;
  std::unique_ptr<std::byte[]> twins_;
  // Per page: 0 = clean, 1 = twin in progress, 2 = twinned + unprotected.
  std::unique_ptr<std::atomic<std::uint8_t>[]> page_state_;
  std::atomic<bool> tracking_{false};
  std::atomic<std::uint64_t> faults_{0};
};

namespace trap_internal {
/// Registers/unregisters a region with the global fault dispatcher.
/// Exposed for white-box tests only.
void register_region(TrackedRegion* r);
void unregister_region(TrackedRegion* r);
std::size_t registered_count();
}  // namespace trap_internal

}  // namespace hdsm::mem

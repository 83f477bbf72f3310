// Page-aligned shared regions.
//
// Every DSM node backs its GThV image with a Region: an mmap'd, page-
// aligned block whose protection can be toggled per page.  This is the
// substrate of the paper's write-detection strategy ("a traditional DSM
// relies on the mprotect() system call in order to trap writes", §4).
#pragma once

#include <cstddef>
#include <cstdint>

namespace hdsm::mem {

/// RAII wrapper around an anonymous, page-aligned mapping.
class Region {
 public:
  /// Maps at least `length` bytes (rounded up to whole host pages),
  /// readable and writable.  Throws std::bad_alloc on mmap failure.
  explicit Region(std::size_t length);
  ~Region();

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;
  Region(Region&& other) noexcept;
  Region& operator=(Region&& other) noexcept;

  std::byte* data() noexcept { return base_; }
  const std::byte* data() const noexcept { return base_; }

  /// A second mapping of the same physical pages that is always writable
  /// regardless of protect() calls on the primary view.  DSM engines write
  /// incoming updates through it so update application never trips the
  /// write trap (mirrored-page technique; falls back to the primary view
  /// if the kernel lacks memfd, in which case writes may fault).
  std::byte* alias() noexcept { return alias_; }
  bool has_alias() const noexcept { return alias_ != base_; }

  /// The byte length originally requested.
  std::size_t requested() const noexcept { return requested_; }
  /// The mapped length (multiple of the host page size).
  std::size_t length() const noexcept { return length_; }
  std::size_t page_count() const noexcept;

  /// Change protection on the whole region. `prot` is a PROT_* mask.
  void protect(int prot);
  /// Change protection on `count` pages from page `first` on.
  void protect_pages(std::size_t first, std::size_t count, int prot);

  /// True when `p` points into this region.
  bool contains(const void* p) const noexcept;
  /// Page index containing region offset `offset`.
  std::size_t page_of(std::size_t offset) const noexcept;

  static std::size_t host_page_size() noexcept;

 private:
  std::byte* base_ = nullptr;
  std::byte* alias_ = nullptr;
  std::size_t length_ = 0;
  std::size_t requested_ = 0;
};

}  // namespace hdsm::mem

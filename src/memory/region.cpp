#include "memory/region.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <new>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace hdsm::mem {

std::size_t Region::host_page_size() noexcept {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

Region::Region(std::size_t length) {
  if (length == 0) throw std::invalid_argument("Region: zero length");
  const std::size_t ps = host_page_size();
  requested_ = length;
  length_ = (length + ps - 1) / ps * ps;

  // Preferred: a memfd-backed file mapped twice — the protectable primary
  // view plus an always-writable alias for fault-free update application.
  const int fd = static_cast<int>(::syscall(SYS_memfd_create, "hdsm-region",
                                            0u));
  if (fd >= 0) {
    if (::ftruncate(fd, static_cast<off_t>(length_)) == 0) {
      void* p = ::mmap(nullptr, length_, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd, 0);
      void* a = p != MAP_FAILED
                    ? ::mmap(nullptr, length_, PROT_READ | PROT_WRITE,
                             MAP_SHARED, fd, 0)
                    : MAP_FAILED;
      ::close(fd);  // the mappings keep the memory alive
      if (p != MAP_FAILED && a != MAP_FAILED) {
        base_ = static_cast<std::byte*>(p);
        alias_ = static_cast<std::byte*>(a);
        return;
      }
      if (p != MAP_FAILED) ::munmap(p, length_);
      if (a != MAP_FAILED) ::munmap(a, length_);
    } else {
      ::close(fd);
    }
  }

  // Fallback: single anonymous mapping; alias == primary (updates applied
  // through it will fault like ordinary writes).
  void* p = ::mmap(nullptr, length_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
  alias_ = base_;
}

Region::~Region() {
  if (alias_ != nullptr && alias_ != base_) {
    ::munmap(alias_, length_);
  }
  if (base_ != nullptr) {
    ::munmap(base_, length_);
  }
}

Region::Region(Region&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      alias_(std::exchange(other.alias_, nullptr)),
      length_(std::exchange(other.length_, 0)),
      requested_(std::exchange(other.requested_, 0)) {}

Region& Region::operator=(Region&& other) noexcept {
  if (this != &other) {
    if (alias_ != nullptr && alias_ != base_) ::munmap(alias_, length_);
    if (base_ != nullptr) ::munmap(base_, length_);
    base_ = std::exchange(other.base_, nullptr);
    alias_ = std::exchange(other.alias_, nullptr);
    length_ = std::exchange(other.length_, 0);
    requested_ = std::exchange(other.requested_, 0);
  }
  return *this;
}

std::size_t Region::page_count() const noexcept {
  return length_ / host_page_size();
}

void Region::protect(int prot) {
  if (::mprotect(base_, length_, prot) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "mprotect(region)");
  }
}

void Region::protect_pages(std::size_t first, std::size_t count, int prot) {
  const std::size_t ps = host_page_size();
  if (first > page_count() || count > page_count() - first) {
    throw std::out_of_range("Region::protect_pages");
  }
  if (::mprotect(base_ + first * ps, count * ps, prot) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "mprotect(pages)");
  }
}

bool Region::contains(const void* p) const noexcept {
  const std::byte* b = static_cast<const std::byte*>(p);
  return b >= base_ && b < base_ + length_;
}

std::size_t Region::page_of(std::size_t offset) const noexcept {
  return offset / host_page_size();
}

}  // namespace hdsm::mem

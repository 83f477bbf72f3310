#include "memory/write_trap.hpp"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>

#include "platform/strided_copy.hpp"

// The installed uapi headers predate the asynchronous write-protect trap
// (Linux 6.7).  These values are the kernel's own.
#ifndef UFFD_FEATURE_WP_UNPOPULATED
#define UFFD_FEATURE_WP_UNPOPULATED (1 << 13)
#endif
#ifndef UFFD_FEATURE_WP_ASYNC
#define UFFD_FEATURE_WP_ASYNC (1 << 15)
#endif
#ifndef PAGEMAP_SCAN
struct page_region {
  __u64 start;
  __u64 end;
  __u64 categories;
};
struct pm_scan_arg {
  __u64 size;
  __u64 flags;
  __u64 start;
  __u64 end;
  __u64 walk_end;
  __u64 vec;
  __u64 vec_len;
  __u64 max_pages;
  __u64 category_inverted;
  __u64 category_mask;
  __u64 category_anyof_mask;
  __u64 return_mask;
};
#define PAGEMAP_SCAN _IOWR('f', 16, struct pm_scan_arg)
#define PM_SCAN_WP_MATCHING (1 << 0)
#define PM_SCAN_CHECK_WPASYNC (1 << 1)
#define PAGE_IS_WRITTEN (1 << 1)
#endif

namespace hdsm::mem {

namespace {

// Sized for a whole simulated cluster in one process: a thousand-remote
// transport bench owns a region per remote plus the home's.  Slots are one
// pointer each and the handler's scan is a relaxed walk of null checks, so
// headroom here is nearly free.
constexpr std::size_t kMaxRegions = 4096;

// Fixed-slot registry read lock-free from the signal handler.
std::atomic<TrackedRegion*> g_slots[kMaxRegions];
std::mutex g_registry_mutex;  // serializes register/unregister and g_uffd

struct sigaction g_prev_sigsegv;
bool g_handler_installed = false;

void sigsegv_handler(int signo, siginfo_t* info, void* ctx) {
  void* addr = info != nullptr ? info->si_addr : nullptr;
  if (addr != nullptr) {
    for (std::size_t i = 0; i < kMaxRegions; ++i) {
      TrackedRegion* r = g_slots[i].load(std::memory_order_acquire);
      if (r != nullptr && r->on_fault(addr)) {
        return;  // resolved: retry the faulting instruction
      }
    }
  }
  // Not ours: chain to the previous handler or re-raise with the default
  // disposition so genuine crashes still crash.
  if (g_prev_sigsegv.sa_flags & SA_SIGINFO) {
    if (g_prev_sigsegv.sa_sigaction != nullptr) {
      g_prev_sigsegv.sa_sigaction(signo, info, ctx);
      return;
    }
  } else if (g_prev_sigsegv.sa_handler != SIG_DFL &&
             g_prev_sigsegv.sa_handler != SIG_IGN &&
             g_prev_sigsegv.sa_handler != nullptr) {
    g_prev_sigsegv.sa_handler(signo);
    return;
  }
  signal(SIGSEGV, SIG_DFL);
  raise(SIGSEGV);
}

void ensure_handler_installed() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  if (g_handler_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = sigsegv_handler;
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGSEGV, &sa, &g_prev_sigsegv) != 0) {
    throw std::runtime_error("sigaction(SIGSEGV) failed");
  }
  g_handler_installed = true;
}

// One userfaultfd and one /proc/self/pagemap for the whole process, shared
// by every Uffd region: a thousand-region bench must not hold two fds per
// region.  Opened lazily by the first Uffd region.  Nobody reads the
// userfaultfd: with WP_ASYNC the kernel resolves every fault itself.
constexpr __u64 kUffdFeatures = UFFD_FEATURE_WP_ASYNC |
                                UFFD_FEATURE_WP_HUGETLBFS_SHMEM |
                                UFFD_FEATURE_WP_UNPOPULATED;

struct UffdFds {
  int uffd = -1;
  int pagemap = -1;
  int err = 0;             // errno of the refused step, 0 = usable
  const char* step = "";   // which step the kernel refused
  bool opened = false;
};
UffdFds g_uffd;

// Both fds name the parent's address space, so a forked child must not
// use them: it reopens its own on its first Uffd region.
void reset_uffd_in_child() {
  if (g_uffd.uffd >= 0) ::close(g_uffd.uffd);
  if (g_uffd.pagemap >= 0) ::close(g_uffd.pagemap);
  g_uffd = UffdFds{};
}

void refuse(UffdFds& s, const char* step) {
  s.err = errno;
  s.step = step;
  if (s.uffd >= 0) ::close(s.uffd);
  if (s.pagemap >= 0) ::close(s.pagemap);
  s.uffd = s.pagemap = -1;
}

const UffdFds& shared_uffd() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  UffdFds& s = g_uffd;
  if (s.opened) return s;
  s.opened = true;
  static std::once_flag atfork_once;
  std::call_once(atfork_once, [] {
    ::pthread_atfork(nullptr, nullptr, reset_uffd_in_child);
  });
  s.uffd = static_cast<int>(::syscall(
      SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
  if (s.uffd < 0) {
    refuse(s, "userfaultfd");
    return s;
  }
  uffdio_api api{};
  api.api = UFFD_API;
  api.features = kUffdFeatures;
  if (::ioctl(s.uffd, UFFDIO_API, &api) != 0) {
    refuse(s, "UFFDIO_API");
    return s;
  }
  if ((api.features & kUffdFeatures) != kUffdFeatures) {
    errno = ENOTSUP;
    refuse(s, "UFFDIO_API features");
    return s;
  }
  s.pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (s.pagemap < 0) refuse(s, "open(/proc/self/pagemap)");
  return s;
}

/// 0 when the kernel offers the async trap for `r`, else the errno of the
/// refused step (named in `step`).
int uffd_refusal(Region& r, const char*& step) {
  if (!r.has_alias()) {
    // Without a second view apply_update would be reported as written.
    step = "dual mapping";
    return ENOTSUP;
  }
  const UffdFds& s = shared_uffd();
  if (s.err != 0) {
    step = s.step;
    return s.err;
  }
  pm_scan_arg arg{};
  arg.size = sizeof(arg);
  arg.start = reinterpret_cast<__u64>(r.data());
  arg.end = arg.start + r.length();
  if (::ioctl(s.pagemap, PAGEMAP_SCAN, &arg) < 0) {
    step = "PAGEMAP_SCAN";  // ENOTTY: a kernel without PAGEMAP_SCAN
    return errno;
  }
  return 0;
}

}  // namespace

namespace trap_internal {

void register_region(TrackedRegion* r) {
  ensure_handler_installed();
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (std::size_t i = 0; i < kMaxRegions; ++i) {
    TrackedRegion* expected = nullptr;
    if (g_slots[i].compare_exchange_strong(expected, r,
                                           std::memory_order_release)) {
      return;
    }
  }
  throw std::runtime_error("write_trap: region registry full");
}

void unregister_region(TrackedRegion* r) {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (std::size_t i = 0; i < kMaxRegions; ++i) {
    TrackedRegion* expected = r;
    if (g_slots[i].compare_exchange_strong(expected, nullptr,
                                           std::memory_order_release)) {
      return;
    }
  }
}

std::size_t registered_count() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::size_t n = 0;
  for (std::size_t i = 0; i < kMaxRegions; ++i) {
    if (g_slots[i].load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

}  // namespace trap_internal

TrackedRegion::TrackedRegion(std::size_t length, TrapBackend want)
    : region_(length),
      twins_(new std::byte[region_.length()]),
      clean_runs_(new std::uint8_t[region_.page_count()]) {
  if (want != TrapBackend::Sigsegv) {
    const char* step = "";
    const int err = uffd_refusal(region_, step);
    if (err == 0) {
      backend_ = TrapBackend::Uffd;
      return;
    }
    if (want == TrapBackend::Uffd) {
      throw std::system_error(err, std::generic_category(),
                              std::string("write_trap: uffd refused at ") +
                                  step);
    }
  }
  page_state_.reset(new std::atomic<std::uint8_t>[region_.page_count()]);
  for (std::size_t i = 0; i < region_.page_count(); ++i) {
    page_state_[i].store(0, std::memory_order_relaxed);
  }
  trap_internal::register_region(this);
}

TrackedRegion::~TrackedRegion() {
  // Uffd: unmapping the region drops its registration.
  if (backend_ != TrapBackend::Sigsegv) return;
  trap_internal::unregister_region(this);
  // Leave pages writable so teardown of anything else touching the mapping
  // (none today) cannot fault.
  try {
    region_.protect(PROT_READ | PROT_WRITE);
  } catch (...) {
    // Destructor must not throw; the mapping is about to be unmapped anyway.
  }
}

void TrackedRegion::register_uffd() {
  // Registration waits for the first begin_tracking(): a registered range
  // loses the kernel's fault-around, which would cost a never-tracked
  // region (object mode) a page fault per page it touches.
  const UffdFds& s = shared_uffd();
  uffdio_register reg{};
  reg.range.start = reinterpret_cast<__u64>(region_.data());
  reg.range.len = region_.length();
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  if (::ioctl(s.uffd, UFFDIO_REGISTER, &reg) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "UFFDIO_REGISTER");
  }
  uffd_registered_ = true;
}

void TrackedRegion::protect_pages(std::size_t first, std::size_t count,
                                  bool on) {
  if (backend_ == TrapBackend::Sigsegv) {
    region_.protect_pages(first, count,
                          on ? PROT_READ : PROT_READ | PROT_WRITE);
    return;
  }
  const std::size_t ps = Region::host_page_size();
  uffdio_writeprotect wp{};
  wp.range.start = reinterpret_cast<__u64>(region_.data() + first * ps);
  wp.range.len = count * ps;
  wp.mode = on ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
  if (::ioctl(g_uffd.uffd, UFFDIO_WRITEPROTECT, &wp) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "UFFDIO_WRITEPROTECT");
  }
}

void TrackedRegion::begin_tracking() {
  std::memcpy(twins_.get(), region_.data(), region_.length());
  std::memset(clean_runs_.get(), 0, region_.page_count());
  if (backend_ == TrapBackend::Uffd) {
    if (!uffd_registered_) register_uffd();
  } else {
    for (std::size_t i = 0; i < region_.page_count(); ++i) {
      page_state_[i].store(0, std::memory_order_relaxed);
    }
  }
  // Arm the handler before any page can fault: on Sigsegv, a concurrent
  // writer that faults between the protect and a later store to tracking_
  // would otherwise crash with an unhandled SIGSEGV.
  tracking_.store(true, std::memory_order_release);
  protect_pages(0, region_.page_count(), true);
}

void TrackedRegion::end_tracking() {
  // Reverse order of begin_tracking for the same reason.
  if (backend_ == TrapBackend::Sigsegv || uffd_registered_) {
    protect_pages(0, region_.page_count(), false);
  }
  tracking_.store(false, std::memory_order_release);
}

const std::vector<std::size_t>& TrackedRegion::take_changed() {
  hot_.clear();
  hot_pages(0, region_.page_count(), hot_);
  const std::size_t ps = Region::host_page_size();
  changed_.clear();
  // Pages going cold, re-protected one run of adjacent pages per call.
  std::size_t cold_first = 0;
  std::size_t cold_count = 0;
  const auto cool = [&] {
    if (cold_count == 0) return;
    protect_pages(cold_first, cold_count, true);
    // No write races the protect (the caller owns the interval), but a
    // state cleared only after it means one that did would fault and wait
    // for this store instead of going unseen.
    if (backend_ == TrapBackend::Sigsegv) {
      for (std::size_t i = 0; i < cold_count; ++i) {
        page_state_[cold_first + i].store(0, std::memory_order_release);
      }
    }
  };
  for (const std::size_t page : hot_) {
    const std::size_t off = page * ps;
    if (std::memcmp(region_.data() + off, twins_.get() + off, ps) != 0) {
      clean_runs_[page] = 0;
      changed_.push_back(page);
      continue;
    }
    if (++clean_runs_[page] < kCoolAfter) continue;
    clean_runs_[page] = 0;
    if (cold_first + cold_count != page) {
      cool();
      cold_first = page;
      cold_count = 0;
    }
    ++cold_count;
  }
  cool();
  return changed_;
}

void TrackedRegion::hot_pages(std::size_t first, std::size_t last,
                              std::vector<std::size_t>& out) const {
  if (backend_ == TrapBackend::Sigsegv) {
    for (std::size_t i = first; i < last; ++i) {
      if (page_state_[i].load(std::memory_order_acquire) != 0) {
        out.push_back(i);
      }
    }
    return;
  }
  const std::size_t ps = Region::host_page_size();
  const __u64 base = reinterpret_cast<__u64>(region_.data());
  // Each entry is a run of contiguous hot pages; a full vector ends the
  // walk early, and the next ioctl resumes at walk_end.
  page_region vec[64];
  pm_scan_arg arg{};
  arg.size = sizeof(arg);
  arg.flags = PM_SCAN_CHECK_WPASYNC;
  arg.start = base + first * ps;
  arg.end = base + last * ps;
  arg.vec = reinterpret_cast<__u64>(vec);
  arg.vec_len = std::size(vec);
  arg.category_mask = PAGE_IS_WRITTEN;
  arg.return_mask = PAGE_IS_WRITTEN;
  for (;;) {
    const int n = ::ioctl(g_uffd.pagemap, PAGEMAP_SCAN, &arg);
    if (n < 0) {
      throw std::system_error(errno, std::generic_category(), "PAGEMAP_SCAN");
    }
    for (int i = 0; i < n; ++i) {
      for (__u64 a = vec[i].start; a < vec[i].end; a += ps) {
        out.push_back((a - base) / ps);
      }
    }
    if (arg.walk_end >= arg.end) return;
    arg.start = arg.walk_end;
  }
}

std::vector<std::size_t> TrackedRegion::dirty_pages() const {
  std::vector<std::size_t> out;
  if (tracking()) hot_pages(0, region_.page_count(), out);
  return out;
}

bool TrackedRegion::page_dirty(std::size_t page) const {
  std::vector<std::size_t> out;
  if (tracking()) hot_pages(page, page + 1, out);
  return !out.empty();
}

void TrackedRegion::apply_update(std::size_t offset, const void* src,
                                 std::size_t n) {
  if (offset + n > region_.length()) {
    throw std::out_of_range("TrackedRegion::apply_update");
  }
  // Write through the always-writable alias view: update application never
  // trips the write trap, so only genuine application writes are detected.
  std::memcpy(region_.alias() + offset, src, n);
  if (!tracking_.load(std::memory_order_acquire)) return;
  std::memcpy(twins_.get() + offset, src, n);
}

void TrackedRegion::apply_strided(std::size_t offset, const void* src,
                                  std::size_t elem, std::size_t count,
                                  std::size_t stride) {
  if (count == 0) return;
  const std::size_t length = region_.length();
  if (stride == 0 || elem > stride || offset > length ||
      elem > length - offset ||
      count - 1 > (length - offset - elem) / stride) {
    throw std::out_of_range("TrackedRegion::apply_strided");
  }
  const auto* in = static_cast<const std::byte*>(src);
  plat::strided_copy(region_.alias() + offset, stride, in, elem, elem, count);
  if (!tracking_.load(std::memory_order_acquire)) return;
  plat::strided_copy(twins_.get() + offset, stride, in, elem, elem, count);
}

bool TrackedRegion::on_fault(void* addr) noexcept {
  if (!region_.contains(addr)) return false;
  if (!tracking_.load(std::memory_order_acquire)) return false;
  const std::size_t ps = Region::host_page_size();
  const std::size_t offset =
      static_cast<std::size_t>(static_cast<std::byte*>(addr) - region_.data());
  const std::size_t page = offset / ps;

  // The first thread to fault marks the page hot and unprotects it.
  // Another thread faulting on the page before the mprotect lands returns
  // too and retries its store: it either succeeds or faults back here, a
  // short, bounded wait.
  if (page_state_[page].exchange(1, std::memory_order_acq_rel) == 0) {
    ::mprotect(region_.data() + page * ps, ps, PROT_READ | PROT_WRITE);
  }
  return true;
}

}  // namespace hdsm::mem

#include "memory/write_trap.hpp"

#include <signal.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace hdsm::mem {

namespace {

// Sized for a whole simulated cluster in one process: a thousand-remote
// transport bench owns a region per remote plus the home's.  Slots are one
// pointer each and the handler's scan is a relaxed walk of null checks, so
// headroom here is nearly free.
constexpr std::size_t kMaxRegions = 4096;

// Fixed-slot registry read lock-free from the signal handler.
std::atomic<TrackedRegion*> g_slots[kMaxRegions];
std::mutex g_registry_mutex;  // serializes register/unregister only

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

TrackedRegion::TrackedRegion(std::size_t length)
    : region_(length),
      twins_(new std::byte[region_.length()]),
      page_state_(new std::atomic<std::uint8_t>[region_.page_count()]) {
  for (std::size_t i = 0; i < region_.page_count(); ++i) {
    page_state_[i].store(0, std::memory_order_relaxed);
  }
  trap_internal::register_region(this);
}

TrackedRegion::~TrackedRegion() {
  trap_internal::unregister_region(this);
  // Leave pages writable so teardown of anything else touching the mapping
  // (none today) cannot fault.
  try {
    region_.protect(PROT_READ | PROT_WRITE);
  } catch (...) {
    // Destructor must not throw; the mapping is about to be unmapped anyway.
  }
}

void TrackedRegion::begin_tracking() {
  clear_dirty();
  // Arm the handler before any page can fault: a concurrent writer that
  // faults between protect() and a later store to tracking_ would otherwise
  // crash with an unhandled SIGSEGV.
  tracking_.store(true, std::memory_order_release);
  region_.protect(PROT_READ);
}

void TrackedRegion::end_tracking() {
  // Reverse order of begin_tracking for the same reason.
  region_.protect(PROT_READ | PROT_WRITE);
  tracking_.store(false, std::memory_order_release);
}

void TrackedRegion::rearm() {
  clear_dirty();
  region_.protect(PROT_READ);
}

std::vector<std::size_t> TrackedRegion::dirty_pages() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < region_.page_count(); ++i) {
    if (page_state_[i].load(std::memory_order_acquire) == 2) {
      out.push_back(i);
    }
  }
  return out;
}

bool TrackedRegion::page_dirty(std::size_t page) const noexcept {
  return page_state_[page].load(std::memory_order_acquire) == 2;
}

const std::byte* TrackedRegion::twin_page(std::size_t page) const noexcept {
  return twins_.get() + page * Region::host_page_size();
}

void TrackedRegion::clear_dirty() {
  for (std::size_t i = 0; i < region_.page_count(); ++i) {
    page_state_[i].store(0, std::memory_order_relaxed);
  }
  faults_.store(0, std::memory_order_relaxed);
}

void TrackedRegion::apply_update(std::size_t offset, const void* src,
                                 std::size_t n) {
  if (offset + n > region_.length()) {
    throw std::out_of_range("TrackedRegion::apply_update");
  }
  // Write through the always-writable alias view: update application never
  // trips the write trap, so only genuine application writes get twinned.
  std::memcpy(region_.alias() + offset, src, n);
  if (!tracking_.load(std::memory_order_acquire)) return;
  // Mirror into the twins of already-dirty pages so the update is
  // invisible to the next diff.  Clean pages have no live twin: their
  // snapshot is taken on the first tracked application write, which will
  // already see the updated bytes.  State 1 means a fault handler on some
  // other thread is mid-way through that snapshot memcpy — wait for its
  // release-store to 2 before mirroring, so the two twin writes are
  // ordered and the twin deterministically ends with the updated bytes.
  // The owner only runs a page copy, an mprotect, and a store, so the
  // wait is short and bounded; it takes no locks, so there is no cycle.
  const std::size_t ps = Region::host_page_size();
  std::size_t pos = offset;
  const std::size_t end = offset + n;
  while (pos < end) {
    const std::size_t page = pos / ps;
    const std::size_t page_end = std::min(end, (page + 1) * ps);
    std::uint8_t st = page_state_[page].load(std::memory_order_acquire);
    while (st == 1) {
      std::this_thread::yield();
      st = page_state_[page].load(std::memory_order_acquire);
    }
    if (st != 0) {
      std::memcpy(twins_.get() + pos,
                  static_cast<const std::byte*>(src) + (pos - offset),
                  page_end - pos);
    }
    pos = page_end;
  }
}

bool TrackedRegion::on_fault(void* addr) noexcept {
  if (!region_.contains(addr)) return false;
  if (!tracking_.load(std::memory_order_acquire)) return false;
  const std::size_t ps = Region::host_page_size();
  const std::size_t offset =
      static_cast<std::size_t>(static_cast<std::byte*>(addr) - region_.data());
  const std::size_t page = offset / ps;

  std::uint8_t expected = 0;
  if (page_state_[page].compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel)) {
    // We own the twin copy for this page.  The page is still read-only, so
    // its contents cannot change under us.
    std::memcpy(twins_.get() + page * ps, region_.data() + page * ps, ps);
    faults_.fetch_add(1, std::memory_order_relaxed);
    ::mprotect(region_.data() + page * ps, ps, PROT_READ | PROT_WRITE);
    page_state_[page].store(2, std::memory_order_release);
    return true;
  }
  // Another thread is twinning this page right now (state 1) or already
  // finished (state 2).  Returning retries the faulting instruction; it
  // either succeeds (page unprotected by the owner) or faults again and
  // lands back here — a short, bounded wait.
  return true;
}

}  // namespace hdsm::mem

// Microbenchmark: the write trap on both backends — cost of the first
// (detected) write to a page vs subsequent writes, the collect that ends a
// one-page interval on a hot page, the whole life of a page written once
// until it has gone cold again, and fault-free update application through
// the alias view.  Both backends keep the same standing shadow as the
// twin: the collect refreshes the changed page in it and every tracked
// update is written to it too.
//
// `uffd` selects the backend: 0 is the paper's mprotect/SIGSEGV trap
// (fault, mark the page hot, unprotect), 1 the userfaultfd async
// write-protect trap (the kernel clears the page's write-protect bit;
// PAGEMAP_SCAN finds the hot pages).  The first-write and collect cases
// also take a sibling-thread count: 0, or 3 threads of this process
// spinning on other cores.  Every simulated node runs in one process, so a
// protection change must also flush the TLBs of the cores the other nodes'
// threads occupy; the busy rows price that shootdown, which separate
// machines would not pay.
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "memory/write_trap.hpp"

namespace mem = hdsm::mem;

namespace {

/// Pins `t` to one core (modulo the cores this machine has).
void pin(pthread_t t, unsigned core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(t, sizeof(set), &set);
}

/// `n` threads of this process spinning on the cores after the calling
/// thread's, which is pinned to its current core for the object's life.
class BusySiblings {
 public:
  explicit BusySiblings(unsigned n) {
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    const unsigned self = static_cast<unsigned>(sched_getcpu());
    pin(pthread_self(), self);
    for (unsigned i = 1; i <= n; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
      pin(threads_.back().native_handle(), self + i);
    }
  }
  ~BusySiblings() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  BusySiblings(const BusySiblings&) = delete;
  BusySiblings& operator=(const BusySiblings&) = delete;

 private:
  cpu_set_t saved_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

mem::TrapBackend backend_arg(std::int64_t uffd) {
  return uffd != 0 ? mem::TrapBackend::Uffd : mem::TrapBackend::Sigsegv;
}

/// A region on the requested backend, or null (and the row skipped) when
/// the kernel refuses userfaultfd.
std::unique_ptr<mem::TrackedRegion> make_region(benchmark::State& state,
                                                std::size_t bytes,
                                                std::int64_t uffd) {
  try {
    return std::make_unique<mem::TrackedRegion>(bytes, backend_arg(uffd));
  } catch (const std::system_error& e) {
    state.SkipWithError(e.what());
    return nullptr;
  }
}

void BM_FirstWrite(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = 64;
  BusySiblings siblings(static_cast<unsigned>(state.range(0)));
  const auto region = make_region(state, pages * ps, state.range(1));
  if (!region) return;
  region->begin_tracking();
  std::size_t page = 0;
  for (auto _ : state) {
    region->data()[page * ps] = std::byte{1};  // the trap fires here
    page = (page + 1) % pages;
    if (page == 0) {
      state.PauseTiming();
      region->collect([](std::size_t, const std::byte*) {});
      state.ResumeTiming();
    }
  }
  region->end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_SubsequentWritesNoFault(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const auto region = make_region(state, ps, state.range(0));
  if (!region) return;
  region->begin_tracking();
  region->data()[0] = std::byte{1};  // detected once
  std::size_t i = 1;
  for (auto _ : state) {
    region->data()[i % ps] = std::byte{2};
    ++i;
  }
  region->end_tracking();
  state.SetItemsProcessed(state.iterations());
}

// The collect that closes a one-page interval (a lock_small episode): the
// page written in every interval stays hot, so its writes are not trapped
// and the collect re-protects nothing.  It finds the hot page (Sigsegv: a
// walk of the page states; Uffd: PAGEMAP_SCAN), compares it with its
// shadow and, as it changed, refreshes the shadow.  The rows include
// google-benchmark's pause/resume around the untimed write.
void BM_CollectOnePage(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  BusySiblings siblings(static_cast<unsigned>(state.range(1)));
  const auto region = make_region(state, pages * ps, state.range(2));
  if (!region) return;
  region->begin_tracking();
  std::uint8_t value = 0;
  for (auto _ : state) {
    state.PauseTiming();
    region->data()[0] = std::byte{++value};  // new bytes: the page changed
    state.ResumeTiming();
    region->collect([](std::size_t, const std::byte*) {});
  }
  region->end_tracking();
  state.SetItemsProcessed(state.iterations());
}

// The price of cooling: one iteration is the whole life of a page written
// once and never again.  The write is trapped (the page is cold) and makes
// the page hot, the next collect visits it, and the kCoolAfter collects
// after that compare it clean, the last of them re-protecting it: the
// kCoolAfter clean collects are what cooling adds to a page written once.
void BM_WriteOncePageCools(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  BusySiblings siblings(static_cast<unsigned>(state.range(1)));
  const auto region = make_region(state, pages * ps, state.range(2));
  if (!region) return;
  region->begin_tracking();
  std::uint8_t value = 0;
  for (auto _ : state) {
    region->data()[0] = std::byte{++value};  // the trap fires here
    for (std::size_t i = 0; i <= mem::TrackedRegion::kCoolAfter; ++i) {
      region->collect([](std::size_t, const std::byte*) {});
    }
  }
  if (region->page_dirty(0)) state.SkipWithError("the page did not cool");
  region->end_tracking();
  state.SetItemsProcessed(state.iterations());
  state.counters["cool_after"] = mem::TrackedRegion::kCoolAfter;
}

void BM_ApplyUpdateThroughAlias(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const auto region = make_region(state, 64 * ps, state.range(1));
  if (!region) return;
  region->begin_tracking();
  std::vector<std::byte> update(bytes, std::byte{0x5A});
  for (auto _ : state) {
    // Lands without a trap even though every page is protected, and is
    // written to the standing shadow too.
    region->apply_update(0, update.data(), update.size());
  }
  region->end_tracking();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_FirstWrite)
    ->ArgNames({"siblings", "uffd"})
    ->ArgsProduct({{0, 3}, {0, 1}})
    ->Apply(hdsm::bench::wall_clock);
BENCHMARK(BM_SubsequentWritesNoFault)->ArgName("uffd")->Arg(0)->Arg(1);
BENCHMARK(BM_CollectOnePage)
    ->ArgNames({"pages", "siblings", "uffd"})
    ->ArgsProduct({{3, 256}, {0, 3}, {0, 1}})
    ->Apply(hdsm::bench::wall_clock);
BENCHMARK(BM_WriteOncePageCools)
    ->ArgNames({"pages", "siblings", "uffd"})
    ->ArgsProduct({{3, 256}, {0, 3}, {0, 1}})
    ->Apply(hdsm::bench::wall_clock);
BENCHMARK(BM_ApplyUpdateThroughAlias)
    ->ArgNames({"bytes", "uffd"})
    ->ArgsProduct({{4096, 1 << 18}, {0, 1}});

BENCHMARK_MAIN();

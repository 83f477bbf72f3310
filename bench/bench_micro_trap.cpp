// Microbenchmark: the mprotect/SIGSEGV write-trap — cost of the first
// (faulting, twinning) write to a page vs subsequent writes, interval
// re-arm cost, and fault-free update application through the alias view.
//
// The fault and re-arm cases take a sibling-thread count: 0, or 3 threads
// of this process spinning on other cores.  Every simulated node runs in
// one process, so a protection change must also flush the TLBs of the
// cores the other nodes' threads occupy; the busy rows price that
// shootdown, which separate machines would not pay.
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
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

void BM_FirstWriteFaultAndTwin(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = 64;
  BusySiblings siblings(static_cast<unsigned>(state.range(0)));
  mem::TrackedRegion region(pages * ps);
  region.begin_tracking();
  std::size_t page = 0;
  for (auto _ : state) {
    region.data()[page * ps] = std::byte{1};  // fault + twin + unprotect
    page = (page + 1) % pages;
    if (page == 0) {
      state.PauseTiming();
      region.rearm();
      state.ResumeTiming();
    }
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_SubsequentWritesNoFault(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion region(ps);
  region.begin_tracking();
  region.data()[0] = std::byte{1};  // fault once
  std::size_t i = 1;
  for (auto _ : state) {
    region.data()[i % ps] = std::byte{2};
    ++i;
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

// The re-arm that closes a one-page interval (a lock_small episode): the
// first page was written, so the whole-region mprotect downgrades it.
void BM_RearmWholeRegion(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  BusySiblings siblings(static_cast<unsigned>(state.range(1)));
  mem::TrackedRegion region(pages * ps);
  region.begin_tracking();
  for (auto _ : state) {
    state.PauseTiming();
    region.data()[0] = std::byte{1};  // fault + twin + unprotect
    state.ResumeTiming();
    region.rearm();
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_ApplyUpdateThroughAlias(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  mem::TrackedRegion region(64 * ps);
  region.begin_tracking();
  std::vector<std::byte> update(bytes, std::byte{0x5A});
  for (auto _ : state) {
    // Lands without faulting even though every page is protected.
    region.apply_update(0, update.data(), update.size());
  }
  region.end_tracking();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_FirstWriteFaultAndTwin)
    ->ArgName("siblings")
    ->Arg(0)
    ->Arg(3)
    ->Apply(hdsm::bench::wall_clock);
BENCHMARK(BM_SubsequentWritesNoFault);
BENCHMARK(BM_RearmWholeRegion)
    ->ArgNames({"pages", "siblings"})
    ->ArgsProduct({{3, 256}, {0, 3}})
    ->Apply(hdsm::bench::wall_clock);
BENCHMARK(BM_ApplyUpdateThroughAlias)->Arg(4096)->Arg(1 << 18);

BENCHMARK_MAIN();

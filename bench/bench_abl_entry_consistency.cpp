// Ablation: release consistency (the paper's protocol) vs the Midway-style
// entry-consistency extension (ShardedHome::bind_lock).
//
// Workload: two threads, each locking its own mutex and updating its own
// array.  Under release consistency every acquire drains the *whole*
// pending set — including the other thread's unrelated updates; under
// entry consistency an acquire ships only the fields its mutex guards.
// Counters report bytes shipped per acquire and total sharing time.
#include <benchmark/benchmark.h>

#include <thread>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "tags/describe.hpp"

namespace dsm = hdsm::dsm;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;

namespace {

constexpr std::uint64_t kElems = 4096;
constexpr int kRounds = 30;

tags::TypePtr gthv() {
  return tags::describe_struct("G")
      .array<int>("A", kElems)
      .array<int>("B", kElems)
      .build();
}

void run(benchmark::State& state, bool entry_consistency) {
  std::uint64_t bytes = 0, share_ns = 0;
  for (auto _ : state) {
    dsm::ShardedHome home(gthv(), plat::linux_ia32());
    if (entry_consistency) {
      home.bind_lock(1, "A");
      home.bind_lock(2, "B");
    }
    dsm::ShardedRemote r1(gthv(), plat::linux_ia32(), 1, home.attach(1));
    dsm::ShardedRemote r2(gthv(), plat::linux_ia32(), 2, home.attach(2));
    home.start();
    const auto worker = [](dsm::ShardedRemote& r, std::uint32_t lock_id,
                           const char* field) {
      for (int round = 0; round < kRounds; ++round) {
        r.lock(lock_id);
        auto v = r.space().view<std::int32_t>(field);
        for (std::uint64_t i = 0; i < kElems; i += 4) {
          v.set(i, static_cast<std::int32_t>(i + round));
        }
        r.unlock(lock_id);
      }
      r.join();
    };
    std::thread t1([&] { worker(r1, 1, "A"); });
    std::thread t2([&] { worker(r2, 2, "B"); });
    t1.join();
    t2.join();
    home.wait_all_joined();
    const dsm::ShareStats s1 = r1.stats();
    const dsm::ShareStats s2 = r2.stats();
    bytes += s1.update_bytes_received + s2.update_bytes_received;
    share_ns += s1.share_ns() + s2.share_ns() + home.stats().share_ns();
    home.stop();
  }
  state.counters["acquire_bytes_per_iter"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["share_ms_per_iter"] =
      static_cast<double>(share_ns) / 1e6 /
      static_cast<double>(state.iterations());
}

void BM_ReleaseConsistency(benchmark::State& s) { run(s, false); }
void BM_EntryConsistency(benchmark::State& s) { run(s, true); }

}  // namespace

BENCHMARK(BM_ReleaseConsistency)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EntryConsistency)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

// Sharded-home directory bench (docs/SHARDING.md).  Emitted as
// BENCH_sharding.json:
//
//   BM_DisjointLocks/S    - four remotes, each hammering its own mutex,
//                           with the four regions spread across S home
//                           shards (S = 1, 2, 4, 8); S=1 is the paper's
//                           single home node.  Time rises with S, since
//                           each acquire must pull the other ranks'
//                           pending updates from their shards: on a
//                           4-core container 78 / 110 / 148 / 150 ms at
//                           S = 1 / 2 / 4 / 8 (docs/SHARDING.md).
//   BM_ContendedLock/S    - four remotes all on mutex 0: one region, one
//                           shard does all the work whatever S is.  The
//                           directory must not tax the contended case —
//                           S=8 should track S=1.
//   BM_MigrationPause/S   - the region-handoff stop-the-world window
//                           (quiesce -> export -> import -> epoch bump ->
//                           release), measured from migrate_region's own
//                           pause clock on an idle S-shard home.  This is
//                           the latency a request redirected mid-handoff
//                           eats before the chase succeeds.
//
// The lock series time only the episode loop (manual time): the master's
// clock runs from the barrier every rank passes before its first lock to
// the barrier after its last unlock, so cluster setup — attaches, region
// pins, the full-image grants — stays outside the measurement.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "dsm/sharded_cluster.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

namespace {

constexpr std::uint64_t kElems = 1024;
constexpr std::uint32_t kRemotes = 4;

using hdsm::bench::fast_mode;

int ops_per_remote() { return fast_mode() ? 25 : 400; }

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kElems)}});
}

/// One full cluster run: every remote passes barrier 0, does `ops`
/// lock/write/unlock rounds on its mutex, then passes barrier 1 and joins.
/// Returns the master's wall time between the two barriers, in seconds.
double run_cluster(std::uint32_t num_shards, int ops, bool disjoint) {
  dsm::ShardedHomeOptions opts;
  opts.num_shards = num_shards;
  std::vector<const plat::PlatformDesc*> platforms(kRemotes,
                                                   &plat::linux_ia32());
  dsm::ShardedCluster cluster(gthv(), plat::linux_ia32(), platforms, opts);
  if (disjoint) {
    // Pin region r to shard r % S so the four lock streams really land on
    // distinct directory shards (the hash placement may clump them).
    for (std::uint32_t r = 0; r < kRemotes; ++r) {
      cluster.home().migrate_region(r, r % num_shards);
    }
  }
  std::chrono::steady_clock::duration episodes{};
  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.set_barrier_count(0, kRemotes + 1);
        home.set_barrier_count(1, kRemotes + 1);
        home.barrier(0);  // every remote holds the full image from here
        const auto t0 = std::chrono::steady_clock::now();
        home.barrier(1);
        episodes = std::chrono::steady_clock::now() - t0;
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        const std::uint32_t mutex = disjoint ? remote.rank() - 1 : 0;
        remote.barrier(0);
        auto a = remote.space().view<std::int64_t>("A");
        for (int i = 0; i < ops; ++i) {
          remote.lock(mutex);
          const std::uint64_t e = (remote.rank() - 1) * 64 + i % 64;
          a.set(e, a.get(e) + 1);
          remote.unlock(mutex);
        }
        remote.barrier(1);
        remote.join();
      });
  return std::chrono::duration<double>(episodes).count();
}

void lock_bench(benchmark::State& state, bool disjoint) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const int ops = ops_per_remote();
  for (auto _ : state) {
    state.SetIterationTime(run_cluster(shards, ops, disjoint));
  }
  // One item = one acquire-release round (grant + ack + shipped updates).
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRemotes) * ops);
  state.counters["shards"] = static_cast<double>(shards);
}

void BM_DisjointLocks(benchmark::State& state) {
  lock_bench(state, /*disjoint=*/true);
}
BENCHMARK(BM_DisjointLocks)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_ContendedLock(benchmark::State& state) {
  lock_bench(state, /*disjoint=*/false);
}
BENCHMARK(BM_ContendedLock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_MigrationPause(benchmark::State& state) {
  // Manual time: the pause window migrate_region itself reports — wall
  // clock around the bench loop would mostly measure the ping-pong setup.
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  dsm::ShardedHomeOptions opts;
  opts.num_shards = shards;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  home.start();
  std::uint32_t dst = 1 % shards;
  for (auto _ : state) {
    const std::chrono::nanoseconds pause = home.migrate_region(0, dst);
    dst = (dst + 1) % shards;
    state.SetIterationTime(std::chrono::duration<double>(pause).count());
  }
  state.counters["shards"] = static_cast<double>(shards);
  home.stop();
}
BENCHMARK(BM_MigrationPause)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Default the JSON artifact on so a bare run leaves BENCH_sharding.json
// next to the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_sharding.json";
  std::string fmt = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

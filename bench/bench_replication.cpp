// Primary/standby replication bench (docs/REPLICATION.md).  Emitted as
// BENCH_replication.json:
//
//   BM_UnreplicatedLockEpisodes - baseline: two remotes hammering mutex 0
//                                 against a plain home.  The
//                                 replication-off control plane is byte
//                                 identical to pre-replication builds, so
//                                 this is also the regression pin.
//   BM_ReplicatedLockEpisodes   - same workload against a ReplicatedHome:
//                                 every coherence event is appended to the
//                                 standby's log and acked *before* the
//                                 episode's replies flush
//                                 (log-before-reply).  The delta over the
//                                 baseline is the price of surviving a
//                                 coordinator crash.
//   BM_FailoverPause            - the handover window itself, measured from
//                                 fail_over()'s own pause clock (fence ->
//                                 reset_master -> serving) while two
//                                 remotes are mid-run and re-dial through
//                                 the promotion.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dsm/replicated_home.hpp"
#include "dsm/sharded_remote.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

constexpr std::uint64_t kElems = 64;
constexpr std::uint32_t kRemotes = 2;

using hdsm::bench::fast_mode;

int ops_per_remote() { return fast_mode() ? 15 : 200; }

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kElems)}});
}

dsm::RetryPolicy bench_retry() {
  dsm::RetryPolicy p;
  p.timeout = std::chrono::milliseconds(25);
  p.backoff = 1.5;
  p.max_timeout = std::chrono::milliseconds(200);
  p.max_retries = 12;
  return p;
}

/// The per-remote workload every variant runs: `ops` acquire/bump/release
/// rounds on mutex 0, then the shared barrier and join.
void remote_body(dsm::ShardedRemote& remote, int ops,
                 std::atomic<int>* ops_done) {
  auto a = remote.space().view<std::int64_t>("A");
  for (int i = 0; i < ops; ++i) {
    remote.lock(0);
    const std::uint64_t e = (remote.rank() - 1) * 16 + i % 16;
    a.set(e, a.get(e) + 1);
    remote.unlock(0);
    if (ops_done != nullptr) ops_done->fetch_add(1);
  }
  remote.barrier(0);
  remote.join();
}

void run_unreplicated(int ops) {
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  home.set_barrier_count(0, kRemotes + 1);
  home.start();
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 1; rank <= kRemotes; ++rank) {
    msg::EndpointPtr ep = home.attach(rank);
    threads.emplace_back([ops, rank, ep = std::move(ep)]() mutable {
      dsm::ShardedRemoteOptions ropts;
      ropts.retry = bench_retry();
      dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), rank,
                                std::move(ep), ropts);
      remote_body(remote, ops, nullptr);
    });
  }
  home.barrier(0);
  home.wait_all_joined();
  for (std::thread& t : threads) t.join();
  home.stop();
}

/// Returns the failover pause (zero when `failover` is false).
std::chrono::nanoseconds run_replicated(int ops, bool failover) {
  dsm::ReplicatedHome repl(gthv(), plat::linux_ia32());
  repl.set_barrier_count(0, kRemotes + 1);
  repl.start();
  std::atomic<int> ops_done{0};
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 1; rank <= kRemotes; ++rank) {
    msg::EndpointPtr ep = repl.attach(rank);
    threads.emplace_back([&repl, &ops_done, ops, rank,
                          ep = std::move(ep)]() mutable {
      dsm::ShardedRemoteOptions ropts;
      ropts.retry = bench_retry();
      ropts.max_reconnects = 6;
      ropts.reconnect = [&repl, rank] { return repl.redial(rank); };
      dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), rank,
                                std::move(ep), ropts);
      remote_body(remote, ops, &ops_done);
    });
  }
  std::chrono::nanoseconds pause{0};
  if (failover) {
    // Fail over mid-workload.  A remote still starting up when the primary
    // dies re-dials from its constructor like from any request.
    const int threshold = static_cast<int>(kRemotes) * ops / 2;
    while (ops_done.load() < threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pause = repl.fail_over();
  }
  repl.barrier(0);
  repl.wait_all_joined();
  for (std::thread& t : threads) t.join();
  repl.stop();
  return pause;
}

void BM_UnreplicatedLockEpisodes(benchmark::State& state) {
  const int ops = ops_per_remote();
  for (auto _ : state) {
    run_unreplicated(ops);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRemotes) * ops);
}
BENCHMARK(BM_UnreplicatedLockEpisodes)
    ->Apply(hdsm::bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_ReplicatedLockEpisodes(benchmark::State& state) {
  const int ops = ops_per_remote();
  for (auto _ : state) {
    run_replicated(ops, /*failover=*/false);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRemotes) * ops);
}
BENCHMARK(BM_ReplicatedLockEpisodes)
    ->Apply(hdsm::bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_FailoverPause(benchmark::State& state) {
  // Manual time: the pause fail_over itself reports — wall clock around
  // the loop would mostly measure the workload around the handover.
  const int ops = ops_per_remote();
  for (auto _ : state) {
    const std::chrono::nanoseconds pause =
        run_replicated(ops, /*failover=*/true);
    state.SetIterationTime(std::chrono::duration<double>(pause).count());
  }
}
BENCHMARK(BM_FailoverPause)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Default the JSON artifact on so a bare run leaves BENCH_replication.json
// next to the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_replication.json";
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

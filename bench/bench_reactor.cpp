// The reactor transport shell (docs/TRANSPORT.md) under connection count
// and over real sockets.  Emitted as BENCH_reactor.json:
//
//   BM_ChannelsReactor/N  - N simulated remotes attached over in-process
//                           channels; one driver round-robins lock/
//                           write/unlock across all of them, so every
//                           connection carries traffic and every grant
//                           ships the accumulated update backlog.  The
//                           reactor multiplexes all N on one io thread,
//                           so the curve should stay flat as N grows to
//                           1024.
//   BM_TcpReactor/N       - the same over real loopback TCP sockets
//                           (kernel wakeups, Nagle off).
//   BM_LatencyReactor     - happy-path round-trip time at N=4 with one
//                           active remote: idle peers must not tax the
//                           single-stream latency.
//
// items_per_second = lock/write/unlock rounds per second.  Every series
// also reports frames/flush-batches so the write-coalescing ratio lands in
// the JSON.  Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's
// bench-smoke target).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/tcp.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

using hdsm::bench::fast_mode;

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), 64)}});
}

/// One home plus N attached remotes, over channels or loopback TCP.
struct Cluster {
  dsm::ShardedHome home;
  std::unique_ptr<msg::TcpListener> listener;
  std::vector<std::unique_ptr<dsm::ShardedRemote>> remotes;

  Cluster(std::uint32_t n, bool tcp) : home(gthv(), plat::linux_ia32()) {
    if (tcp) listener = std::make_unique<msg::TcpListener>(0);
    for (std::uint32_t r = 1; r <= n; ++r) {
      msg::EndpointPtr ep;
      if (tcp) {
        ep = msg::tcp_connect(listener->port());
        home.attach_endpoint(r, listener->accept());
      } else {
        ep = home.attach(r);
      }
      remotes.push_back(std::make_unique<dsm::ShardedRemote>(
          gthv(), plat::linux_ia32(), r, std::move(ep)));
    }
    home.start();
    // Prime outside timing: the first grant per remote ships the full
    // image; one warm round leaves only incremental updates in the loop.
    for (auto& rm : remotes) {
      rm->lock(0);
      auto a = rm->space().view<std::int64_t>("A");
      a.set(0, a.get(0) + 1);
      rm->unlock(0);
    }
  }

  ~Cluster() {
    for (auto& rm : remotes) rm->join();
    home.stop();
  }

  void round(std::size_t i) {
    dsm::ShardedRemote& rm = *remotes[i % remotes.size()];
    rm.lock(0);
    auto a = rm.space().view<std::int64_t>("A");
    a.set(0, a.get(0) + 1);
    rm.unlock(0);
  }
};

void report_transport(benchmark::State& state, const dsm::ShardedHome& home) {
  const msg::ReactorStats s = home.transport_stats();
  state.counters["frames_in"] = static_cast<double>(s.frames_in);
  state.counters["frames_out"] = static_cast<double>(s.frames_out);
  state.counters["flush_batches"] = static_cast<double>(s.flush_batches);
}

void throughput(benchmark::State& state, bool tcp) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Cluster c(n, tcp);
  std::size_t i = 0;
  for (auto _ : state) c.round(i++);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  report_transport(state, c.home);
}

void latency(benchmark::State& state) {
  Cluster c(4, /*tcp=*/false);
  for (auto _ : state) c.round(0);  // one active stream, three idle peers
  report_transport(state, c.home);
}

void register_series(const std::string& name, bool tcp,
                     const std::vector<std::int64_t>& counts,
                     std::int64_t iters) {
  auto* b = benchmark::RegisterBenchmark(
      name.c_str(), [tcp](benchmark::State& s) { throughput(s, tcp); });
  for (std::int64_t n : counts) b->Arg(n);
  // Fixed iteration counts: re-running the setup (N attaches, N full-image
  // grants) to calibrate timing would dwarf the measurement.
  b->Iterations(iters)
      ->Apply(hdsm::bench::wall_clock)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode();
  register_series("BM_ChannelsReactor", /*tcp=*/false,
                  fast ? std::vector<std::int64_t>{1, 16, 64}
                       : std::vector<std::int64_t>{1, 4, 16, 64, 256, 1024},
                  fast ? 64 : 1024);
  register_series("BM_TcpReactor", /*tcp=*/true,
                  fast ? std::vector<std::int64_t>{1, 8}
                       : std::vector<std::int64_t>{1, 4, 16, 64},
                  fast ? 64 : 512);
  // Single-stream latency sits inside single-run scheduler jitter: report
  // the median of several repetitions so it is a stable number.
  benchmark::RegisterBenchmark("BM_LatencyReactor", latency)
      ->Iterations(fast_mode() ? 256 : 4096)
      ->Repetitions(fast_mode() ? 1 : 5)
      ->ReportAggregatesOnly(true)
      ->Apply(hdsm::bench::wall_clock)
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

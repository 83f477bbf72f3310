// Ablation: what does the reliability layer cost on a healthy network?
//
// The ARQ protocol (docs/RELIABILITY.md) adds a sequence number to every
// request, a dedup lookup + cached reply on the home, and a deadline-based
// wait on the remote.  On a fault-free transport none of those paths do
// retransmission work, so the happy-path overhead should be noise-level —
// this bench pins that claim, and shows what injected faults cost:
//
//   raw        - lock/unlock round trips over a plain in-process channel
//   faulty0    - same, wrapped in a FaultyEndpoint with every fault off
//                (isolates the decorator's bookkeeping: two RNG draws and
//                a mutex per op)
//   duplicate  - every request sent twice (dedup pressure on the home)
//   drop       - 20% request loss (timeout + retransmit pressure); the
//                per-op time is dominated by the retry policy's first
//                timeout, not by CPU work
//
// The nodelay series moves the same round trips onto loopback TCP to price
// one socket knob: TcpOptions::nodelay defaults on because the protocol's
// control frames are small and latency-bound, and
//
//   tcp_nodelay_on  - loopback TCP, Nagle disabled (the default)
//   tcp_nodelay_off - same sockets riding Nagle; the delta is what every
//                     sub-MSS request/grant pair would pay waiting for the
//                     delayed-ACK timer once a stream has unacked data
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/faulty.hpp"
#include "msg/tcp.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

using namespace std::chrono_literals;

namespace {

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), 64)}});
}

dsm::RetryPolicy bench_retry() {
  dsm::RetryPolicy p;
  p.timeout = 10ms;  // short first timeout so the drop mode stays bounded
  p.backoff = 2.0;
  p.max_timeout = 100ms;
  p.max_retries = 12;
  return p;
}

struct Cluster {
  dsm::ShardedHome home;
  std::unique_ptr<msg::TcpListener> listener;
  std::unique_ptr<dsm::ShardedRemote> remote;

  /// `tcp_opts` null = in-process channel; otherwise loopback TCP with the
  /// given socket knobs on both ends.
  Cluster(const msg::FaultOptions* fault, const msg::TcpOptions* tcp_opts)
      : home(gthv(), plat::linux_ia32()) {
    dsm::ShardedRemoteOptions ropts;
    ropts.retry = bench_retry();
    msg::EndpointPtr ep;
    if (tcp_opts != nullptr) {
      listener = std::make_unique<msg::TcpListener>(0, *tcp_opts);
      ep = msg::tcp_connect(listener->port(), *tcp_opts);
      home.attach_endpoint(1, listener->accept());
    } else {
      ep = home.attach(1);
    }
    if (fault != nullptr) ep = msg::make_faulty(std::move(ep), *fault);
    remote = std::make_unique<dsm::ShardedRemote>(gthv(), plat::linux_ia32(),
                                                  1, std::move(ep), ropts);
    home.start();
  }
};

void lock_unlock_rounds(benchmark::State& state, const msg::FaultOptions* f,
                        const msg::TcpOptions* tcp = nullptr) {
  Cluster c(f, tcp);
  // One dirtying round outside timing so the first grant's full-image ship
  // is not measured.
  c.remote->lock(0);
  auto a = c.remote->space().view<std::int64_t>("A");
  a.set(0, 1);
  c.remote->unlock(0);
  for (auto _ : state) {
    c.remote->lock(0);
    auto v = c.remote->space().view<std::int64_t>("A");
    v.set(0, v.get(0) + 1);
    c.remote->unlock(0);
  }
  const dsm::ShareStats& rs = c.remote->stats();
  state.counters["retries"] = static_cast<double>(rs.retries);
  state.counters["dups_dropped"] =
      static_cast<double>(c.home.stats().duplicates_dropped);
  c.remote->join();
  c.home.stop();
}

void BM_RawChannel(benchmark::State& state) {
  lock_unlock_rounds(state, nullptr);
}

void BM_FaultyZeroFaults(benchmark::State& state) {
  const msg::FaultOptions f;  // decorator in place, every fault off
  lock_unlock_rounds(state, &f);
}

void BM_FaultyDuplicateAll(benchmark::State& state) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;
  lock_unlock_rounds(state, &f);
}

void BM_FaultyDrop20(benchmark::State& state) {
  msg::FaultOptions f;
  f.send.drop = 0.2;
  f.recv.drop = 0.2;
  lock_unlock_rounds(state, &f);
}

void BM_TcpNodelayOn(benchmark::State& state) {
  const msg::TcpOptions t;  // nodelay defaults on
  lock_unlock_rounds(state, nullptr, &t);
}

void BM_TcpNodelayOff(benchmark::State& state) {
  msg::TcpOptions t;
  t.nodelay = false;
  lock_unlock_rounds(state, nullptr, &t);
}

}  // namespace

BENCHMARK(BM_RawChannel)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FaultyZeroFaults)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FaultyDuplicateAll)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FaultyDrop20)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TcpNodelayOn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TcpNodelayOff)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();

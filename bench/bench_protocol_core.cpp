// Perf trajectory for the sans-I/O coherence core (docs/PROTOCOL.md §6).
//
// The core/shell split means the home node's protocol decisions are now a
// pure function `step : Event -> [Action]` with no locks, threads, or
// endpoints inside — so we can measure the protocol engine's raw decision
// rate (events/sec) separately from the I/O shell's end-to-end round-trip
// rate (messages/sec).  Emitted as BENCH_protocol_core.json:
//
//   BM_CoreLockUnlock       - one remote cycling lock/unlock through the
//                             pure core (grant + diff-apply + ack per pair)
//   BM_CoreLockContention/4 - four remotes contending on one mutex (queue
//                             churn: every unlock regrants to a waiter)
//   BM_CoreBarrier/3        - master + three remotes per barrier episode
//                             (enter x4 -> release fan-out)
//   BM_CoreRetransmitReplay - duplicate of an already-answered request
//                             (dedup lookup + byte-frozen reply-cache hit)
//   BM_CoreBoundGrantPendingGrowth/pending:N
//                           - two remotes trading one of 64 bound mutexes
//                             while each holds N pending runs of the other
//                             63 rows (kv_zipf's shape): one unlock's merge
//                             plus one grant per item.  The pending set
//                             grows 10x between the two sizes; the cost
//                             per item should not
//   BM_HomeShellLockUnlock  - full home node + remote thread over an
//                             in-process channel; the shell-side
//                             counterpart of bench_reliability_overhead's
//                             BM_RawChannel, so before/after home-node
//                             message throughput is comparable across PRs
//
// The pure-core numbers report events/sec via items_per_second; the shell
// number reports home-handled messages/sec (two requests per round).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dsm/coherence_core.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
namespace idx = hdsm::idx;

using namespace std::chrono_literals;

namespace {

/// Trivial in-memory codec (same shape as the unit-test fake): payloads are
/// the raw bytes of the run array.  Keeps the data plane out of the
/// measurement — what's timed is the protocol engine, not conversion.
struct InlineCodec final : dsm::UpdateCodec {
  std::vector<std::byte> pack_payload(
      const std::vector<idx::UpdateRun>& runs) override {
    std::vector<std::byte> out(runs.size() * sizeof(idx::UpdateRun));
    if (!out.empty()) std::memcpy(out.data(), runs.data(), out.size());
    return out;
  }
  std::vector<idx::UpdateRun> apply_payload(
      const std::vector<std::byte>& payload,
      const msg::PlatformSummary&) override {
    std::vector<idx::UpdateRun> runs(payload.size() / sizeof(idx::UpdateRun));
    if (!runs.empty()) {
      std::memcpy(runs.data(), payload.data(), payload.size());
    }
    return runs;
  }
};

struct Core {
  dsm::ShareStats stats;
  InlineCodec codec;
  dsm::CoherenceCore core;

  explicit Core(dsm::CoherenceConfig cfg = {})
      : core(std::move(cfg), codec, stats) {}

  void attach(std::uint32_t rank, std::vector<idx::UpdateRun> pending = {}) {
    benchmark::DoNotOptimize(core.step(
        dsm::CoherenceEvent::peer_attached(rank, std::move(pending))));
  }
  void recv(std::uint32_t rank, msg::Message m) {
    benchmark::DoNotOptimize(
        core.step(dsm::CoherenceEvent::msg_received(rank, std::move(m))));
  }
};

msg::Message request(msg::MsgType type, std::uint32_t rank, std::uint32_t seq,
                     std::uint32_t sync_id,
                     std::vector<std::byte> payload = {}) {
  msg::Message m;
  m.type = type;
  m.rank = rank;
  m.seq = seq;
  m.sync_id = sync_id;
  m.payload = std::move(payload);
  return m;
}

std::vector<std::byte> one_run_payload() {
  InlineCodec c;
  return c.pack_payload({idx::UpdateRun{0, 0, 8}});
}

void BM_CoreLockUnlock(benchmark::State& state) {
  Core c;
  c.attach(1);
  const std::vector<std::byte> diff = one_run_payload();
  std::uint32_t seq = 0;
  for (auto _ : state) {
    c.recv(1, request(msg::MsgType::LockRequest, 1, ++seq, 0));
    c.recv(1, request(msg::MsgType::UnlockRequest, 1, ++seq, 0, diff));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

void BM_CoreLockContention(benchmark::State& state) {
  const std::uint32_t peers = static_cast<std::uint32_t>(state.range(0));
  Core c;
  std::vector<std::uint32_t> seq(peers + 1, 0);
  for (std::uint32_t r = 1; r <= peers; ++r) c.attach(r);
  const std::vector<std::byte> diff = one_run_payload();
  for (auto _ : state) {
    // All ranks request the same mutex, then the holder chain unwinds:
    // each unlock regrants to the next queued waiter.
    for (std::uint32_t r = 1; r <= peers; ++r) {
      c.recv(r, request(msg::MsgType::LockRequest, r, ++seq[r], 0));
    }
    for (std::uint32_t r = 1; r <= peers; ++r) {
      c.recv(r, request(msg::MsgType::UnlockRequest, r, ++seq[r], 0, diff));
    }
  }
  state.SetItemsProcessed(state.iterations() * peers * 2);
}

void BM_CoreBarrier(benchmark::State& state) {
  const std::uint32_t peers = static_cast<std::uint32_t>(state.range(0));
  Core c;
  std::vector<std::uint32_t> seq(peers + 1, 0);
  for (std::uint32_t r = 1; r <= peers; ++r) c.attach(r);
  // The master always participates.
  c.core.step(dsm::CoherenceEvent::set_barrier_count(0, peers + 1));
  for (auto _ : state) {
    for (std::uint32_t r = 1; r <= peers; ++r) {
      c.recv(r, request(msg::MsgType::BarrierEnter, r, ++seq[r], 0));
    }
    benchmark::DoNotOptimize(
        c.core.step(dsm::CoherenceEvent::master_barrier(0, {})));
  }
  state.SetItemsProcessed(state.iterations() * (peers + 1));
}

void BM_CoreRetransmitReplay(benchmark::State& state) {
  Core c;
  c.attach(1);
  // Answer one lock request, then hammer the core with byte-identical
  // duplicates: each step is a dedup lookup + cached-grant replay.
  const msg::Message req = request(msg::MsgType::LockRequest, 1, 1, 0);
  c.recv(1, req);
  for (auto _ : state) {
    c.recv(1, req);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dups_dropped"] =
      static_cast<double>(c.stats.duplicates_dropped);
}

void BM_CoreBoundGrantPendingGrowth(benchmark::State& state) {
  constexpr std::uint32_t kMutexes = 64;
  const auto pending = static_cast<std::uint32_t>(state.range(0));
  dsm::CoherenceConfig cfg;
  cfg.num_locks = kMutexes;
  Core c(cfg);
  for (std::uint32_t m = 0; m < kMutexes; ++m) {
    c.core.step(dsm::CoherenceEvent::bind_lock(m, m));
  }
  // Disjoint two-element runs spread over rows 1..63: pending that the
  // traded mutex 0 never ships.
  std::vector<idx::UpdateRun> seed;
  for (std::uint32_t k = 0; k < pending; ++k) {
    seed.emplace_back(1 + k % (kMutexes - 1), (k / (kMutexes - 1)) * 4, 2);
  }
  c.attach(1, seed);
  c.attach(2, seed);
  const std::vector<std::byte> diff = one_run_payload();  // row 0
  std::uint32_t seq = 0;
  for (auto _ : state) {
    // Each unlock merges one run into the other remote's row 0; the next
    // grant of mutex 0 ships just that run.
    for (std::uint32_t r = 1; r <= 2; ++r) {
      c.recv(r, request(msg::MsgType::LockRequest, r, ++seq, 0));
      c.recv(r, request(msg::MsgType::UnlockRequest, r, ++seq, 0, diff));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["pending_runs"] = pending;
}

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), 64)}});
}

void BM_HomeShellLockUnlock(benchmark::State& state) {
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  dsm::ShardedRemoteOptions ropts;
  ropts.retry.timeout = 10ms;
  auto remote = std::make_unique<dsm::ShardedRemote>(
      gthv(), plat::linux_ia32(), 1, home.attach(1), ropts);
  home.start();
  // One dirtying round outside timing so the first grant's full-image ship
  // is not measured.
  remote->lock(0);
  auto a = remote->space().view<std::int64_t>("A");
  a.set(0, 1);
  remote->unlock(0);
  for (auto _ : state) {
    remote->lock(0);
    auto v = remote->space().view<std::int64_t>("A");
    v.set(0, v.get(0) + 1);
    remote->unlock(0);
  }
  state.SetItemsProcessed(state.iterations() * 2);  // home-handled requests
  remote->join();
  home.stop();
}

}  // namespace

BENCHMARK(BM_CoreLockUnlock);
BENCHMARK(BM_CoreLockContention)->Arg(4);
BENCHMARK(BM_CoreBarrier)->Arg(3);
BENCHMARK(BM_CoreRetransmitReplay);
BENCHMARK(BM_CoreBoundGrantPendingGrowth)
    ->ArgName("pending")
    ->Arg(256)
    ->Arg(2560);
BENCHMARK(BM_HomeShellLockUnlock)
    ->Apply(hdsm::bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// Default the JSON artifact on so a bare run leaves BENCH_protocol_core.json
// next to the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_protocol_core.json";
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

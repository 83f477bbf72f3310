// A/B bench for the parallel zero-copy data plane (SyncOptions::conv_threads
// and plan_cache).  Emitted as BENCH_data_plane.json:
//
//   BM_ApplyPayloadHetero/L   - multi-MB payload of ~1KB blocks from a
//                               big-endian sender applied on L lanes (the
//                               bulk-swap conversion route; L=1 is the
//                               sequential baseline, L=4 the pooled path)
//   BM_ApplyPayloadMemcpy/L   - same payload homogeneous: the zero-copy
//                               route (payload bytes land directly in the
//                               image, no scratch conversion buffer)
//   BM_ApplySingleSmallRun/L  - one run far below the fixed 64 KiB parallel
//                               grain; L=4 must track L=1 (the pool must
//                               not engage)
//   BM_CollectDiff/L          - dirty-page diff + range->run mapping of a
//                               multi-MB dirty set on L lanes
//   BM_PackLegacyTwoCopy      - pack_runs + encode_update_blocks (the old
//                               image -> blocks -> payload double copy)
//   BM_PackZeroCopy           - pack_payload (single gather into the wire
//                               buffer); byte-identical output
//   BM_PackStride2/{0,1}      - pack_payload of kStride2Runs one-double
//                               runs (the red/black SOR shape coalescing
//                               cannot merge) with ASCII/binary tags:
//                               t_tag and t_pack ns per payload, and
//                               tags_generated per payload (exact; checked
//                               by bench_smoke)
//   BM_ApplyPlanCache/{0,1}   - many same-row blocks with the per-(sender,
//                               row) conversion-plan cache off/on
//
// Times and bytes_per_second are wall clock (hdsm::bench::wall_clock): the
// L=4 rows run on pool threads, whose work the benchmark thread's CPU time
// does not see.  Measured on a lightly loaded 4-core container,
// median of 3 runs, L=1 vs L=4 wall time: hetero apply 1.55 vs 1.08 ms,
// memcpy apply 0.79 vs 0.65 ms, collect diff 0.99 vs 0.56 ms.  An isolated
// microbench has idle cores to lend; a cluster node does not.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
// On a single-core container the L=4 apply/diff numbers degrade to ~L=1
// (the pool adds threads, not cores); the zero-copy and plan-cache wins
// are per-core and show regardless.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "dsm/global_space.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/update.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

using hdsm::bench::fast_mode;

/// Element count for the big array: 4 MB of ints normally, 256 KB in fast
/// mode.
std::uint64_t big_elems() { return fast_mode() ? (1u << 16) : (1u << 20); }

tags::TypePtr gthv(std::uint64_t elems) {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), elems)}});
}

/// Write ~1KB element bursts separated by one-element gaps: the dirty set
/// maps to many independent ~1KB runs, the shape the per-block parallel
/// apply partitions across lanes.
void write_bursts(dsm::GlobalSpace& g) {
  auto a = g.view<std::int32_t>("A");
  const std::uint64_t n = a.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 257 == 256) continue;  // the gap element splits runs
    a.set(i, static_cast<std::int32_t>(i * 2654435761u));
  }
}

/// A captured payload + its sender platform, built once per benchmark.
struct Capture {
  std::vector<std::byte> payload;
  msg::PlatformSummary sender;
};

Capture capture_payload(const plat::PlatformDesc& sender_platform) {
  dsm::GlobalSpace g(gthv(big_elems()), sender_platform);
  dsm::ShareStats stats;
  dsm::SyncOptions opts;
  opts.conv_threads = 1;
  dsm::SyncEngine engine(g, opts, stats);
  g.region().begin_tracking();
  write_bursts(g);
  Capture c;
  c.payload = engine.collect_payload();
  c.sender = msg::PlatformSummary::of(sender_platform);
  g.region().end_tracking();
  return c;
}

dsm::SyncOptions lanes(unsigned n) {
  dsm::SyncOptions o;
  o.conv_threads = n;
  return o;
}

void apply_bench(benchmark::State& state, const plat::PlatformDesc& sender) {
  const Capture c = capture_payload(sender);
  dsm::GlobalSpace receiver(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(receiver, lanes(static_cast<unsigned>(state.range(0))),
                         stats);
  for (auto _ : state) {
    const auto runs = engine.apply_payload(c.payload, c.sender);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.payload.size()));
  state.counters["lanes"] =
      static_cast<double>(engine.effective_lanes());
  state.counters["parallel_batches"] =
      static_cast<double>(stats.parallel_batches);
}

void BM_ApplyPayloadHetero(benchmark::State& state) {
  apply_bench(state, plat::solaris_sparc32());  // bulk-swap route
}
BENCHMARK(BM_ApplyPayloadHetero)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_ApplyPayloadMemcpy(benchmark::State& state) {
  apply_bench(state, plat::linux_ia32());  // zero-copy memcpy route
}
BENCHMARK(BM_ApplyPayloadMemcpy)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_ApplySingleSmallRun(benchmark::State& state) {
  // One 64-element run, far below the parallel grain: the parallel engine must
  // cost within noise of the sequential one.
  dsm::GlobalSpace sender(gthv(1 << 12), plat::linux_ia32());
  dsm::ShareStats ss;
  dsm::SyncEngine se(sender, lanes(1), ss);
  sender.region().begin_tracking();
  auto a = sender.view<std::int32_t>("A");
  for (int i = 0; i < 64; ++i) a.set(i, i);
  const std::vector<std::byte> payload = se.collect_payload();
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());
  sender.region().end_tracking();

  dsm::GlobalSpace receiver(gthv(1 << 12), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine engine(receiver, lanes(static_cast<unsigned>(state.range(0))),
                         rs);
  for (auto _ : state) {
    const auto runs = engine.apply_payload(payload, summary);
    benchmark::DoNotOptimize(runs.data());
  }
  state.counters["parallel_batches"] =
      static_cast<double>(rs.parallel_batches);  // must stay 0
}
BENCHMARK(BM_ApplySingleSmallRun)
    ->Arg(1)
    ->Arg(4)
    ->Apply(hdsm::bench::wall_clock);

void BM_CollectDiff(benchmark::State& state) {
  dsm::GlobalSpace g(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, lanes(static_cast<unsigned>(state.range(0))),
                         stats);
  g.region().begin_tracking();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    write_bursts(g);  // re-dirty (faults excluded from the measurement)
    state.ResumeTiming();
    const auto runs = engine.collect_runs();
    benchmark::DoNotOptimize(runs.data());
    bytes += g.table().image_size();
  }
  g.region().end_tracking();
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["parallel_batches"] =
      static_cast<double>(stats.parallel_batches);
}
BENCHMARK(BM_CollectDiff)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_PackZeroCopy(benchmark::State& state) {
  dsm::GlobalSpace g(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, lanes(1), stats);
  g.region().begin_tracking();
  write_bursts(g);
  const std::vector<hdsm::idx::UpdateRun> runs = engine.collect_runs();
  g.region().end_tracking();

  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::byte> wire = engine.pack_payload(runs);
    benchmark::DoNotOptimize(wire.data());
    bytes += wire.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["runs"] = static_cast<double>(runs.size());
}
BENCHMARK(BM_PackZeroCopy)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

/// Runs per BM_PackStride2 payload; bench_smoke.cmake pins the counter.
constexpr std::uint64_t kStride2Runs = 8192;

void BM_PackStride2(benchmark::State& state) {
  dsm::SyncOptions opts = lanes(1);
  opts.binary_tags = state.range(0) != 0;
  dsm::GlobalSpace g(
      tags::TypeDesc::struct_of(
          "G", {{"D", tags::TypeDesc::array(tags::t_double(),
                                            2 * kStride2Runs)}}),
      plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, opts, stats);
  g.region().begin_tracking();
  auto d = g.view<double>("D");
  for (std::uint64_t i = 0; i < kStride2Runs; ++i) d.set(2 * i, 1.0 + i);
  const std::vector<hdsm::idx::UpdateRun> runs = engine.collect_runs();
  g.region().end_tracking();

  for (auto _ : state) {
    std::vector<std::byte> wire = engine.pack_payload(runs);
    benchmark::DoNotOptimize(wire.data());
  }
  const auto per_payload = [&state](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["tag_ns"] = per_payload(stats.tag_ns);
  state.counters["pack_ns"] = per_payload(stats.pack_ns);
  state.counters["tags_generated"] = per_payload(stats.tags_generated);
}
BENCHMARK(BM_PackStride2)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_ApplyPlanCache(benchmark::State& state) {
  // Many blocks re-covering the same row: with the cache on, one tag parse
  // + route plan serves the whole payload.
  const Capture c = capture_payload(plat::solaris_sparc32());
  dsm::SyncOptions opts = lanes(1);
  opts.plan_cache = state.range(0) != 0;
  dsm::GlobalSpace receiver(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(receiver, opts, stats);
  for (auto _ : state) {
    const auto runs = engine.apply_payload(c.payload, c.sender);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.payload.size()));
  state.counters["plan_hits"] = static_cast<double>(stats.plan_cache_hits);
}
BENCHMARK(BM_ApplyPlanCache)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

}  // namespace

// Default the JSON artifact on so a bare run leaves BENCH_data_plane.json
// next to the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_data_plane.json";
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

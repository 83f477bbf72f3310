// Bench for the zero-copy data plane (single-gather packing, the
// per-(sender, row) conversion-plan cache).  Emitted as
// BENCH_data_plane.json:
//
//   BM_ApplyPayloadHetero     - multi-MB payload of ~1KB blocks from a
//                               big-endian sender (the bulk-swap
//                               conversion route)
//   BM_ApplyPayloadMemcpy     - same payload homogeneous: the zero-copy
//                               route (payload bytes land directly in the
//                               image, no scratch conversion buffer)
//   BM_CollectDiff            - collect_runs (the element walk of every
//                               written page) of a multi-MB dirty set
//                               rewritten with new values each iteration;
//                               runs per collect
//   BM_CollectStride2         - collect_runs of a red/black SOR half-sweep
//                               over a grid of doubles 44 pages long; runs
//                               per collect, one strided run per grid row
//                               (exact; checked by bench_smoke)
//   BM_PackZeroCopy           - pack_payload (single gather into the wire
//                               buffer)
//   BM_PackStride2            - pack_payload of kStride2Runs prebuilt
//                               one-double runs at stride 2 (the pending
//                               set of a split-mode collect): t_tag and
//                               t_pack ns per payload, and tags_generated
//                               per payload (exact; checked by bench_smoke)
//   BM_ReleaseStride2         - the pending set a strided collect makes of
//                               a red half-sweep of kStride2Runs cells,
//                               packed by a solaris_sparc32 home for a
//                               release: blocks and payload bytes per
//                               release (both exact; checked by
//                               bench_smoke)
//   BM_ApplyPlanCache/{0,1}   - many same-row blocks with the per-(sender,
//                               row) conversion-plan cache off/on
//
// Every node diffs and converts on its own thread, so each series runs on
// the benchmark thread; times and bytes_per_second are still wall clock
// (hdsm::bench::wall_clock), like the cluster benches.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "dsm/global_space.hpp"
#include "index/index_table.hpp"
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
/// maps to many independent ~1KB runs.  A different `salt` changes every
/// written value, so repeated bursts keep differing from the twins.
void write_bursts(dsm::GlobalSpace& g, std::uint32_t salt = 0) {
  auto a = g.view<std::int32_t>("A");
  const std::uint64_t n = a.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 257 == 256) continue;  // the gap element splits runs
    a.set(i, static_cast<std::int32_t>(i * 2654435761u + salt));
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
  dsm::SyncEngine engine(g, {}, stats);
  g.region().begin_tracking();
  write_bursts(g);
  Capture c;
  c.payload = engine.pack_payload(engine.collect_runs());
  c.sender = msg::PlatformSummary::of(sender_platform);
  g.region().end_tracking();
  return c;
}

void apply_bench(benchmark::State& state, const plat::PlatformDesc& sender) {
  const Capture c = capture_payload(sender);
  dsm::GlobalSpace receiver(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(receiver, {}, stats);
  for (auto _ : state) {
    const auto runs = engine.apply_payload(c.payload, c.sender);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.payload.size()));
}

void BM_ApplyPayloadHetero(benchmark::State& state) {
  apply_bench(state, plat::solaris_sparc32());  // bulk-swap route
}
BENCHMARK(BM_ApplyPayloadHetero)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_ApplyPayloadMemcpy(benchmark::State& state) {
  apply_bench(state, plat::linux_ia32());  // zero-copy memcpy route
}
BENCHMARK(BM_ApplyPayloadMemcpy)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_CollectDiff(benchmark::State& state) {
  dsm::GlobalSpace g(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
  g.region().begin_tracking();
  std::uint64_t bytes = 0, runs_total = 0;
  std::uint32_t salt = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Re-dirty with new values (faults excluded from the measurement).
    write_bursts(g, ++salt);
    state.ResumeTiming();
    const auto runs = engine.collect_runs();
    benchmark::DoNotOptimize(runs.data());
    bytes += g.table().image_size();
    runs_total += runs.size();
  }
  g.region().end_tracking();
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["runs"] = static_cast<double>(runs_total) /
                           static_cast<double>(state.iterations());
}
BENCHMARK(BM_CollectDiff)
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

/// The red/black grid of the stride-2 benches: rows of kGridCols doubles.
/// The row width is even, so a color's cells change parity from one grid
/// row to the next and each grid row is its own stride-2 run.
constexpr std::uint64_t kGridCols = 256;

tags::TypePtr grid_gthv(std::uint64_t grid_rows) {
  return tags::TypeDesc::struct_of(
      "G",
      {{"D", tags::TypeDesc::array(tags::t_double(), grid_rows * kGridCols)}});
}

/// One red half-sweep: every cell whose (row + column) parity is even gets
/// `base` plus its index, a value it never held for a new `base`.
void red_half_sweep(dsm::GlobalSpace& g, double base) {
  auto d = g.view<double>("D");
  for (std::uint64_t i = 0; i < d.size(); ++i) {
    if ((i / kGridCols + i % kGridCols) % 2 == 0) {
      d.set(i, base + 0.5 * static_cast<double>(i));
    }
  }
}

/// Grid rows of BM_CollectStride2 (44 4-KiB pages); bench_smoke.cmake pins
/// its runs per collect at this count.
constexpr std::uint64_t kCollectGridRows = 44 * 4096 / (8 * kGridCols);

void BM_CollectStride2(benchmark::State& state) {
  dsm::GlobalSpace g(grid_gthv(kCollectGridRows), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
  g.region().begin_tracking();
  std::uint64_t runs_total = 0;
  double sweep = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    sweep += 1.0;
    red_half_sweep(g, sweep);
    state.ResumeTiming();
    const auto runs = engine.collect_runs();
    benchmark::DoNotOptimize(runs.data());
    runs_total += runs.size();
  }
  g.region().end_tracking();
  state.counters["runs"] = static_cast<double>(runs_total) /
                           static_cast<double>(state.iterations());
}
BENCHMARK(BM_CollectStride2)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_PackZeroCopy(benchmark::State& state) {
  dsm::GlobalSpace g(gthv(big_elems()), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
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
  dsm::GlobalSpace g(
      tags::TypeDesc::struct_of(
          "G", {{"D", tags::TypeDesc::array(tags::t_double(),
                                            2 * kStride2Runs)}}),
      plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
  auto d = g.view<double>("D");
  std::vector<hdsm::idx::UpdateRun> runs;
  for (std::uint64_t i = 0; i < kStride2Runs; ++i) {
    d.set(2 * i, 1.0 + i);
    runs.push_back({0, 2 * i, 1});
  }

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
    ->Unit(benchmark::kMicrosecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_ReleaseStride2(benchmark::State& state) {
  dsm::GlobalSpace home(grid_gthv(2 * kStride2Runs / kGridCols),
                        plat::solaris_sparc32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(home, {}, stats);
  home.region().begin_tracking();
  red_half_sweep(home, 1.0);
  const std::vector<hdsm::idx::UpdateRun> pending = engine.collect_runs();
  home.region().end_tracking();

  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::byte> wire = engine.pack_payload(pending);
    benchmark::DoNotOptimize(wire.data());
    bytes += wire.size();
  }
  const auto per_release = [&state](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(state.iterations());
  };
  state.counters["blocks"] = per_release(stats.updates_sent);
  state.counters["payload_bytes"] = per_release(bytes);
}
BENCHMARK(BM_ReleaseStride2)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_ApplyPlanCache(benchmark::State& state) {
  // Many blocks re-covering the same row: with the cache on, one tag parse
  // + route plan serves the whole payload.
  const Capture c = capture_payload(plat::solaris_sparc32());
  dsm::SyncOptions opts;
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

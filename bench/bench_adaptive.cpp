// A/B bench for the adaptive policy engine (SyncOptions::adaptive), emitted
// as BENCH_adaptive.json: each paper workload runs end-to-end on a cluster
// under two data-plane configurations —
//
//   /0 static    - stock defaults, tuner off
//   /1 adaptive  - stock defaults with the tuner on: run coalescing
//                  (merge_slack) follows the measured costs
//
// Times are wall clock (hdsm::bench::wall_clock): the benchmark thread is
// the master, which spends most of a run waiting on the remotes.
//
// Measured shape (4-core container, RelWithDebInfo, ten full-size runs,
// median ms [quartiles]; EXPERIMENTS.md, "One lane per node"): on SOR the
// tuner's run coalescing wins in every run, LL 7.75 [7.54-8.57] static vs
// 5.77 [5.39-6.88] adaptive and SL 8.69 [8.10-10.1] vs 6.21 [5.86-7.73];
// on LU adaptive is lower in 7 (LL) and 9 (SL) of ten runs, 42.3 vs
// 47.4 ms on LL (inside the static quartiles) and 39.2 vs 44.0 ms on SL;
// on matmul the two stay within each other's spread (3.2-3.4 ms).  Pairs LL (homogeneous, memcpy plans) and SL
// (heterogeneous, conversion on the critical path) both run.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace dsm = hdsm::dsm;
namespace work = hdsm::work;

namespace {

using hdsm::bench::fast_mode;

constexpr std::int64_t kStatic = 0;
constexpr std::int64_t kAdaptive = 1;

dsm::ShardedHomeOptions config(std::int64_t kind) {
  dsm::ShardedHomeOptions opts;
  if (kind == kAdaptive) {
    // Stock defaults with the tuner on: warmup shortened so the short
    // matmul run adapts at all, hysteresis (dwell/margin) left at the
    // defaults so it doesn't flap.
    opts.dsd.adaptive = true;
    opts.dsd.tuner.warmup = 2;
  }
  return opts;
}

const work::PairSpec& pair_of(std::int64_t p) {
  // 0 = LL (homogeneous), 1 = SL (heterogeneous).
  return work::paper_pairs()[p == 0 ? 0 : 2];
}

void annotate(benchmark::State& state, const dsm::ShareStats& total) {
  state.counters["adapt_episodes"] = static_cast<double>(total.adapt_episodes);
  state.counters["adapt_switches"] = static_cast<double>(total.adapt_switches);
  state.counters["fastpath_blocks"] =
      static_cast<double>(total.fastpath_blocks);
}

void BM_AdaptiveMatmul(benchmark::State& state) {
  const work::PairSpec& pair = pair_of(state.range(0));
  const std::uint32_t n = fast_mode() ? 33 : 96;
  dsm::ShareStats total;
  for (auto _ : state) {
    dsm::ShardedCluster cluster(work::matmul_gthv(n), *pair.home,
                                {pair.remote, pair.remote},
                                config(state.range(1)));
    const auto c = work::run_matmul(cluster, n);
    benchmark::DoNotOptimize(c.data());
    total += cluster.total_stats();
  }
  annotate(state, total);
}
BENCHMARK(BM_AdaptiveMatmul)
    ->ArgNames({"pair", "config"})
    ->Args({0, kStatic})
    ->Args({0, kAdaptive})
    ->Args({1, kStatic})
    ->Args({1, kAdaptive})
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_AdaptiveLu(benchmark::State& state) {
  // One barrier per elimination step: the episode stream is long, the
  // per-step payloads shrink as elimination proceeds — exactly the drift a
  // static configuration cannot follow.
  const work::PairSpec& pair = pair_of(state.range(0));
  const std::uint32_t n = fast_mode() ? 40 : 96;
  dsm::ShareStats total;
  for (auto _ : state) {
    dsm::ShardedCluster cluster(work::lu_gthv(n), *pair.home,
                                {pair.remote, pair.remote},
                                config(state.range(1)));
    const auto m = work::run_lu(cluster, n);
    benchmark::DoNotOptimize(m.data());
    total += cluster.total_stats();
  }
  annotate(state, total);
}
BENCHMARK(BM_AdaptiveLu)
    ->ArgNames({"pair", "config"})
    ->Args({0, kStatic})
    ->Args({0, kAdaptive})
    ->Args({1, kStatic})
    ->Args({1, kAdaptive})
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

void BM_AdaptiveSor(benchmark::State& state) {
  // Two barriers per iteration, interleaved red/black dirty runs: the
  // workload where run coalescing and the per-episode costs of scattered
  // small updates dominate.
  const work::PairSpec& pair = pair_of(state.range(0));
  const std::uint32_t n = fast_mode() ? 32 : 96;
  const std::uint32_t iters = fast_mode() ? 4 : 8;
  dsm::ShareStats total;
  for (auto _ : state) {
    dsm::ShardedCluster cluster(work::sor_gthv(n), *pair.home,
                                {pair.remote, pair.remote},
                                config(state.range(1)));
    const auto g = work::run_sor(cluster, n, iters);
    benchmark::DoNotOptimize(g.data());
    total += cluster.total_stats();
  }
  annotate(state, total);
}
BENCHMARK(BM_AdaptiveSor)
    ->ArgNames({"pair", "config"})
    ->Args({0, kStatic})
    ->Args({0, kAdaptive})
    ->Args({1, kStatic})
    ->Args({1, kAdaptive})
    ->Unit(benchmark::kMillisecond)
    ->Apply(hdsm::bench::wall_clock);

}  // namespace

// Default the JSON artifact on so a bare run leaves BENCH_adaptive.json
// next to the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_adaptive.json";
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

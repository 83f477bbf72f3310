// A/B bench for the adaptive policy engine (SyncOptions::adaptive), emitted
// as BENCH_adaptive.json: each paper workload runs end-to-end on a cluster
// under three data-plane configurations drawn from the tuner's own decision
// space —
//
//   /0 static_worst  - lanes=4 with byte-exact diffs: every batch past
//                      the 64 KiB parallel grain pays pool dispatch
//   /1 static_best   - the sequential path with stock slack: the usual
//                      static call for small-payload cluster runs
//   /2 adaptive      - stock defaults with the tuner on: lanes and run
//                      coalescing follow the measured costs
//
// Measured shape (4-core container, RelWithDebInfo, three runs of three
// repetitions; host load moved whole runs by up to 4x, so only the order
// inside one run means anything): on matmul and LU the three
// configurations stay within each other's spread; on SOR, adaptive is the
// fastest of the three on LL in every run (run coalescing), and on SL both
// adaptive and static_worst beat static_best in every run.  Pairs LL
// (homogeneous, memcpy plans) and SL (heterogeneous, conversion on the
// critical path) both run.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace dsm = hdsm::dsm;
namespace work = hdsm::work;

namespace {

bool fast_mode() {
  const char* v = std::getenv("HDSM_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::int64_t kWorst = 0;
constexpr std::int64_t kBest = 1;
constexpr std::int64_t kAdaptive = 2;

dsm::ShardedHomeOptions config(std::int64_t kind) {
  dsm::ShardedHomeOptions opts;
  switch (kind) {
    case kWorst:
      // Four lanes: every batch past the parallel grain pays the pool's
      // dispatch cost.
      opts.dsd.conv_threads = 4;
      opts.dsd.merge_slack = 0;
      break;
    case kBest:
      opts.dsd.conv_threads = 1;
      break;
    case kAdaptive:
    default:
      // Stock defaults with the tuner on: warmup shortened so the short
      // matmul run adapts at all, hysteresis (dwell/margin) left at the
      // defaults so it doesn't flap.
      opts.dsd.adaptive = true;
      opts.dsd.tuner.warmup = 2;
      break;
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
    ->Args({0, kWorst})
    ->Args({0, kBest})
    ->Args({0, kAdaptive})
    ->Args({1, kWorst})
    ->Args({1, kBest})
    ->Args({1, kAdaptive})
    ->Unit(benchmark::kMillisecond);

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
    ->Args({0, kWorst})
    ->Args({0, kBest})
    ->Args({0, kAdaptive})
    ->Args({1, kWorst})
    ->Args({1, kBest})
    ->Args({1, kAdaptive})
    ->Unit(benchmark::kMillisecond);

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
    ->Args({0, kWorst})
    ->Args({0, kBest})
    ->Args({0, kAdaptive})
    ->Args({1, kWorst})
    ->Args({1, kBest})
    ->Args({1, kAdaptive})
    ->Unit(benchmark::kMillisecond);

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

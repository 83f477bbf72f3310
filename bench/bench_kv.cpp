// Object-granularity vs page-granularity sharing on the Zipfian KV
// workload (docs/OBJECTS.md).  Emitted as BENCH_kv.json:
//
//   BM_KvPage/T    - the KV workload over a ShardedCluster with mprotect
//                    write tracking and twin diffing (the paper's page
//                    machinery), Zipfian theta = T/100.
//   BM_KvObject/T  - the identical workload (same GThV, same seeds, same
//                    region locks) over an ObjectCluster shipping
//                    dirty-object runs — no twins, no faults, no diff
//                    scans.
//
// Both modes verify the master image against the offline Zipfian replay
// every iteration; a mismatch fails the benchmark.  Manual time is the
// cluster run alone (construction and verification excluded), and the
// `bytes` counter is stats.update_bytes_sent, so the object-mode win the
// acceptance bar asks for shows up in latency AND bytes-on-wire at the
// same T.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/kv.hpp"

namespace plat = hdsm::plat;
namespace work = hdsm::work;

namespace {

bool fast_mode() {
  const char* v = std::getenv("HDSM_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

work::KvConfig kv_config(double theta, bool object_mode) {
  work::KvConfig cfg;
  cfg.num_objects = fast_mode() ? 4096 : 1'000'000;
  cfg.ops_per_rank = fast_mode() ? 100 : 1500;
  cfg.num_regions = 64;
  cfg.theta = theta;
  cfg.object_mode = object_mode;
  // Three heterogeneous remotes plus the x86-64 master: both byte orders
  // on the wire, so the transcoding path is exercised identically in
  // both modes.
  cfg.remotes = {&plat::linux_ia32(), &plat::solaris_sparc64(),
                 &plat::linux_ia32()};
  return cfg;
}

void kv_bench(benchmark::State& state, bool object_mode) {
  const double theta = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const work::KvResult r = run_kv(kv_config(theta, object_mode));
    if (!r.verified) {
      state.SkipWithError("master image does not match the Zipfian replay");
      return;
    }
    state.SetIterationTime(r.seconds);
    ops += r.ops;
    bytes += r.bytes_on_wire;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["theta"] = theta;
  state.counters["bytes"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kAvgIterations);
}

void BM_KvPage(benchmark::State& state) { kv_bench(state, false); }
void BM_KvObject(benchmark::State& state) { kv_bench(state, true); }

void kv_args(benchmark::internal::Benchmark* b) {
  for (int theta_pct : {0, 50, 99}) b->Arg(theta_pct);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_KvPage)->Apply(kv_args);
BENCHMARK(BM_KvObject)->Apply(kv_args);

}  // namespace

// Default the JSON artifact on so a bare run leaves BENCH_kv.json next to
// the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_kv.json";
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

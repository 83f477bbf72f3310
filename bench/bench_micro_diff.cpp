// Microbenchmark: the twin/diff engine — throughput of the byte-exact
// word-at-a-time scan (the heart of t_index) under various modification
// densities.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "memory/diff.hpp"

namespace mem = hdsm::mem;

namespace {

void BM_DiffCleanPages(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> cur(len), twin(len);
  std::vector<mem::ByteRange> out;
  for (auto _ : state) {
    out.clear();
    mem::diff_bytes(cur.data(), twin.data(), len, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_DiffScatteredWrites(benchmark::State& state) {
  const std::size_t len = 1 << 20;
  const int density_pct = static_cast<int>(state.range(0));
  std::vector<std::byte> cur(len), twin(len);
  std::mt19937_64 rng(9);
  for (std::size_t i = 0; i < len; ++i) {
    if (static_cast<int>(rng() % 100) < density_pct) {
      cur[i] = std::byte{0xff};
    }
  }
  std::vector<mem::ByteRange> out;
  std::size_t ranges = 0;
  for (auto _ : state) {
    out.clear();
    mem::diff_bytes(cur.data(), twin.data(), len, 0, out);
    ranges = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["ranges"] = static_cast<double>(ranges);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_DiffDenseRun(benchmark::State& state) {
  const std::size_t len = 1 << 20;
  std::vector<std::byte> cur(len, std::byte{1}), twin(len);
  std::vector<mem::ByteRange> out;
  for (auto _ : state) {
    out.clear();
    mem::diff_bytes(cur.data(), twin.data(), len, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

}  // namespace

BENCHMARK(BM_DiffCleanPages)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_DiffScatteredWrites)->Arg(1)->Arg(10)->Arg(50);
BENCHMARK(BM_DiffDenseRun);

BENCHMARK_MAIN();

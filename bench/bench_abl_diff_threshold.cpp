// Ablation: the classic whole-page-send threshold of homogeneous DSMs
// (paper §4: "When differences exceed a certain threshold ... it is common
// to send the entire page rather than to continue with the diff") — the
// optimization the heterogeneous system cannot use because raw pages are
// not convertible.
//
// Sweeps the threshold over write densities and reports collection time
// and bytes shipped.
#include <benchmark/benchmark.h>

#include <cstring>

#include "baseline/page_dsm.hpp"

namespace base = hdsm::base;
namespace mem = hdsm::mem;

namespace {

void BM_ThresholdSweep(benchmark::State& state) {
  const double threshold = static_cast<double>(state.range(0)) / 100.0;
  const int density_pct = static_cast<int>(state.range(1));
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = 64;

  base::PageDsmOptions opts;
  opts.whole_page_threshold = threshold;
  base::PageDsmNode node(pages * ps, opts);
  node.start_tracking();

  std::uint64_t bytes = 0, updates = 0;
  for (auto _ : state) {
    // Touch density_pct% of each page, scattered.
    const std::size_t step = 100 / density_pct;
    for (std::size_t p = 0; p < pages; ++p) {
      for (std::size_t b = 0; b < ps; b += step) {
        node.data()[p * ps + b] ^= std::byte{1};
      }
    }
    const auto out = node.collect_updates();
    updates += out.size();
    for (const auto& u : out) bytes += u.data.size();
  }
  node.stop_tracking();
  state.counters["bytes_per_sync"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["updates_per_sync"] =
      static_cast<double>(updates) / static_cast<double>(state.iterations());
}

}  // namespace

// Args: {threshold_pct, write_density_pct}.
BENCHMARK(BM_ThresholdSweep)
    ->Args({100, 5})   // no whole-page sends
    ->Args({50, 5})
    ->Args({10, 5})
    ->Args({100, 25})
    ->Args({50, 25})
    ->Args({10, 25})
    ->Args({100, 100})
    ->Args({50, 100});

BENCHMARK_MAIN();

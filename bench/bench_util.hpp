// Shared helpers for the figure-reproduction benches: the §5 sweep
// (platform pairs LL/SS/SL × matrix sizes 99..255) and table formatting.
//
// Every reproduction binary prints the same rows/series its paper figure
// plots.  Absolute times differ from the 2006 testbed; the *shape* (growth
// with size, SL conversion dominating, LU above MM) is the reproduction
// target — see EXPERIMENTS.md.
//
// Set HDSM_BENCH_FAST=1 to sweep smaller sizes (CI-friendly smoke run).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads/experiment.hpp"

namespace hdsm::bench {

inline bool fast_mode() {
  const char* v = std::getenv("HDSM_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline std::vector<std::uint32_t> sweep_sizes() {
  if (fast_mode()) return {33, 66, 99};
  return work::paper_sizes();  // 99, 138, 177, 216, 255
}

/// Repetitions per (pair, size) point; the least-noise (smallest C_share)
/// run is reported.  Fast mode takes `fast_reps` (1 unless a figure's shape
/// check compares single timings that one slow fault can flip).  Override
/// with HDSM_BENCH_REPS.
inline int repetitions(int fast_reps = 1) {
  if (const char* v = std::getenv("HDSM_BENCH_REPS")) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return fast_mode() ? fast_reps : 3;
}

inline double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// For multi-threaded cluster series: `BENCHMARK(BM_X)->Apply(wall_clock)`
/// makes google-benchmark compute times and items_per_second from wall
/// clock.  Its default is the benchmark thread's CPU time, which a thread
/// that mostly waits on the home barely uses (a cluster lock series read
/// 1.25 M/s against about 25 k/s by wall clock).
template <typename Benchmark>
void wall_clock(Benchmark* b) {
  b->UseRealTime();
}

/// The paper-faithful DSD configuration: element-wise heterogeneous
/// conversion (no bulk byte-swap), ASCII tags, coalescing on — matching
/// the 2006 implementation whose costs Figures 6-11 report.  The library's
/// *default* enables the bulk-swap fast path; bench_abl_array_fastpath
/// quantifies the difference.
inline dsm::ShardedHomeOptions paper_options() {
  dsm::ShardedHomeOptions opts;
  opts.dsd.bulk_swap_fastpath = false;
  return opts;
}

/// Run the matmul sweep over all pairs × sizes; results indexed
/// [pair][size].
template <typename RunFn>
inline std::vector<std::vector<work::ExperimentResult>> run_sweep(
    RunFn&& run_one, int reps = repetitions()) {
  std::vector<std::vector<work::ExperimentResult>> out;
  for (const work::PairSpec& pair : work::paper_pairs()) {
    std::vector<work::ExperimentResult> row;
    for (const std::uint32_t n : sweep_sizes()) {
      work::ExperimentResult best;
      for (int r = 0; r < reps; ++r) {
        work::ExperimentResult res = run_one(pair, n);
        if (!res.verified) {
          std::fprintf(stderr, "FATAL: %s n=%u did not verify\n",
                       pair.name.c_str(), n);
          std::exit(1);
        }
        if (r == 0 || res.total.share_ns() < best.total.share_ns()) {
          best = std::move(res);
        }
      }
      row.push_back(std::move(best));
    }
    out.push_back(std::move(row));
  }
  return out;
}

inline std::vector<std::vector<work::ExperimentResult>> run_matmul_sweep(
    int reps = repetitions()) {
  return run_sweep(
      [](const work::PairSpec& pair, std::uint32_t n) {
        return work::run_matmul_experiment(pair, n, paper_options());
      },
      reps);
}

inline std::vector<std::vector<work::ExperimentResult>> run_lu_sweep() {
  return run_sweep([](const work::PairSpec& pair, std::uint32_t n) {
    return work::run_lu_experiment(pair, n, paper_options());
  });
}

/// When HDSM_BENCH_CSV names a directory, drop the sweep there as
/// `<name>.csv` (pair, size, full ShareStats row) for plotting pipelines.
inline void maybe_write_csv(
    const char* name,
    const std::vector<std::vector<work::ExperimentResult>>& sweep) {
  const char* dir = std::getenv("HDSM_BENCH_CSV");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "pair,size,%s\n", dsm::ShareStats::csv_header().c_str());
  for (const auto& row : sweep) {
    for (const work::ExperimentResult& r : row) {
      std::fprintf(f, "%s,%u,%s\n", r.pair.c_str(), r.n,
                   r.total.to_csv_row().c_str());
    }
  }
  std::fclose(f);
  std::printf("(csv written to %s)\n", path.c_str());
}

}  // namespace hdsm::bench

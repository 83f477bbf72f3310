// Extended evaluation (beyond the paper's figures): red-black SOR — the
// TreadMarks-era stencil benchmark — across the LL / SS / SL pairs, with
// the Eq.-1 sharing breakdown.  Expectation mirrors Figures 10/11: the
// heterogeneous pair pays for conversion; homogeneous pairs are
// memcpy-bound.  Per-barrier updates are small (band edges + own band),
// so C_share is barrier-count dominated rather than volume dominated.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "msg/endpoint.hpp"
#include "obs/timer.hpp"
#include "workloads/sor.hpp"

using hdsm::bench::ms;

int main() {
  const std::uint32_t n = hdsm::bench::fast_mode() ? 48 : 128;
  const std::uint32_t iters = hdsm::bench::fast_mode() ? 10 : 40;

  std::printf("=== Extended: red-black SOR, %ux%u grid, %u iterations ===\n\n",
              n, n, iters);
  std::printf("%5s %12s %10s %8s %10s %10s %12s %10s\n", "pair", "index_disc",
              "tag_gen", "pack", "unpack", "conversion", "C_share",
              "wall_s");

  // Returns the wall time; `out` gets the summed stats and `wire` the
  // bytes every remote's session sent and received.
  const auto run_config = [&](const hdsm::work::PairSpec& pair,
                              hdsm::dsm::ShardedHomeOptions opts,
                              hdsm::dsm::ShareStats& out,
                              std::uint64_t* wire = nullptr) {
    std::vector<const hdsm::msg::Endpoint*> sessions;
    hdsm::dsm::ShardedCluster cluster(
        hdsm::work::sor_gthv(n), *pair.home, {pair.remote, pair.remote}, opts,
        [&sessions](std::uint32_t, std::uint32_t, hdsm::msg::EndpointPtr ep) {
          sessions.push_back(ep.get());
          return ep;
        });
    hdsm::obs::ScopedTimer timer;
    const auto grid = hdsm::work::run_sor(cluster, n, iters, 1.5);
    const double wall = static_cast<double>(timer.elapsed_ns()) / 1e9;
    if (grid != hdsm::work::sor_reference(n, iters, 1.5)) {
      std::fprintf(stderr, "FATAL: %s did not verify\n", pair.name.c_str());
      std::exit(1);
    }
    out = cluster.total_stats();
    if (wire != nullptr) {
      *wire = 0;
      for (const hdsm::msg::Endpoint* ep : sessions) {
        *wire += ep->bytes_sent() + ep->bytes_received();
      }
    }
    return wall;
  };

  double sl_conv = 0, ll_conv = 0;
  for (const hdsm::work::PairSpec& pair : hdsm::work::paper_pairs()) {
    hdsm::dsm::ShareStats s;
    const double wall = run_config(pair, hdsm::bench::paper_options(), s);
    std::printf("%5s %12.3f %10.3f %8.3f %10.3f %10.3f %12.3f %10.3f\n",
                pair.name.c_str(), ms(s.index_ns), ms(s.tag_ns),
                ms(s.pack_ns), ms(s.unpack_ns), ms(s.conv_ns),
                ms(s.share_ns()), wall);
    if (pair.name == "SL") sl_conv = ms(s.conv_ns);
    if (pair.name == "LL") ll_conv = ms(s.conv_ns);
  }

  // The stride-2 red/black write pattern is what strided runs are for:
  // each half-sweep's cells of a grid row are one "((8,1)(8,0),n)" tag
  // instead of n "(8,1)" tags, so the paper's string-operations overhead
  // (its future-work section) shrinks without shipping an unwritten byte.
  std::printf("\nrun coalescing on the SL pair (tag-heavy pattern):\n");
  std::printf("%22s %10s %12s %14s %14s %14s\n", "config", "tag_gen",
              "C_share", "tags", "bytes_sent", "wire_bytes");
  const auto row = [](const char* name, const hdsm::dsm::ShareStats& s,
                      std::uint64_t wire) {
    std::printf("%22s %10.3f %12.3f %14llu %14llu %14llu\n", name,
                ms(s.tag_ns), ms(s.share_ns()),
                static_cast<unsigned long long>(s.tags_generated),
                static_cast<unsigned long long>(s.update_bytes_sent),
                static_cast<unsigned long long>(wire));
  };
  hdsm::dsm::ShareStats strided, split;
  std::uint64_t strided_wire = 0, split_wire = 0;
  run_config(hdsm::work::paper_pairs()[2], hdsm::bench::paper_options(),
             strided, &strided_wire);
  row("strided runs (default)", strided, strided_wire);
  {
    hdsm::dsm::ShardedHomeOptions opts = hdsm::bench::paper_options();
    opts.dsd.coalesce_runs = false;
    run_config(hdsm::work::paper_pairs()[2], opts, split, &split_wire);
    row("coalesce_runs=false", split, split_wire);
  }
  const bool strided_wins = strided.tags_generated < split.tags_generated &&
                            strided_wire < split_wire;

  const bool shape = sl_conv > ll_conv;
  std::printf("\nshape: SL conversion exceeds LL conversion: %s\n",
              shape ? "YES" : "NO");
  // Counts, not times: they are exact, while C_share moves with the
  // host's load from run to run.
  std::printf("shape: strided runs ship fewer tags and fewer wire bytes "
              "than coalesce_runs=false: %s\n",
              strided_wins ? "YES" : "NO");
  return shape && strided_wins ? 0 : 1;
}

// Ablation: run coalescing (paper §5).
//
// "our system attempts to group consecutive array elements into a single
//  tag ... It also considerably reduces the time necessary to create tags
//  as fewer calls to sprintf() are required."
//
// Measures the unlock send side (element walk -> tag -> pack) with
// coalescing on vs off over dense and strided write patterns, and reports
// tags generated + payload bytes as counters.  Split mode ships one run,
// so one tag, per written element; coalescing ships one per stretch of
// consecutive written elements.  Every iteration writes new values, so
// each collect sees the whole pattern changed.
#include <benchmark/benchmark.h>

#include "dsm/global_space.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/update.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

namespace {

tags::TypePtr gthv(std::uint64_t n) {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), n)}});
}

void write_pattern(dsm::GlobalSpace& g, std::uint64_t n, bool strided,
                   std::int32_t round) {
  auto a = g.view<std::int32_t>("A");
  const std::uint64_t step = strided ? 2 : 1;
  for (std::uint64_t i = 0; i < n; i += step) {
    a.set(i, static_cast<std::int32_t>(i + 1) + round);
  }
}

void run(benchmark::State& state, bool coalesce, bool strided) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  dsm::SyncOptions opts;
  opts.coalesce_runs = coalesce;
  dsm::GlobalSpace g(gthv(n), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, opts, stats);
  g.region().begin_tracking();
  std::uint64_t tags_generated = 0, bytes = 0, blocks = 0;
  std::int32_t round = 0;
  for (auto _ : state) {
    write_pattern(g, n, strided, ++round);
    const auto payload = engine.pack_payload(engine.collect_runs());
    const auto out = dsm::decode_update_blocks(payload);
    blocks += out.size();
    for (const auto& b : out) bytes += b.data.size() + b.tag.size();
    tags_generated = stats.tags_generated;
  }
  g.region().end_tracking();
  state.counters["tags"] = static_cast<double>(tags_generated) /
                           static_cast<double>(state.iterations());
  state.counters["wire_bytes"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["blocks"] =
      static_cast<double>(blocks) / static_cast<double>(state.iterations());
}

void BM_DenseCoalesced(benchmark::State& s) { run(s, true, false); }
void BM_DenseSplit(benchmark::State& s) { run(s, false, false); }
void BM_StridedCoalesced(benchmark::State& s) { run(s, true, true); }
void BM_StridedSplit(benchmark::State& s) { run(s, false, true); }

}  // namespace

BENCHMARK(BM_DenseCoalesced)->Arg(1 << 12)->Arg(1 << 15);
BENCHMARK(BM_DenseSplit)->Arg(1 << 12)->Arg(1 << 15);
BENCHMARK(BM_StridedCoalesced)->Arg(1 << 12)->Arg(1 << 15);
BENCHMARK(BM_StridedSplit)->Arg(1 << 12)->Arg(1 << 15);

BENCHMARK_MAIN();

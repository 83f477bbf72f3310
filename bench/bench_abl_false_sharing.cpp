// Ablation: hierarchical granularity vs page granularity under false
// sharing (paper §1: "Such a hierarchical strategy can reduce false
// sharing in page-based DSMs").
//
// Two writers update disjoint interleaved objects that share pages.  The
// page-based baseline (with the classic whole-page optimization) ships
// whole pages; the hierarchical DSD ships exactly the touched elements.
// Reported counters: bytes a sync would put on the wire.
#include <benchmark/benchmark.h>

#include <cstring>

#include "baseline/page_dsm.hpp"
#include "dsm/global_space.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/update.hpp"

namespace dsm = hdsm::dsm;
namespace base = hdsm::base;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

namespace {

constexpr std::uint64_t kElems = 1 << 15;

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), kElems)}});
}

// Each pass scatters fresh values over every 64th element, offset by the
// writer id: every page is touched, but only ~6% of its bytes change —
// classic false sharing at page granularity.
template <typename SetFn>
void writer_pass(int writer, std::int32_t salt, SetFn&& set) {
  for (std::uint64_t i = writer; i < kElems; i += 64) {
    set(i, static_cast<std::int32_t>(i) + salt);
  }
}

void BM_HierarchicalElementUpdates(benchmark::State& state) {
  dsm::GlobalSpace g(gthv(), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
  g.region().begin_tracking();
  auto a = g.view<std::int32_t>("A");
  std::uint64_t bytes = 0;
  std::int32_t salt = 0;
  for (auto _ : state) {
    ++salt;
    writer_pass(static_cast<int>(salt % 2), salt,
                [&a](std::uint64_t i, std::int32_t v) { a.set(i, v); });
    const auto payload = engine.pack_payload(engine.collect_runs());
    for (const auto& b : dsm::decode_update_blocks(payload))
      bytes += b.data.size();
  }
  g.region().end_tracking();
  state.counters["wire_bytes_per_sync"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}

void BM_PageBaselineUpdates(benchmark::State& state) {
  // threshold 0.0 = ship the whole page on any change (IVY-style page
  // granularity, the worst false-sharing case); 0.5 = TreadMarks-style
  // twin/diff with the classic whole-page escape hatch.
  base::PageDsmOptions opts;
  opts.whole_page_threshold = static_cast<double>(state.range(0)) / 100.0;
  base::PageDsmNode node(kElems * 4, opts);
  node.start_tracking();
  std::uint64_t bytes = 0;
  std::int32_t salt = 0;
  for (auto _ : state) {
    ++salt;
    writer_pass(static_cast<int>(salt % 2), salt,
                [&node](std::uint64_t i, std::int32_t v) {
                  std::int32_t value = v;
                  std::memcpy(node.data() + i * 4, &value, 4);
                });
    for (const auto& u : node.collect_updates()) bytes += u.data.size();
  }
  node.stop_tracking();
  state.counters["wire_bytes_per_sync"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["whole_pages"] =
      static_cast<double>(node.stats().whole_pages);
}

}  // namespace

BENCHMARK(BM_HierarchicalElementUpdates);
BENCHMARK(BM_PageBaselineUpdates)->Arg(0)->Arg(50);

BENCHMARK_MAIN();

// Ablation: string tags vs binary tags (the paper's future work: "We are
// optimistic that the overhead due to heterogeneity can be improved,
// particularly by lessening our reliance on string operations with the
// tags").
//
// Measures tag generation + parsing throughput for both encodings and the
// full unlock/apply round trip with SyncOptions::binary_tags toggled.
#include <benchmark/benchmark.h>

#include "dsm/global_space.hpp"
#include "dsm/sync_engine.hpp"
#include "tags/tag.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

void BM_StringTagGenerateParse(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::uint32_t c = 1; c <= 64; ++c) {
      const std::string text = tags::make_run_tag(4, c * 97, false).to_string();
      sink += tags::Tag::parse(text).described_bytes();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

void BM_BinaryTagGenerateParse(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::uint32_t c = 1; c <= 64; ++c) {
      const std::vector<std::byte> bin =
          tags::make_run_tag(4, c * 97, false).to_binary();
      sink += tags::Tag::from_binary(bin.data(), bin.size()).described_bytes();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), 1 << 14)}});
}

void round_trip(benchmark::State& state, bool binary) {
  dsm::SyncOptions opts;
  opts.binary_tags = binary;
  dsm::GlobalSpace sender(gthv(), plat::solaris_sparc32());
  dsm::GlobalSpace receiver(gthv(), plat::linux_ia32());
  dsm::ShareStats ss, rs;
  dsm::SyncEngine se(sender, opts, ss);
  dsm::SyncEngine re(receiver, opts, rs);
  sender.region().begin_tracking();
  auto a = sender.view<std::int32_t>("A");
  const auto summary = msg::PlatformSummary::of(plat::solaris_sparc32());
  std::int32_t v = 0;
  for (auto _ : state) {
    // Strided writes -> many runs -> many tags.
    for (std::uint64_t i = 0; i < (1 << 14); i += 32) a.set(i, ++v);
    const auto payload = se.collect_payload();
    re.apply_payload(payload, summary);
  }
  sender.region().end_tracking();
  state.counters["tag_ms_per_sync"] =
      static_cast<double>(ss.tag_ns) / 1e6 /
      static_cast<double>(state.iterations());
  state.counters["unpack_ms_per_sync"] =
      static_cast<double>(rs.unpack_ns) / 1e6 /
      static_cast<double>(state.iterations());
}

void BM_UnlockApplyStringTags(benchmark::State& state) {
  round_trip(state, false);
}
void BM_UnlockApplyBinaryTags(benchmark::State& state) {
  round_trip(state, true);
}

}  // namespace

BENCHMARK(BM_StringTagGenerateParse);
BENCHMARK(BM_BinaryTagGenerateParse);
BENCHMARK(BM_UnlockApplyStringTags);
BENCHMARK(BM_UnlockApplyBinaryTags);

BENCHMARK_MAIN();

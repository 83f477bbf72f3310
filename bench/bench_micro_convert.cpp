// Microbenchmark: CGT-RMR conversion throughput per scalar category and
// path (memcpy / bulk swap / element-wise), across the paper's platform
// pairs.
#include <benchmark/benchmark.h>

#include <vector>

#include "convert/converter.hpp"

namespace conv = hdsm::conv;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

namespace {

constexpr std::uint64_t kCount = 1 << 16;

template <std::uint32_t SrcSize, std::uint32_t DstSize>
void run(benchmark::State& state, const plat::PlatformDesc& sp,
         const plat::PlatformDesc& dp, tags::FlatRun::Cat cat,
         plat::ScalarKind kind, bool allow_bulk = true) {
  std::vector<std::byte> src(kCount * SrcSize), dst(kCount * DstSize);
  for (auto _ : state) {
    conv::convert_run(src.data(), SrcSize, sp, dst.data(), DstSize, dp,
                      kCount, cat, kind, nullptr, allow_bulk);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kCount * SrcSize);
}

void BM_Int32Memcpy(benchmark::State& s) {
  run<4, 4>(s, plat::linux_ia32(), plat::linux_ia32(),
            tags::FlatRun::Cat::SignedInt, plat::ScalarKind::Int);
}
void BM_Int32BulkSwap(benchmark::State& s) {
  run<4, 4>(s, plat::solaris_sparc32(), plat::linux_ia32(),
            tags::FlatRun::Cat::SignedInt, plat::ScalarKind::Int);
}
void BM_Int32ElementwiseSwap(benchmark::State& s) {
  run<4, 4>(s, plat::solaris_sparc32(), plat::linux_ia32(),
            tags::FlatRun::Cat::SignedInt, plat::ScalarKind::Int,
            /*allow_bulk=*/false);
}
void BM_Long4To8SignExtend(benchmark::State& s) {
  run<4, 8>(s, plat::linux_ia32(), plat::solaris_sparc64(),
            tags::FlatRun::Cat::SignedInt, plat::ScalarKind::Long);
}
void BM_DoubleBulkSwap(benchmark::State& s) {
  run<8, 8>(s, plat::solaris_sparc32(), plat::linux_ia32(),
            tags::FlatRun::Cat::Float, plat::ScalarKind::Double);
}
void BM_DoubleElementwise(benchmark::State& s) {
  run<8, 8>(s, plat::solaris_sparc32(), plat::linux_ia32(),
            tags::FlatRun::Cat::Float, plat::ScalarKind::Double,
            /*allow_bulk=*/false);
}
void BM_LongDoubleX87ToQuad(benchmark::State& s) {
  run<12, 16>(s, plat::linux_ia32(), plat::solaris_sparc32(),
              tags::FlatRun::Cat::Float, plat::ScalarKind::LongDouble);
}
void BM_PointerWidening(benchmark::State& s) {
  run<4, 8>(s, plat::linux_ia32(), plat::linux_x86_64(),
            tags::FlatRun::Cat::Pointer, plat::ScalarKind::Pointer);
}

}  // namespace

BENCHMARK(BM_Int32Memcpy);
BENCHMARK(BM_Int32BulkSwap);
BENCHMARK(BM_Int32ElementwiseSwap);
BENCHMARK(BM_Long4To8SignExtend);
BENCHMARK(BM_DoubleBulkSwap);
BENCHMARK(BM_DoubleElementwise);
BENCHMARK(BM_LongDoubleX87ToQuad);
BENCHMARK(BM_PointerWidening);

BENCHMARK_MAIN();

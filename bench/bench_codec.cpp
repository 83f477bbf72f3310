// A/B/C bench for the predictive update codec (docs/COMPRESSION.md),
// emitted as BENCH_codec.json: each workload shape runs lock/write/unlock
// episodes against a home over a bandwidth-throttled link (msg::
// make_throttled simulating the wire), under three codec configurations —
//
//   /0 off       - CodecMode::Off: the pre-codec wire, byte for byte
//   /1 forced    - CodecMode::Forced: every eligible run compressed
//   /2 adaptive  - CodecMode::Adaptive: the tuner's compress knob decides
//                  per link from the measured encode cost / ratio /
//                  bandwidth
//
// Workload shapes mirror the §5 kernels' update traffic: SOR-style smooth
// double rows, LU-style integer ramps, and an incompressible white-noise
// control.  The acceptance bar (ISSUE 10): at the lowest bandwidth the
// codec cuts bytes-on-wire at least 2x on the compressible shapes, and at
// the highest bandwidth adaptive never loses to off (it declines to
// engage once the link model shows raw is cheaper).
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <random>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/throttle.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

bool fast_mode() {
  const char* v = std::getenv("HDSM_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::int64_t kOff = 0;
constexpr std::int64_t kForced = 1;
constexpr std::int64_t kAdaptive = 2;

dsm::CodecMode mode_of(std::int64_t m) {
  switch (m) {
    case kForced: return dsm::CodecMode::Forced;
    case kAdaptive: return dsm::CodecMode::Adaptive;
    default: return dsm::CodecMode::Off;
  }
}

/// Simulated link rates, slow to fast.  10 MB/s is a congested WAN-ish
/// link where compression must win; 0 means no throttle at all — an
/// in-process link far faster than any encoder, where adaptive must
/// decline.  (A throttled "1 GB/s" rung would lie here: sleep_until
/// overshoot on ~100 us frames caps the measured link near 140 MB/s.)
constexpr std::uint64_t kBandwidth[] = {10ull << 20, 100ull << 20, 0};

constexpr std::uint64_t kDoubles = 4096;
constexpr std::uint64_t kInts = 8192;

tags::TypePtr bench_gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"D", tags::TypeDesc::array(tags::t_double(), kDoubles)},
            {"A", tags::TypeDesc::array(tags::t_int(), kInts)}});
}

enum class Shape { SorDoubles, LuInts, Noise };

/// One episode's writes, salted so successive diffs are never empty.
void write_shape(dsm::ShardedRemote& remote, Shape shape, int salt) {
  switch (shape) {
    case Shape::SorDoubles: {
      // Smooth relaxation row: neighboring values differ by a near-constant
      // step, the codec's best case for float traffic.
      auto d = remote.space().view<double>("D");
      for (std::uint64_t i = 0; i < kDoubles; ++i) {
        d.set(i, 1.0 + 0.001 * static_cast<double>(i) + salt);
      }
      break;
    }
    case Shape::LuInts: {
      // Elimination-step integer ramp with small per-element jitter.
      auto a = remote.space().view<std::int32_t>("A");
      for (std::uint64_t i = 0; i < kInts; ++i) {
        a.set(i, static_cast<std::int32_t>(i * 7) + salt +
                     static_cast<std::int32_t>(i % 3));
      }
      break;
    }
    case Shape::Noise: {
      // White noise: the encoder must decline and ship raw.
      std::mt19937_64 rng(1000 + salt);
      auto a = remote.space().view<std::int32_t>("A");
      for (std::uint64_t i = 0; i < kInts; ++i) {
        a.set(i, static_cast<std::int32_t>(rng()));
      }
      break;
    }
  }
}

struct RunResult {
  std::uint64_t wire_bytes = 0;  ///< frame bytes remote -> home
  dsm::ShareStats stats;         ///< the remote's (sending) engine
};

RunResult run_episodes(Shape shape, std::uint64_t bps, std::int64_t mode,
                       int episodes) {
  dsm::ShardedHome home(bench_gthv(), plat::linux_ia32(), {});
  msg::EndpointPtr link = home.attach(1);
  if (bps != 0) link = msg::make_throttled(std::move(link), bps);
  msg::Endpoint* wire = link.get();
  dsm::ShardedRemoteOptions ropts;
  ropts.dsd.codec = mode_of(mode);
  // Short warmup/dwell so the adaptive knob can move within a bench run.
  ropts.dsd.tuner.warmup = 1;
  ropts.dsd.tuner.dwell = 1;
  dsm::ShardedRemote remote(bench_gthv(), plat::linux_ia32(), 1,
                            std::move(link), ropts);
  home.start();

  for (int e = 0; e < episodes; ++e) {
    remote.lock(0);
    write_shape(remote, shape, e + 1);
    remote.unlock(0);
  }
  RunResult r;
  r.wire_bytes = wire->bytes_sent();
  r.stats = remote.stats();
  remote.join();
  home.wait_all_joined();
  home.stop();
  return r;
}

void codec_bench(benchmark::State& state, Shape shape) {
  const std::uint64_t bps = kBandwidth[state.range(0)];
  const std::int64_t mode = state.range(1);
  const int episodes = fast_mode() ? 4 : 12;
  RunResult last;
  for (auto _ : state) {
    last = run_episodes(shape, bps, mode, episodes);
  }
  state.counters["wire_bytes"] = static_cast<double>(last.wire_bytes);
  state.counters["payload_bytes"] =
      static_cast<double>(last.stats.update_bytes_sent);
  state.counters["codec_blocks"] = static_cast<double>(last.stats.codec_blocks);
  state.counters["codec_raw"] = static_cast<double>(last.stats.codec_raw_bytes);
  state.counters["codec_wire"] =
      static_cast<double>(last.stats.codec_wire_bytes);
  state.counters["codec_skipped"] =
      static_cast<double>(last.stats.codec_skipped);
}

void BM_CodecSorDoubles(benchmark::State& state) {
  codec_bench(state, Shape::SorDoubles);
}
void BM_CodecLuInts(benchmark::State& state) {
  codec_bench(state, Shape::LuInts);
}
void BM_CodecNoise(benchmark::State& state) {
  codec_bench(state, Shape::Noise);
}

void register_matrix(benchmark::internal::Benchmark* b) {
  b->ArgNames({"bw", "mode"});
  for (std::int64_t bw = 0; bw < 3; ++bw) {
    for (const std::int64_t mode : {kOff, kForced, kAdaptive}) {
      b->Args({bw, mode});
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_CodecSorDoubles)->Apply(register_matrix);
BENCHMARK(BM_CodecLuInts)->Apply(register_matrix);
BENCHMARK(BM_CodecNoise)->Apply(register_matrix);

}  // namespace

BENCHMARK_MAIN();

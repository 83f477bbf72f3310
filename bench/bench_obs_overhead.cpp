// Ablation: what does the telemetry layer (docs/OBSERVABILITY.md) cost?
//
// Obs-off must be free to the noise floor: no Telemetry object exists, so
// every instrumentation site is a pointer null check.  Obs-on pays one
// histogram record (3 relaxed RMWs) plus one ring push (4 relaxed stores +
// a release fence) per recorded phase — bounded, allocation-free, and
// fixed-cost regardless of the span's duration.
//
//   BM_LockUnlock_{ObsOff,ObsOn} - the bench_reliability_overhead happy
//                                  path with the obs knob toggled: off is
//                                  the ≤1% claim, on the ≤5% claim
//   BM_{Matmul,Lu,Sor}/{0,1}     - full workloads on the LL pair, obs
//                                  off (/0) vs on (/1): barrier-heavy
//                                  (matmul/lu) and lock+barrier (sor)
//
// After the timed benchmarks, one full matmul on the heterogeneous SL
// pair runs with obs on and exports BENCH_obs_trace.json (Chrome
// trace-event JSON, Perfetto-loadable: distinct pid per rank, tid per
// thread lane) and BENCH_obs_metrics.json (the aggregated cluster scrape).
// The export path self-checks: every synchronization episode of every
// rank must appear as a span (no ring drops), or the binary exits nonzero
// — bench_smoke then validates both artifacts parse.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dsm/sharded_cluster.hpp"
#include "obs/export.hpp"
#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace dsm = hdsm::dsm;
namespace obs = hdsm::obs;
namespace work = hdsm::work;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

obs::ObsOptions obs_on() {
  obs::ObsOptions o;
  o.enabled = true;
  o.ring_capacity = 1 << 14;
  return o;
}

// -- Happy-path lock/unlock rounds (mirrors bench_reliability_overhead) --

tags::TypePtr small_gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), 64)}});
}

void lock_unlock_rounds(benchmark::State& state, bool obs_enabled) {
  dsm::ShardedHomeOptions hopts;
  dsm::ShardedRemoteOptions ropts;
  if (obs_enabled) {
    hopts.obs = obs_on();
    ropts.obs = obs_on();
  }
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32(), hopts);
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            home.attach(1), ropts);
  home.start();
  // One dirtying round outside timing so the first grant's full-image ship
  // is not measured.
  remote.lock(0);
  remote.space().view<std::int64_t>("A").set(0, 1);
  remote.unlock(0);
  for (auto _ : state) {
    remote.lock(0);
    auto v = remote.space().view<std::int64_t>("A");
    v.set(0, v.get(0) + 1);
    remote.unlock(0);
  }
  if (obs_enabled) {
    state.counters["spans"] = static_cast<double>(
        remote.telemetry()->spans().total_spans());
    state.counters["spans_dropped"] =
        static_cast<double>(remote.telemetry()->metrics().counters.at(
            "obs.spans_dropped"));
  }
  remote.join();
  home.stop();
}

void BM_LockUnlock_ObsOff(benchmark::State& state) {
  lock_unlock_rounds(state, false);
}

void BM_LockUnlock_ObsOn(benchmark::State& state) {
  lock_unlock_rounds(state, true);
}

// -- Full workloads, LL pair, obs off vs on --

dsm::ShardedHomeOptions workload_options(bool obs_enabled) {
  dsm::ShardedHomeOptions opts = hdsm::bench::paper_options();
  if (obs_enabled) opts.obs = obs_on();
  return opts;
}

void BM_Matmul(benchmark::State& state) {
  const work::PairSpec& pair = work::paper_pairs()[0];  // LL
  const std::uint32_t n = hdsm::bench::fast_mode() ? 33 : 99;
  for (auto _ : state) {
    const work::ExperimentResult r = work::run_matmul_experiment(
        pair, n, workload_options(state.range(0) != 0));
    if (!r.verified) state.SkipWithError("matmul did not verify");
    state.counters["share_ms"] =
        static_cast<double>(r.total.share_ns()) / 1e6;
  }
}

void BM_Lu(benchmark::State& state) {
  const work::PairSpec& pair = work::paper_pairs()[0];  // LL
  const std::uint32_t n = hdsm::bench::fast_mode() ? 32 : 99;
  for (auto _ : state) {
    const work::ExperimentResult r = work::run_lu_experiment(
        pair, n, workload_options(state.range(0) != 0));
    if (!r.verified) state.SkipWithError("lu did not verify");
    state.counters["share_ms"] =
        static_cast<double>(r.total.share_ns()) / 1e6;
  }
}

void BM_Sor(benchmark::State& state) {
  const work::PairSpec& pair = work::paper_pairs()[0];  // LL
  const std::uint32_t n = hdsm::bench::fast_mode() ? 24 : 64;
  const std::uint32_t iters = hdsm::bench::fast_mode() ? 4 : 10;
  for (auto _ : state) {
    dsm::ShardedCluster cluster(work::sor_gthv(n), *pair.home,
                                {pair.remote, pair.remote},
                                workload_options(state.range(0) != 0));
    const auto grid = work::run_sor(cluster, n, iters, 1.5);
    if (grid != work::sor_reference(n, iters, 1.5)) {
      state.SkipWithError("sor did not verify");
    }
    state.counters["share_ms"] =
        static_cast<double>(cluster.total_stats().share_ns()) / 1e6;
  }
}

// -- Trace + metrics artifact export (runs after the benchmarks) --

bool write_file(const char* path, const std::string& body) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_obs_overhead: cannot write %s\n", path);
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

/// Full matmul on the heterogeneous SL pair with obs on; exports the
/// Chrome trace + cluster metrics artifacts and self-checks that every
/// rank's every synchronization episode landed in the trace.
int export_artifacts() {
  const work::PairSpec& pair = work::paper_pairs()[2];  // SL
  const std::uint32_t n = hdsm::bench::fast_mode() ? 48 : 99;
  dsm::ShardedHomeOptions opts = workload_options(true);
  dsm::ShardedCluster cluster(work::matmul_gthv(n), *pair.home,
                              {pair.remote, pair.remote}, opts);
  if (work::run_matmul(cluster, n) != work::matmul_reference(n)) {
    std::fprintf(stderr, "bench_obs_overhead: export matmul did not verify\n");
    return 1;
  }

  std::vector<obs::NodeTrace> traces;
  obs::NodeTrace home_trace;
  home_trace.rank = 0;
  home_trace.name = "home (" + pair.home->name + ")";
  home_trace.spans = cluster.home().telemetry()->spans();
  traces.push_back(std::move(home_trace));
  for (std::uint32_t rank = 1; rank <= 2; ++rank) {
    obs::NodeTrace t;
    t.rank = rank;
    t.name = "remote-" + std::to_string(rank) + " (" + pair.remote->name + ")";
    t.spans = cluster.remote(rank).telemetry()->spans();
    traces.push_back(std::move(t));
  }

  // Coverage self-check: with no ring drops, the Episode spans on each
  // remote's application lane are exactly its synchronization episodes —
  // the trace covers 100% of episode wall time.  Any drop or mismatch
  // fails the bench (and therefore bench_smoke).
  for (std::uint32_t rank = 1; rank <= 2; ++rank) {
    const obs::NodeTrace& t = traces[rank];
    std::uint64_t dropped = 0, episodes = 0;
    for (const obs::LaneSnapshot& lane : t.spans.lanes) {
      dropped += lane.dropped;
      for (const obs::SpanRecord& s : lane.spans) {
        if (s.kind == obs::SpanKind::Episode) ++episodes;
      }
    }
    const dsm::ShareStats rs = cluster.remote(rank).stats();
    // lock/unlock/barrier episodes plus the join episode.
    const std::uint64_t expected = rs.locks + rs.unlocks + rs.barriers + 1;
    if (dropped != 0 || episodes != expected) {
      std::fprintf(stderr,
                   "bench_obs_overhead: rank %u trace incomplete: "
                   "%llu episodes recorded, %llu expected, %llu dropped\n",
                   rank, static_cast<unsigned long long>(episodes),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(dropped));
      return 1;
    }
  }
  // Distinct lanes: every rank is its own pid; within a node, every
  // recording thread is its own tid.
  for (const obs::NodeTrace& t : traces) {
    if (t.spans.lanes.empty()) {
      std::fprintf(stderr, "bench_obs_overhead: rank %u recorded no lanes\n",
                   t.rank);
      return 1;
    }
  }

  if (!write_file("BENCH_obs_trace.json", obs::chrome_trace_json(traces))) {
    return 1;
  }
  if (!write_file("BENCH_obs_metrics.json", cluster.telemetry().to_json())) {
    return 1;
  }
  std::printf("bench_obs_overhead: wrote BENCH_obs_trace.json + "
              "BENCH_obs_metrics.json (SL matmul n=%u)\n", n);
  return 0;
}

}  // namespace

BENCHMARK(BM_LockUnlock_ObsOff)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LockUnlock_ObsOn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Matmul)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Lu)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sor)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return export_artifacts();
}

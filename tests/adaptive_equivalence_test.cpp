// Satellite equivalence suite for the adaptive policy engine: the codec
// tuner's decisions may change *traffic* (which runs ship compressed) but
// must never change *results*.  Every workload here runs twice over
// identical clusters — codec off, then CodecMode::Adaptive with an
// aggressive tuner so switches actually fire — and the final master-image
// contents must be byte-identical (memcmp, so even a sign-of-zero or
// NaN-payload difference in a double would fail).
//
// A trace test additionally checks that the adaptive event stream passes
// the validator, including invariant 5 (every strategy switch is preceded
// by a probe sample of the same episode).
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "dsm/sharded_cluster.hpp"
#include "dsm/trace.hpp"
#include "tags/describe.hpp"
#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace work = hdsm::work;
namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;

namespace {

/// Adaptive-codec options tuned for tiny test workloads: one-episode warmup
/// and dwell, fast EWMA, thin switch margin — the tuner moves as early and
/// as often as it ever can, maximizing the chance a wrong decision would
/// corrupt a result.
dsm::ShardedHomeOptions adaptive_on(dsm::TraceLog* trace = nullptr) {
  dsm::ShardedHomeOptions opts;
  opts.dsd.codec = dsm::CodecMode::Adaptive;
  opts.dsd.tuner.warmup = 1;
  opts.dsd.tuner.dwell = 1;
  opts.dsd.tuner.alpha = 0.5;
  opts.dsd.tuner.margin = 0.05;
  opts.trace = trace;
  return opts;
}

template <typename T>
::testing::AssertionResult bytes_identical(const std::vector<T>& off,
                                           const std::vector<T>& on) {
  if (off.size() != on.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << off.size() << " vs " << on.size();
  }
  if (std::memcmp(off.data(), on.data(), off.size() * sizeof(T)) != 0) {
    for (std::size_t i = 0; i < off.size(); ++i) {
      if (std::memcmp(&off[i], &on[i], sizeof(T)) != 0) {
        return ::testing::AssertionFailure()
               << "first divergence at element " << i << ": " << off[i]
               << " (adaptive off) vs " << on[i] << " (adaptive on)";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(AdaptiveEquivalence, MatmulHomogeneousPair) {
  const work::PairSpec& pair = work::paper_pairs()[0];  // LL
  const std::uint32_t n = 48;

  dsm::ShardedCluster off(work::matmul_gthv(n), *pair.home,
                          {pair.remote, pair.remote});
  const auto c_off = work::run_matmul(off, n);
  EXPECT_EQ(off.total_stats().adapt_episodes, 0u)
      << "adaptive off must not even sample";

  dsm::ShardedCluster on(work::matmul_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, adaptive_on());
  const auto c_on = work::run_matmul(on, n);

  EXPECT_TRUE(bytes_identical(c_off, c_on));
  EXPECT_EQ(c_on, work::matmul_reference(n));
  EXPECT_GT(on.total_stats().adapt_episodes, 0u);
}

TEST(AdaptiveEquivalence, MatmulHeterogeneousPair) {
  const work::PairSpec& pair = work::paper_pairs()[2];  // SL
  const std::uint32_t n = 48;

  dsm::ShardedCluster off(work::matmul_gthv(n), *pair.home,
                          {pair.remote, pair.remote});
  dsm::ShardedCluster on(work::matmul_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, adaptive_on());
  const auto c_off = work::run_matmul(off, n);
  const auto c_on = work::run_matmul(on, n);

  EXPECT_TRUE(bytes_identical(c_off, c_on));
  EXPECT_EQ(c_on, work::matmul_reference(n));
  EXPECT_GT(on.total_stats().adapt_episodes, 0u);
}

TEST(AdaptiveEquivalence, LuIsBitExactUnderAdaptivity) {
  // LU ships big per-barrier updates (the paper's "more data per update"
  // workload), and its per-step payloads shrink as elimination proceeds.
  // Doubles end to end, so memcmp is the only honest comparison.
  const work::PairSpec& pair = work::paper_pairs()[2];  // SL
  const std::uint32_t n = 40;

  dsm::ShardedCluster off(work::lu_gthv(n), *pair.home,
                          {pair.remote, pair.remote});
  dsm::ShardedCluster on(work::lu_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, adaptive_on());
  const auto m_off = work::run_lu(off, n);
  const auto m_on = work::run_lu(on, n);

  EXPECT_TRUE(bytes_identical(m_off, m_on));
  EXPECT_TRUE(bytes_identical(m_on, work::lu_reference(n)));
  EXPECT_GT(on.total_stats().adapt_episodes, 0u);
}

TEST(AdaptiveEquivalence, SorIsBitExactUnderAdaptivity) {
  // Red-black SOR: interleaved one-element dirty runs within a row (one
  // color per phase), each run's bytes shipped raw or compressed as the
  // tuner decides, must land exactly as written.
  const work::PairSpec& pair = work::paper_pairs()[0];  // LL
  const std::uint32_t n = 24;
  const std::uint32_t iters = 4;

  dsm::ShardedCluster off(work::sor_gthv(n), *pair.home,
                          {pair.remote, pair.remote});
  dsm::ShardedCluster on(work::sor_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, adaptive_on());
  const auto g_off = work::run_sor(off, n, iters);
  const auto g_on = work::run_sor(on, n, iters);

  EXPECT_TRUE(bytes_identical(g_off, g_on));
  EXPECT_TRUE(bytes_identical(g_on, work::sor_reference(n, iters, 1.5)));
  EXPECT_GT(on.total_stats().adapt_episodes, 0u);
}

TEST(AdaptiveEquivalence, LockRmwWorkloadIsDeterministic) {
  // Mutex-protected read-modify-write over a shared counter array: the
  // lock grant/release path on the homogeneous pair (memcpy plans).  Final
  // sums are order-independent, so adaptivity must not perturb them.
  const auto gthv = tags::describe_struct("GThV_locks")
                        .pointer("GThP")
                        .array<int>("counters", 256)
                        .field<int>("n")
                        .build();
  constexpr std::uint32_t kRounds = 6;
  constexpr std::uint64_t kCounters = 256;

  const auto run = [&](dsm::ShardedHomeOptions opts) {
    dsm::ShardedCluster cluster(gthv, *work::paper_pairs()[0].home,
                                {work::paper_pairs()[0].remote,
                          work::paper_pairs()[0].remote},
                         opts);
    const auto bump = [](auto& space, std::uint32_t thread) {
      auto v = space.template view<std::int32_t>("counters");
      // Strided RMW: 4-byte dirty elements with 8-byte clean gaps inside
      // one page, so every unlock ships many one-element runs.
      for (std::uint64_t i = thread; i < kCounters; i += 3) {
        v.set(i, v.get(i) + static_cast<std::int32_t>(i % 7 + thread + 1));
      }
    };
    cluster.run(
        [&](dsm::ShardedHome& home) {
          for (std::uint32_t r = 0; r < kRounds; ++r) {
            home.lock(1);
            bump(home.space(), 0);
            home.unlock(1);
          }
          home.barrier(0);
          home.wait_all_joined();
        },
        [&](dsm::ShardedRemote& remote) {
          for (std::uint32_t r = 0; r < kRounds; ++r) {
            remote.lock(1);
            bump(remote.space(), remote.rank());
            remote.unlock(1);
          }
          remote.barrier(0);
          remote.join();
        });
    return cluster.home().space().view<std::int32_t>("counters").to_vector();
  };

  const auto off = run(dsm::ShardedHomeOptions{});
  const auto on = run(adaptive_on());
  EXPECT_TRUE(bytes_identical(off, on));

  // The result itself is predictable: each counter i gets, per round, a
  // contribution from the one thread t with i % 3 == t.
  std::vector<std::int32_t> expect(kCounters, 0);
  for (std::uint64_t i = 0; i < kCounters; ++i) {
    const auto t = static_cast<std::int32_t>(i % 3);
    expect[i] = static_cast<std::int32_t>(kRounds) *
                (static_cast<std::int32_t>(i % 7) + t + 1);
  }
  EXPECT_TRUE(bytes_identical(on, expect));
}

TEST(AdaptiveEquivalence, AdaptiveTracePassesTheValidator) {
  dsm::TraceLog log;
  const work::PairSpec& pair = work::paper_pairs()[0];
  const std::uint32_t n = 48;
  // One combined log: the remotes' tuner episodes must land in it too.
  dsm::ShardedRemoteOptions ropts;
  ropts.trace = &log;
  dsm::ShardedCluster cluster(work::matmul_gthv(n), *pair.home,
                              {pair.remote, pair.remote}, adaptive_on(&log),
                              /*wrap=*/nullptr, ropts);
  EXPECT_EQ(work::run_matmul(cluster, n), work::matmul_reference(n));

  const std::vector<dsm::TraceEvent> events = log.snapshot();
  const auto error = dsm::validate_trace(events);
  EXPECT_FALSE(error.has_value()) << *error;

  std::size_t probes = 0;
  for (const dsm::TraceEvent& e : events) {
    if (e.kind == dsm::TraceEvent::Kind::ProbeSampled) ++probes;
  }
  EXPECT_GT(probes, 0u) << "adaptive run must emit probe samples";
  EXPECT_EQ(cluster.total_stats().adapt_episodes, probes)
      << "every tuner episode appears in the trace exactly once";
}

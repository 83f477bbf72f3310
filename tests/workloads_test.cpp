// Tests for the matrix multiplication and LU workloads across the paper's
// platform pairs: distributed results must match serial references exactly.
#include <gtest/gtest.h>

#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace work = hdsm::work;
namespace dsm = hdsm::dsm;
namespace plat = hdsm::plat;

TEST(MatmulWorkload, GthvShapeMatchesFigure4) {
  const auto t = work::matmul_gthv(237);
  EXPECT_EQ(t->to_string(),
            "struct GThV_t{void* GThP; int[56169] A; int[56169] B; "
            "int[56169] C; int n}");
}

TEST(MatmulWorkload, ReferenceIsDeterministic) {
  const auto a = work::matmul_reference(12);
  const auto b = work::matmul_reference(12);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 144u);
}

class MatmulPairs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatmulPairs, DistributedMatchesSerial) {
  const work::PairSpec& pair = work::paper_pairs()[GetParam()];
  for (const std::uint32_t n : {5u, 16u, 33u}) {
    dsm::ShardedCluster cluster(work::matmul_gthv(n), *pair.home,
                                {pair.remote, pair.remote});
    const auto c = work::run_matmul(cluster, n);
    EXPECT_EQ(c, work::matmul_reference(n)) << pair.name << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, MatmulPairs,
                         ::testing::Values(0, 1, 2));  // LL, SS, SL

TEST(MatmulWorkload, SingleRemote) {
  dsm::ShardedCluster cluster(work::matmul_gthv(9), plat::linux_ia32(),
                              {&plat::solaris_sparc32()});
  EXPECT_EQ(work::run_matmul(cluster, 9), work::matmul_reference(9));
}

TEST(MatmulWorkload, FourThreads) {
  dsm::ShardedCluster cluster(
      work::matmul_gthv(17), plat::solaris_sparc32(),
      {&plat::linux_ia32(), &plat::solaris_sparc32(), &plat::linux_x86_64()});
  EXPECT_EQ(work::run_matmul(cluster, 17), work::matmul_reference(17));
}

TEST(LuWorkload, InputIsDiagonallyDominant) {
  const std::uint32_t n = 24;
  for (std::uint32_t i = 0; i < n; ++i) {
    double off_diag = 0;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i != j) off_diag += std::abs(work::lu_input(n, i, j));
    }
    EXPECT_GT(std::abs(work::lu_input(n, i, i)), off_diag);
  }
}

TEST(LuWorkload, ReferenceReconstructsMatrix) {
  // L*U must reproduce the input (within fp roundoff).
  const std::uint32_t n = 16;
  const auto lu = work::lu_reference(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::uint32_t k = 0; k <= std::min(i, j); ++k) {
        const double l = k == i ? 1.0 : lu[i * n + k];  // unit lower
        const double u = lu[k * n + j];                 // upper
        acc += l * u;
      }
      EXPECT_NEAR(acc, work::lu_input(n, i, j), 1e-9 * n);
    }
  }
}

class LuPairs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuPairs, DistributedMatchesSerialExactly) {
  const work::PairSpec& pair = work::paper_pairs()[GetParam()];
  for (const std::uint32_t n : {4u, 13u, 24u}) {
    dsm::ShardedCluster cluster(work::lu_gthv(n), *pair.home,
                                {pair.remote, pair.remote});
    const auto m = work::run_lu(cluster, n);
    const auto ref = work::lu_reference(n);
    ASSERT_EQ(m.size(), ref.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(m[i], ref[i]) << pair.name << " n=" << n << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, LuPairs, ::testing::Values(0, 1, 2));

TEST(SorWorkload, ReferenceConvergesTowardBoundary) {
  // With a hot top edge, sustained iteration must pull interior cells up.
  const std::uint32_t n = 16;
  const auto g0 = work::sor_reference(n, 1, 1.5);
  const auto g1 = work::sor_reference(n, 50, 1.5);
  const std::uint32_t stride = n + 2;
  const std::uint64_t mid = static_cast<std::uint64_t>(n / 2) * stride + n / 2;
  EXPECT_GT(g1[mid], g0[mid]);
  EXPECT_GT(g1[mid], 0.0);
  EXPECT_LT(g1[mid], 100.0);
}

class SorPairs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SorPairs, DistributedMatchesSerialExactly) {
  const work::PairSpec& pair = work::paper_pairs()[GetParam()];
  for (const std::uint32_t n : {6u, 15u}) {
    dsm::ShardedCluster cluster(work::sor_gthv(n), *pair.home,
                                {pair.remote, pair.remote});
    const auto grid = work::run_sor(cluster, n, 8, 1.5);
    const auto ref = work::sor_reference(n, 8, 1.5);
    ASSERT_EQ(grid.size(), ref.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(grid[i], ref[i]) << pair.name << " n=" << n << " cell " << i;
    }
  }
}

TEST_P(SorPairs, BarrierReleasesShipStridedRuns) {
  // Each half-sweep writes every other cell, so each grid row a release
  // carries is one strided run of that row's changed cells: at most about
  // one block per grid row, and never a cell nobody wrote.
  const work::PairSpec& pair = work::paper_pairs()[GetParam()];
  const std::uint32_t n = 30;
  const std::uint32_t iters = 4;
  dsm::ShardedCluster cluster(work::sor_gthv(n), *pair.home,
                              {pair.remote, pair.remote});
  const auto grid = work::run_sor(cluster, n, iters, 1.5);
  EXPECT_EQ(grid, work::sor_reference(n, iters, 1.5)) << pair.name;
  const std::uint64_t releases = 2 * (1 + 2 * iters);
  EXPECT_LE(cluster.home().stats().updates_sent, releases * (n + 2))
      << pair.name;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, SorPairs, ::testing::Values(0, 1, 2));

TEST(SorWorkload, FourThreadsMixedPlatforms) {
  const std::uint32_t n = 13;
  dsm::ShardedCluster cluster(
      work::sor_gthv(n), plat::linux_ia32(),
      {&plat::solaris_sparc32(), &plat::windows_x64(), &plat::mips64_be()});
  const auto grid = work::run_sor(cluster, n, 6, 1.25);
  const auto ref = work::sor_reference(n, 6, 1.25);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i], ref[i]) << "cell " << i;
  }
}

TEST(Experiment, MatmulHarnessVerifiesAndTimes) {
  const auto r = work::run_matmul_experiment(work::paper_pairs()[2], 20);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.pair, "SL");
  EXPECT_EQ(r.workload, "matmul");
  EXPECT_GT(r.total.share_ns(), 0u);
  EXPECT_GT(r.wall_seconds, 0.0);
  // Total equals home + both remotes.
  EXPECT_EQ(r.total.share_ns(), r.home.share_ns() + r.remote.share_ns());
}

TEST(Experiment, LuHarnessVerifies) {
  const auto r = work::run_lu_experiment(work::paper_pairs()[0], 12);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.workload, "lu");
  EXPECT_GT(r.total.barriers, 0u);
}

TEST(Experiment, HeterogeneousPairConvertsMoreThanHomogeneous) {
  // The Figure 10 shape at a small size: SL conversion work strictly
  // exceeds LL's, because LL reduces to tag-check + memcpy.
  const auto ll = work::run_matmul_experiment(work::paper_pairs()[0], 32);
  const auto sl = work::run_matmul_experiment(work::paper_pairs()[2], 32);
  ASSERT_TRUE(ll.verified);
  ASSERT_TRUE(sl.verified);
  EXPECT_EQ(ll.total.update_bytes_sent, sl.total.update_bytes_sent);
}

TEST(Experiment, PaperParameterTables) {
  EXPECT_EQ(work::paper_pairs().size(), 3u);
  EXPECT_EQ(work::paper_pairs()[0].name, "LL");
  EXPECT_EQ(work::paper_pairs()[1].name, "SS");
  EXPECT_EQ(work::paper_pairs()[2].name, "SL");
  EXPECT_EQ(work::paper_sizes(),
            (std::vector<std::uint32_t>{99, 138, 177, 216, 255}));
}

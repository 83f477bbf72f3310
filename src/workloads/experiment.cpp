#include "workloads/experiment.hpp"

#include <cmath>

#include "obs/timer.hpp"

namespace hdsm::work {

const std::vector<PairSpec>& paper_pairs() {
  static const std::vector<PairSpec> pairs = {
      {"LL", &plat::linux_ia32(), &plat::linux_ia32()},
      {"SS", &plat::solaris_sparc32(), &plat::solaris_sparc32()},
      {"SL", &plat::solaris_sparc32(), &plat::linux_ia32()},
  };
  return pairs;
}

const std::vector<std::uint32_t>& paper_sizes() {
  static const std::vector<std::uint32_t> sizes = {99, 138, 177, 216, 255};
  return sizes;
}

namespace {

ExperimentResult finish(dsm::ShardedCluster& cluster, ExperimentResult r,
                        double wall_seconds, bool verified) {
  r.total = cluster.total_stats();
  r.home = cluster.home().stats();
  r.remote = cluster.remote(1).stats();
  r.remote += cluster.remote(2).stats();
  r.wall_seconds = wall_seconds;
  r.verified = verified;
  return r;
}

}  // namespace

ExperimentResult run_matmul_experiment(const PairSpec& pair, std::uint32_t n,
                                       dsm::ShardedHomeOptions opts) {
  ExperimentResult r;
  r.pair = pair.name;
  r.workload = "matmul";
  r.n = n;

  dsm::ShardedCluster cluster(matmul_gthv(n), *pair.home,
                              {pair.remote, pair.remote}, opts);
  obs::ScopedTimer timer;
  const std::vector<std::int32_t> c = run_matmul(cluster, n);
  const double wall = static_cast<double>(timer.elapsed_ns()) / 1e9;

  const std::vector<std::int32_t> ref = matmul_reference(n);
  const bool ok = c == ref;
  return finish(cluster, std::move(r), wall, ok);
}

ExperimentResult run_lu_experiment(const PairSpec& pair, std::uint32_t n,
                                   dsm::ShardedHomeOptions opts) {
  ExperimentResult r;
  r.pair = pair.name;
  r.workload = "lu";
  r.n = n;

  dsm::ShardedCluster cluster(lu_gthv(n), *pair.home,
                              {pair.remote, pair.remote}, opts);
  obs::ScopedTimer timer;
  const std::vector<double> m = run_lu(cluster, n);
  const double wall = static_cast<double>(timer.elapsed_ns()) / 1e9;

  const std::vector<double> ref = lu_reference(n);
  bool ok = m.size() == ref.size();
  if (ok) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      // Same arithmetic in the same order, binary64 end to end: exact.
      if (m[i] != ref[i]) {
        ok = false;
        break;
      }
    }
  }
  return finish(cluster, std::move(r), wall, ok);
}

}  // namespace hdsm::work

#include "workloads/lu.hpp"

#include "tags/describe.hpp"

namespace hdsm::work {

namespace {

/// Row i is eliminated by thread (i % threads) — cyclic distribution keeps
/// every thread busy as the active window shrinks.
bool owns_row(std::uint32_t rank, std::uint32_t threads, std::uint32_t i) {
  return i % threads == rank;
}

template <typename Space>
void lu_compute(Space& space,
                const std::function<void(std::uint32_t)>& barrier,
                std::uint32_t n, std::uint32_t rank, std::uint32_t threads) {
  auto mv = space.template view<double>("M");
  std::vector<double> rowk(n);
  for (std::uint32_t k = 0; k + 1 < n; ++k) {
    // Row k is final after the previous step's barrier.
    for (std::uint32_t j = k; j < n; ++j) {
      rowk[j] = mv.get(static_cast<std::uint64_t>(k) * n + j);
    }
    for (std::uint32_t i = k + 1; i < n; ++i) {
      if (!owns_row(rank, threads, i)) continue;
      const std::uint64_t row_off = static_cast<std::uint64_t>(i) * n;
      const double l = mv.get(row_off + k) / rowk[k];
      mv.set(row_off + k, l);
      for (std::uint32_t j = k + 1; j < n; ++j) {
        mv.set(row_off + j, mv.get(row_off + j) - l * rowk[j]);
      }
    }
    barrier(0);
  }
}

}  // namespace

tags::TypePtr lu_gthv(std::uint32_t n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  return tags::describe_struct("GThV_lu_t")
      .pointer("GThP")
      .array<double>("M", nn)
      .field<int>("n")
      .build();
}

double lu_input(std::uint32_t n, std::uint32_t i, std::uint32_t j) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(i) * n + j) * 2654435761u % 1000;
  const double base = static_cast<double>(h) / 500.0 - 1.0;  // [-1, 1)
  return i == j ? base + 2.0 * n : base;  // diagonally dominant
}

std::vector<double> lu_reference(std::uint32_t n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  std::vector<double> m(nn);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      m[static_cast<std::uint64_t>(i) * n + j] = lu_input(n, i, j);
    }
  }
  for (std::uint32_t k = 0; k + 1 < n; ++k) {
    for (std::uint32_t i = k + 1; i < n; ++i) {
      const std::uint64_t row = static_cast<std::uint64_t>(i) * n;
      const std::uint64_t rk = static_cast<std::uint64_t>(k) * n;
      const double l = m[row + k] / m[rk + k];
      m[row + k] = l;
      for (std::uint32_t j = k + 1; j < n; ++j) {
        m[row + j] -= l * m[rk + j];
      }
    }
  }
  return m;
}

std::vector<double> run_lu(dsm::ShardedCluster& cluster, std::uint32_t n) {
  const std::uint32_t threads =
      static_cast<std::uint32_t>(cluster.remote_count()) + 1;
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;

  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.lock(0);
        auto mv = home.space().view<double>("M");
        for (std::uint32_t i = 0; i < n; ++i) {
          for (std::uint32_t j = 0; j < n; ++j) {
            mv.set(static_cast<std::uint64_t>(i) * n + j, lu_input(n, i, j));
          }
        }
        home.space().view<std::int32_t>("n").set(static_cast<std::int32_t>(n));
        home.unlock(0);
        home.barrier(0);  // initial matrix visible everywhere

        lu_compute(home.space(), [&](std::uint32_t b) { home.barrier(b); }, n,
                   0, threads);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        remote.barrier(0);  // pulls the full image incl. M
        lu_compute(remote.space(),
                   [&](std::uint32_t b) { remote.barrier(b); }, n,
                   remote.rank(), threads);
        remote.join();
      });

  std::vector<double> m(nn);
  auto mv = cluster.home().space().view<double>("M");
  for (std::uint64_t i = 0; i < nn; ++i) m[i] = mv.get(i);
  return m;
}

}  // namespace hdsm::work

#include "workloads/sor.hpp"

#include <functional>

#include "tags/describe.hpp"

namespace hdsm::work {

namespace {

/// Interior row band [begin, end) of thread `t` (rows 1..n).
void row_band(std::uint32_t n, std::uint32_t t, std::uint32_t threads,
              std::uint32_t& begin, std::uint32_t& end) {
  const std::uint32_t per = n / threads;
  const std::uint32_t extra = n % threads;
  begin = 1 + t * per + std::min(t, extra);
  end = begin + per + (t < extra ? 1 : 0);
}

/// One half-sweep over this thread's band: update cells whose (i + j)
/// parity equals `color`.
template <typename Grid>
void half_sweep(Grid&& g, std::uint32_t n, std::uint32_t row_begin,
                std::uint32_t row_end, std::uint32_t color, double omega) {
  const std::uint32_t stride = n + 2;
  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    for (std::uint32_t j = 1; j <= n; ++j) {
      if (((i + j) & 1u) != color) continue;
      const std::uint64_t c = static_cast<std::uint64_t>(i) * stride + j;
      const double neighbors =
          g.get(c - stride) + g.get(c + stride) + g.get(c - 1) + g.get(c + 1);
      g.set(c, g.get(c) + omega * (neighbors / 4.0 - g.get(c)));
    }
  }
}

}  // namespace

tags::TypePtr sor_gthv(std::uint32_t n) {
  const std::uint64_t cells =
      static_cast<std::uint64_t>(n + 2) * (n + 2);
  return tags::describe_struct("GThV_sor_t")
      .array<double>("grid", cells)
      .field<int>("n")
      .build();
}

double sor_initial(std::uint32_t n, std::uint32_t i, std::uint32_t j) {
  // Hot top edge, cold elsewhere on the boundary, zero interior.
  if (i == 0) return 100.0;
  if (i == n + 1 || j == 0 || j == n + 1) return 0.0;
  return 0.0;
}

std::vector<double> sor_reference(std::uint32_t n, std::uint32_t iters,
                                  double omega) {
  const std::uint32_t stride = n + 2;
  std::vector<double> grid(static_cast<std::uint64_t>(stride) * stride);
  for (std::uint32_t i = 0; i <= n + 1; ++i) {
    for (std::uint32_t j = 0; j <= n + 1; ++j) {
      grid[static_cast<std::uint64_t>(i) * stride + j] = sor_initial(n, i, j);
    }
  }
  struct Ref {
    std::vector<double>& g;
    double get(std::uint64_t k) const { return g[k]; }
    void set(std::uint64_t k, double v) { g[k] = v; }
  } ref{grid};
  for (std::uint32_t it = 0; it < iters; ++it) {
    half_sweep(ref, n, 1, n + 1, 0, omega);
    half_sweep(ref, n, 1, n + 1, 1, omega);
  }
  return grid;
}

std::vector<double> run_sor(dsm::ShardedCluster& cluster, std::uint32_t n,
                            std::uint32_t iters, double omega) {
  const std::uint32_t threads =
      static_cast<std::uint32_t>(cluster.remote_count()) + 1;
  const std::uint64_t cells = static_cast<std::uint64_t>(n + 2) * (n + 2);

  const auto worker = [&](auto& node, std::uint32_t rank,
                          const std::function<void(std::uint32_t)>& barrier) {
    auto grid = node.space().template view<double>("grid");
    std::uint32_t begin, end;
    row_band(n, rank, threads, begin, end);
    for (std::uint32_t it = 0; it < iters; ++it) {
      half_sweep(grid, n, begin, end, 0, omega);  // red
      barrier(0);
      half_sweep(grid, n, begin, end, 1, omega);  // black
      barrier(0);
    }
  };

  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.lock(0);
        auto grid = home.space().view<double>("grid");
        const std::uint32_t stride = n + 2;
        for (std::uint32_t i = 0; i <= n + 1; ++i) {
          for (std::uint32_t j = 0; j <= n + 1; ++j) {
            grid.set(static_cast<std::uint64_t>(i) * stride + j,
                     sor_initial(n, i, j));
          }
        }
        home.space().view<std::int32_t>("n").set(static_cast<std::int32_t>(n));
        home.unlock(0);
        home.barrier(0);
        worker(home, 0, [&](std::uint32_t b) { home.barrier(b); });
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        remote.barrier(0);
        worker(remote, remote.rank(),
               [&](std::uint32_t b) { remote.barrier(b); });
        remote.join();
      });

  std::vector<double> out(cells);
  auto grid = cluster.home().space().view<double>("grid");
  grid.get_range(0, cells, out.data());
  return out;
}

}  // namespace hdsm::work

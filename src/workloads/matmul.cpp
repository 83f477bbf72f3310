#include "workloads/matmul.hpp"

#include "tags/describe.hpp"

namespace hdsm::work {

namespace {

/// Row block [begin, end) of thread `t` out of `threads` over n rows.
void row_block(std::uint32_t n, std::uint32_t t, std::uint32_t threads,
               std::uint32_t& begin, std::uint32_t& end) {
  const std::uint32_t per = n / threads;
  const std::uint32_t extra = n % threads;
  begin = t * per + std::min(t, extra);
  end = begin + per + (t < extra ? 1 : 0);
}

/// Multiply the row block using any node's views.  Inputs are snapshotted
/// into host-representation buffers once (a single pass through the DSM
/// views); results are written back element by element through the C view,
/// which is what the write-trap layer detects and ships.
template <typename Space>
void compute_block(Space& space, std::uint32_t n, std::uint32_t row_begin,
                   std::uint32_t row_end) {
  auto av = space.template view<std::int32_t>("A");
  auto bv = space.template view<std::int32_t>("B");
  auto c = space.template view<std::int32_t>("C");
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  std::vector<std::int32_t> a(nn), b(nn);
  for (std::uint64_t i = 0; i < nn; ++i) {
    a[i] = av.get(i);
    b[i] = bv.get(i);
  }
  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        acc += static_cast<std::int64_t>(a[i * n + k]) *
               static_cast<std::int64_t>(b[k * n + j]);
      }
      c.set(i * n + j, static_cast<std::int32_t>(acc));
    }
  }
}

}  // namespace

tags::TypePtr matmul_gthv(std::uint32_t n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  return tags::describe_struct("GThV_t")
      .pointer("GThP")
      .array<int>("A", nn)
      .array<int>("B", nn)
      .array<int>("C", nn)
      .field<int>("n")
      .build();
}

std::int32_t matmul_a(std::uint32_t n, std::uint64_t i) {
  return static_cast<std::int32_t>((i * 2654435761u + n) % 97) - 48;
}

std::int32_t matmul_b(std::uint32_t n, std::uint64_t i) {
  return static_cast<std::int32_t>((i * 40503u + 7 * n) % 89) - 44;
}

std::vector<std::int32_t> matmul_reference(std::uint32_t n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  std::vector<std::int32_t> a(nn), b(nn), c(nn);
  for (std::uint64_t i = 0; i < nn; ++i) {
    a[i] = matmul_a(n, i);
    b[i] = matmul_b(n, i);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        acc += static_cast<std::int64_t>(a[i * n + k]) *
               static_cast<std::int64_t>(b[k * n + j]);
      }
      c[i * n + j] = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

std::vector<std::int32_t> run_matmul(dsm::ShardedCluster& cluster,
                                     std::uint32_t n) {
  const std::uint32_t threads =
      static_cast<std::uint32_t>(cluster.remote_count()) + 1;
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;

  cluster.run(
      // Master thread (rank 0, at the home node).
      [&](dsm::ShardedHome& home) {
        home.lock(0);
        auto a = home.space().view<std::int32_t>("A");
        auto b = home.space().view<std::int32_t>("B");
        for (std::uint64_t i = 0; i < nn; ++i) {
          a.set(i, matmul_a(n, i));
          b.set(i, matmul_b(n, i));
        }
        home.space().view<std::int32_t>("n").set(
            static_cast<std::int32_t>(n));
        home.unlock(0);
        home.barrier(0);  // inputs visible everywhere

        std::uint32_t begin, end;
        row_block(n, 0, threads, begin, end);
        compute_block(home.space(), n, begin, end);

        home.barrier(1);  // gather C at home
        home.wait_all_joined();
      },
      // Remote threads (ranks 1..).
      [&](dsm::ShardedRemote& remote) {
        remote.barrier(0);  // pulls the full image incl. A, B
        std::uint32_t begin, end;
        row_block(n, remote.rank(), threads, begin, end);
        compute_block(remote.space(), n, begin, end);
        remote.barrier(1);  // ships this thread's C block home
        remote.join();
      });

  std::vector<std::int32_t> c(nn);
  auto cv = cluster.home().space().view<std::int32_t>("C");
  for (std::uint64_t i = 0; i < nn; ++i) c[i] = cv.get(i);
  return c;
}

}  // namespace hdsm::work

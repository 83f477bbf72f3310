// End-to-end integration tests crossing module boundaries:
//   - the full DSD protocol over a real loopback TCP socket,
//   - MigThread migration composed with the DSD layer: a remote thread
//     yields mid-computation, its state crosses a (virtual) heterogeneity
//     boundary, and a skeleton on a different platform finishes the work,
//   - the adaptive scenario: a node joins mid-run and takes over work.
#include <gtest/gtest.h>

#include <thread>

#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "mig/roles.hpp"
#include "mig/runner.hpp"
#include "mig/thread_state.hpp"
#include "msg/tcp.hpp"
#include "test_util.hpp"
#include "workloads/experiment.hpp"

namespace dsm = hdsm::dsm;
namespace mig = hdsm::mig;
namespace msg = hdsm::msg;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;
namespace work = hdsm::work;
using tags::TypeDesc;

namespace {

tags::TypePtr counter_gthv() {
  return TypeDesc::struct_of(
      "G", {{"counters", TypeDesc::array(tags::t_int(), 32)},
            {"done", tags::t_int()}});
}

}  // namespace

TEST(Integration, DsdOverLoopbackTcp) {
  dsm::ShardedHome home(counter_gthv(), plat::solaris_sparc32());
  msg::TcpListener listener(0);

  std::thread remote_thread([port = listener.port()] {
    dsm::ShardedRemote remote(counter_gthv(), plat::linux_ia32(), 1,
                              msg::tcp_connect(port));
    remote.lock(0);
    auto c = remote.space().view<std::int32_t>("counters");
    for (int i = 0; i < 32; ++i) c.set(i, i * 3);
    remote.unlock(0);
    remote.barrier(0);
    remote.join();
  });

  home.attach_endpoint(1, listener.accept());
  home.start();
  home.barrier(0);
  remote_thread.join();
  home.wait_all_joined();

  auto c = home.space().view<std::int32_t>("counters");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c.get(i), i * 3);
  home.stop();
}

namespace {

tags::TypePtr worker_locals() {
  return TypeDesc::struct_of("worker_locals", {{"i", tags::t_int()},
                                               {"limit", tags::t_int()}});
}

// Increments shared counters [i, limit), one DSD lock round per element,
// with a migration point before each element.
mig::StepOutcome counting_body(mig::ThreadState& state,
                               const std::atomic<bool>& migrate,
                               dsm::ShardedRemote& dsd) {
  mig::Frame& f = state.top();
  std::int32_t i = f.locals.get<std::int32_t>("i");
  const std::int32_t limit = f.locals.get<std::int32_t>("limit");
  while (i < limit) {
    if (migrate.load(std::memory_order_relaxed)) {
      f.locals.set<std::int32_t>("i", i);
      f.label = 1;
      return mig::StepOutcome::MigrationPoint;
    }
    dsd.lock(0);
    auto c = dsd.space().view<std::int32_t>("counters");
    c.set(i, c.get(i) + 1000 + i);
    dsd.unlock(0);
    ++i;
  }
  f.locals.set<std::int32_t>("i", i);
  return mig::StepOutcome::Finished;
}

}  // namespace

TEST(Integration, ThreadMigratesBetweenHeterogeneousNodesMidWork) {
  // Home + two nodes: the thread starts on a little-endian IA-32 node,
  // migrates after 10 elements to a big-endian SPARC node (iso-computing:
  // same rank resumes there), and finishes.  All 32 shared counters must
  // end up written exactly once.
  dsm::ShardedHome home(counter_gthv(), plat::linux_ia32());
  home.start();

  mig::StateSchema schema;
  schema.register_frame("count", worker_locals());

  auto [mig_src, mig_dst] = msg::make_channel_pair();
  mig::RoleTracker roles(/*nodes=*/3, /*slots=*/2);
  // The worker was dispatched to node 1 at start-up (local -> stub at home,
  // skeleton -> remote at node 1).
  roles.migrate(1, 0, 1);
  std::atomic<bool> migrate{false};

  std::thread source_node([&] {
    // Closed on every exit path: when an ASSERT below returns before
    // send_state, the destination sees EOF instead of waiting forever.
    const hdsm::test::OnExit close_channel{[&] { mig_src->close(); }};
    dsm::ShardedRemote dsd(counter_gthv(), plat::linux_ia32(), 1,
                           home.attach(1));
    mig::ThreadState state;
    state.rank = 1;
    state.frames.push_back(mig::Frame{
        "count", 0, mig::StructImage(worker_locals(), plat::linux_ia32())});
    state.top().locals.set<std::int32_t>("i", 0);
    state.top().locals.set<std::int32_t>("limit", 32);

    const auto body = [&dsd](mig::ThreadState& s,
                             const std::atomic<bool>& m) {
      return counting_body(s, m, dsd);
    };
    std::atomic<bool> no{false};
    // Work a while, then honor the migration request.
    while (state.top().locals.get<std::int32_t>("i") < 10) {
      dsd.lock(0);
      auto c = dsd.space().view<std::int32_t>("counters");
      const std::int32_t i = state.top().locals.get<std::int32_t>("i");
      c.set(i, c.get(i) + 1000 + i);
      dsd.unlock(0);
      state.top().locals.set<std::int32_t>(
          "i", state.top().locals.get<std::int32_t>("i") + 1);
    }
    (void)no;
    migrate.store(true);
    const auto outcome = mig::run_until_yield(body, state, migrate);
    ASSERT_EQ(outcome, mig::StepOutcome::MigrationPoint);
    // Detach from the DSD (state ships separately), then send the state.
    dsd.join();
    roles.migrate(1, 1, 2);
    mig::send_state(*mig_src, state, plat::linux_ia32());
  });

  std::thread destination_node([&] {
    // The skeleton thread: receives the state on a big-endian platform,
    // re-attaches to the home node with the same rank, and finishes.
    mig::ThreadState state;
    try {
      state = mig::receive_state(*mig_dst, schema, plat::solaris_sparc32());
    } catch (const msg::ChannelClosed&) {
      ADD_FAILURE() << "the source node closed without shipping its state";
      return;
    }
    dsm::ShardedRemote dsd(counter_gthv(), plat::solaris_sparc32(),
                           state.rank, home.attach(state.rank));
    std::atomic<bool> never{false};
    const auto body = [&dsd](mig::ThreadState& s,
                             const std::atomic<bool>& m) {
      return counting_body(s, m, dsd);
    };
    EXPECT_EQ(mig::run_until_yield(body, state, never),
              mig::StepOutcome::Finished);
    EXPECT_EQ(state.top().locals.get<std::int32_t>("i"), 32);
    dsd.join();
  });

  source_node.join();
  destination_node.join();
  home.wait_all_joined();

  EXPECT_EQ(roles.role(1, 1), mig::ThreadRole::Skeleton);
  EXPECT_EQ(roles.role(2, 1), mig::ThreadRole::Remote);
  auto c = home.space().view<std::int32_t>("counters");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(c.get(i), 1000 + i) << "counter " << i;
  }
  home.stop();
}

TEST(Integration, AdaptiveLateJoinTakesOverWork) {
  // "Parallel computing jobs can be dispatched to newly added machines":
  // the master works alone, then a new node joins mid-run and computes the
  // second half.
  tags::TypePtr gthv = counter_gthv();
  dsm::ShardedHome home(gthv, plat::linux_ia32());
  home.start();

  home.lock(0);
  auto hc = home.space().view<std::int32_t>("counters");
  for (int i = 0; i < 16; ++i) hc.set(i, 5 * i);
  home.unlock(0);

  std::thread late_node([&] {
    dsm::ShardedRemote dsd(gthv, plat::solaris_sparc64(), 3, home.attach(3));
    dsd.lock(0);
    auto c = dsd.space().view<std::int32_t>("counters");
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(c.get(i), 5 * i);  // sees everything done before it joined
    }
    for (int i = 16; i < 32; ++i) c.set(i, 5 * i);
    dsd.unlock(0);
    dsd.join();
  });
  late_node.join();
  home.wait_all_joined();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(hc.get(i), 5 * i);
  home.stop();
}

TEST(Integration, MatmulOverMixedTransports) {
  // Rank 1 over TCP, rank 2 over an in-process channel, heterogeneous
  // platforms everywhere; the product must still be exact.
  const std::uint32_t n = 12;
  tags::TypePtr gthv = work::matmul_gthv(n);
  dsm::ShardedHome home(gthv, plat::solaris_sparc32());
  // Rank 2 attaches from its own thread, racing the master's first
  // barrier: fix both barrier counts (pthread_barrier_init semantics) so
  // membership cannot be inferred short.
  home.set_barrier_count(0, 3);
  home.set_barrier_count(1, 3);
  msg::TcpListener listener(0);

  std::thread tcp_remote([&, port = listener.port()] {
    dsm::ShardedRemote remote(gthv, plat::linux_ia32(), 1,
                              msg::tcp_connect(port));
    remote.barrier(0);
    auto a = remote.space().view<std::int32_t>("A");
    auto b = remote.space().view<std::int32_t>("B");
    auto c = remote.space().view<std::int32_t>("C");
    for (std::uint32_t i = 4; i < 8; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        std::int64_t acc = 0;
        for (std::uint32_t k = 0; k < n; ++k) {
          acc += static_cast<std::int64_t>(a.get(i * n + k)) * b.get(k * n + j);
        }
        c.set(i * n + j, static_cast<std::int32_t>(acc));
      }
    }
    remote.barrier(1);
    remote.join();
  });
  home.attach_endpoint(1, listener.accept());

  std::thread chan_remote([&] {
    dsm::ShardedRemote remote(gthv, plat::linux_x86_64(), 2, home.attach(2));
    remote.barrier(0);
    auto a = remote.space().view<std::int32_t>("A");
    auto b = remote.space().view<std::int32_t>("B");
    auto c = remote.space().view<std::int32_t>("C");
    for (std::uint32_t i = 8; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        std::int64_t acc = 0;
        for (std::uint32_t k = 0; k < n; ++k) {
          acc += static_cast<std::int64_t>(a.get(i * n + k)) * b.get(k * n + j);
        }
        c.set(i * n + j, static_cast<std::int32_t>(acc));
      }
    }
    remote.barrier(1);
    remote.join();
  });

  home.start();
  home.lock(0);
  auto a = home.space().view<std::int32_t>("A");
  auto b = home.space().view<std::int32_t>("B");
  for (std::uint32_t i = 0; i < n * n; ++i) {
    a.set(i, work::matmul_a(n, i));
    b.set(i, work::matmul_b(n, i));
  }
  home.unlock(0);
  home.barrier(0);
  auto c = home.space().view<std::int32_t>("C");
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        acc += static_cast<std::int64_t>(a.get(i * n + k)) * b.get(k * n + j);
      }
      c.set(i * n + j, static_cast<std::int32_t>(acc));
    }
  }
  home.barrier(1);
  tcp_remote.join();
  chan_remote.join();
  home.wait_all_joined();

  const auto ref = work::matmul_reference(n);
  for (std::uint32_t i = 0; i < n * n; ++i) {
    EXPECT_EQ(c.get(i), ref[i]) << "elem " << i;
  }
  home.stop();
}

// Fault injection through the cluster harnesses: every remote session runs
// behind a FaultyEndpoint installed by ShardedCluster's or ObjectCluster's
// wrap hook.  The acceptance bar is the same as the Reliability suite in
// fault_test.cpp — the master image converges to the fault-free
// expectation and the home's protocol trace validates — extended to what
// that suite does not cover: a forced codec through the cluster harness,
// primary/standby failover under faults, object mode, and session resets
// redialed through the reconnect hook.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "dsm/trace.hpp"
#include "msg/faulty.hpp"
#include "obj/object_dsm.hpp"
#include "replicated_harness.hpp"
#include "lock_workload.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
namespace obj = hdsm::obj;

using namespace std::chrono_literals;
using hdsm::test::expect_image;
using hdsm::test::expected_array;
using hdsm::test::fast_retry;
using hdsm::test::gthv;
using hdsm::test::kElems;
using hdsm::test::ops_of;
using hdsm::test::run_workload;

namespace {

/// Run `num_remotes` remotes with every session behind its own
/// deterministic FaultyEndpoint.  Converges, validates the trace.
void converge_cluster(const msg::FaultOptions& fault,
                      std::uint32_t num_remotes, int ops,
                      dsm::CodecMode codec) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.dsd.codec = codec;
  std::vector<const plat::PlatformDesc*> platforms(num_remotes,
                                                   &plat::linux_ia32());
  dsm::ShardedCluster cluster(
      gthv(), plat::linux_ia32(), platforms, opts,
      [&fault](std::uint32_t rank, std::uint32_t, msg::EndpointPtr ep) {
        msg::FaultOptions per_session = fault;
        per_session.seed = fault.seed + rank * 64;
        return msg::make_faulty(std::move(ep), per_session);
      },
      ropts);

  // A rank that dies (e.g. HomeUnreachable) fails the test with its rank
  // named.
  EXPECT_NO_THROW(cluster.run(
      [&](dsm::ShardedHome& home) {
        home.set_barrier_count(0, num_remotes + 1);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) { run_workload(remote, ops); }));

  expect_image(cluster.home().space(), expected_array(num_remotes, ops));
  hdsm::test::check_log(log, "home");
}

}  // namespace

TEST(ShardedFaults, ConvergesUnderCombinedFaultsWithCodecForced) {
  // Every update payload compressed, through the cluster harness: the
  // directory must retransmit, dedup, and apply compressed payloads
  // exactly like raw ones.
  msg::FaultOptions f;
  f.send.drop = 0.1;
  f.send.duplicate = 0.2;
  f.send.delay = 0.2;
  f.send.delay_ms = 1ms;
  f.recv.drop = 0.1;
  f.recv.duplicate = 0.2;
  converge_cluster(f, 2, 8, dsm::CodecMode::Forced);
}

// ---- failover under faults (docs/REPLICATION.md) ---------------------------
//
// The primary is killed mid-run with the fault layer active on every
// session, so the handover window sees dropped grants, duplicated
// retransmits, and reordered frames.  The harness validates the standby's
// trace end to end (the replayed prefix and the post-promotion suffix must
// form one coherent history) and asserts exactly-once application across
// the epoch bump.

TEST(ShardedFaults, FailoverHandoverUnderDrop) {
  msg::FaultOptions f;
  f.send.drop = 0.2;
  f.recv.drop = 0.2;
  hdsm::test::converge_replicated(&f, 2, 10, /*failover=*/true);
}

TEST(ShardedFaults, FailoverHandoverUnderDuplication) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;  // every frame twice, including across the bump
  f.recv.duplicate = 0.5;
  hdsm::test::converge_replicated(&f, 2, 10, /*failover=*/true);
}

TEST(ShardedFaults, FailoverHandoverUnderReorder) {
  msg::FaultOptions f;
  f.send.reorder = 0.3;
  f.send.reorder_window = 3;
  hdsm::test::converge_replicated(&f, 2, 10, /*failover=*/true);
}

TEST(ShardedFaults, FailoverHandoverUnderCombinedFaultsAndReset) {
  // Sessions also die of their own accord (reset) before and after the
  // failover, so redials exercise both the resume path at the promoted
  // standby and the re-attach path at whichever home is serving.
  msg::FaultOptions f;
  f.seed = 23;
  f.send.drop = 0.1;
  f.send.duplicate = 0.2;
  f.recv.drop = 0.1;
  f.send.reset_after = 40;
  hdsm::test::converge_replicated(&f, 2, 10, /*failover=*/true);
}

// ---- object-granularity fault schedules (docs/OBJECTS.md) ------------------
//
// The same fault matrix replayed against an ObjectCluster: the unit of
// coherence is an object, episodes ship dirty-object runs with no page
// machinery armed, and the acceptance bar is unchanged — the master image
// converges to the fault-free replay, the trace validates, and no
// (rank, request) pair is applied twice.  Strict entry consistency must
// survive the faults too: zero page faults diffed, every shipped byte
// attributed to an object episode.

namespace {

obj::ObjectLayoutPtr obj_layout() {
  obj::ObjectLayoutConfig lc;
  lc.num_regions = 8;
  lc.classes.push_back({"O", tags::t_longlong(), 1, kElems});
  return std::make_shared<const obj::ObjectLayout>(std::move(lc));
}

/// Object-mode twin of converge_cluster: the same per-rank op streams, but
/// each op locks the mutex guarding its object's hashed region instead of
/// one global mutex, so the schedule exercises cross-region interleavings
/// the page harness never sees.
void converge_objects(const msg::FaultOptions& fault,
                      std::uint32_t num_remotes, int ops) {
  obj::ObjectLayoutPtr layout = obj_layout();
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  std::vector<const plat::PlatformDesc*> platforms(num_remotes,
                                                   &plat::linux_ia32());
  obj::ObjectCluster cluster(
      layout, plat::linux_ia32(), platforms, opts,
      [&fault](std::uint32_t rank, std::uint32_t, msg::EndpointPtr ep) {
        msg::FaultOptions per_session = fault;
        per_session.seed = fault.seed + rank * 64;
        return msg::make_faulty(std::move(ep), per_session);
      },
      ropts);

  EXPECT_NO_THROW(cluster.run(
      [&](obj::ObjectHome& home) {
        home.node().set_barrier_count(0, num_remotes + 1);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](obj::ObjectRemote& remote) {
        auto acc = remote.accessor<std::int64_t>(0);
        for (const auto& [idx, delta] : ops_of(remote.rank(), ops)) {
          const std::uint32_t region = layout->region_of(0, idx);
          remote.lock(region);
          acc.set(idx, acc.get(idx) + delta);
          remote.unlock(region);
        }
        remote.barrier(0);
        remote.join();
      }));

  const std::vector<std::int64_t> expected = expected_array(num_remotes, ops);
  auto acc = cluster.home().accessor<std::int64_t>(0);
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(acc.get(i), expected[i]) << "object " << i;
  }
  hdsm::test::check_log(log, "home");

  // Strict entry consistency held through the faults: the page machinery
  // never fired, and everything shipped was an object episode.
  const dsm::ShareStats stats = cluster.total_stats();
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_GT(stats.object_episodes, 0u);
  EXPECT_GE(stats.objects_shipped, stats.object_episodes);
}

}  // namespace

TEST(ObjectFaults, ConvergesUnderDrop) {
  msg::FaultOptions f;
  f.send.drop = 0.2;
  f.recv.drop = 0.2;
  converge_objects(f, 2, 10);
}

TEST(ObjectFaults, ConvergesUnderDuplication) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;  // every frame sent twice, on every session
  f.recv.duplicate = 0.5;
  converge_objects(f, 2, 10);
}

TEST(ObjectFaults, ConvergesUnderReorder) {
  msg::FaultOptions f;
  f.send.reorder = 0.3;
  f.send.reorder_window = 3;
  converge_objects(f, 2, 10);
}

TEST(ObjectFaults, ConvergesUnderCombinedFaults) {
  msg::FaultOptions f;
  f.seed = 31;
  f.send.drop = 0.15;
  f.send.duplicate = 0.25;
  f.recv.drop = 0.15;
  converge_objects(f, 2, 10);
}

TEST(ObjectFaults, SessionResetRecoversThroughReconnect) {
  // The object-mode twin of the page-mode reset test below: the session
  // dies mid-run, the remote re-dials through its reconnect hook, and the
  // dirty-object pipeline resumes with the dedup horizon intact.
  obj::ObjectLayoutPtr layout = obj_layout();
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  obj::ObjectHome home(layout, plat::linux_ia32(), opts);

  const std::uint64_t idx = 0;
  const std::uint32_t region = layout->region_of(0, idx);

  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.reconnect = [&home] {
    auto [home_side, remote_side] = msg::make_channel_pair();
    home.node().attach_endpoint(1, std::move(home_side));
    return std::move(remote_side);
  };
  msg::FaultOptions f;
  f.send.reset_after = 9;  // dies partway through the workload
  obj::ObjectRemote remote(layout, plat::linux_ia32(), 1,
                           msg::make_faulty(home.node().attach(1), f), ropts);
  home.node().start();

  constexpr int kOps = 12;
  auto acc = remote.accessor<std::int64_t>(0);
  for (int i = 0; i < kOps; ++i) {
    remote.lock(region);
    acc.set(idx, acc.get(idx) + 1);
    remote.unlock(region);
  }
  remote.join();
  home.wait_all_joined();

  EXPECT_EQ(remote.node().stats().reconnects, 1u);
  EXPECT_EQ(home.accessor<std::int64_t>(0).get(idx), kOps);
  hdsm::test::check_log(log, "home");
  EXPECT_EQ(home.node().stats().dirty_pages, 0u);
  home.node().stop();
}

TEST(ShardedFaults, SessionResetRecoversThroughReconnect) {
  // The session's transport dies mid-run; the remote re-dials through its
  // reconnect hook (the resume Hello preserves the dedup horizon) and the
  // run still converges.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);

  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.reconnect = [&home] {
    auto [home_side, remote_side] = msg::make_channel_pair();
    home.attach_endpoint(1, std::move(home_side));
    return std::move(remote_side);
  };
  msg::FaultOptions f;
  f.send.reset_after = 9;  // dies partway through the workload
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1,
                            msg::make_faulty(home.attach(1), f), ropts);
  home.start();

  constexpr int kOps = 12;
  for (int i = 0; i < kOps; ++i) {
    remote.lock(0);
    auto a = remote.space().view<std::int64_t>("A");
    a.set(0, a.get(0) + 1);
    remote.unlock(0);
  }
  remote.join();
  home.wait_all_joined();

  EXPECT_EQ(remote.stats().reconnects, 1u);
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), kOps);
  hdsm::test::check_log(log, "home");
  home.stop();
}

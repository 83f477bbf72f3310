// Tests for the DSD core: typed views over virtual-platform images, update
// block codec, the sync engine (diff -> index -> tag -> pack / unpack ->
// convert -> apply), and the full home/remote lock-unlock-barrier-join
// protocol in homogeneous and heterogeneous configurations.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dsm/global_space.hpp"
#include "dsm/mth.hpp"
#include "dsm/rehome.hpp"
#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/update.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
using tags::TypeDesc;

namespace {

tags::TypePtr small_gthv(std::uint64_t n = 64) {
  return TypeDesc::struct_of("G", {{"GThP", TypeDesc::pointer()},
                                   {"A", TypeDesc::array(tags::t_int(), n)},
                                   {"D", TypeDesc::array(tags::t_double(), 8)},
                                   {"n", tags::t_int()}});
}

}  // namespace

// ---- GlobalSpace and views ---------------------------------------------------

TEST(GlobalSpace, ImageTagMatchesPlatform) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  EXPECT_EQ(g.image_tag_text(),
            "(4,-1)(0,0)(4,64)(0,0)(8,8)(0,0)(4,1)(0,0)");
  dsm::GlobalSpace s(small_gthv(), plat::solaris_sparc64());
  EXPECT_EQ(s.image_tag_text(),
            "(8,-1)(0,0)(4,64)(0,0)(8,8)(0,0)(4,1)(4,0)");
}

TEST(GlobalSpace, ViewsRoundTripOnNativePlatform) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  auto a = g.view<std::int32_t>("A");
  a.set(0, 42);
  a.set(63, -7);
  EXPECT_EQ(a.get(0), 42);
  EXPECT_EQ(a.get(63), -7);
  auto d = g.view<double>("D");
  d.set(3, 2.5);
  EXPECT_EQ(d.get(3), 2.5);
  auto n = g.view<std::int32_t>("n");
  n.set(64);
  EXPECT_EQ(n.get(), 64);
}

TEST(GlobalSpace, ViewsStoreForeignRepresentation) {
  dsm::GlobalSpace g(small_gthv(), plat::solaris_sparc32());
  auto a = g.view<std::int32_t>("A");
  a.set(0, 0x01020304);
  // The region holds big-endian bytes.
  const std::byte* base =
      g.region().data() + g.table().rows()[g.table().row_of_field("A")].offset;
  EXPECT_EQ(std::to_integer<int>(base[0]), 1);
  EXPECT_EQ(std::to_integer<int>(base[3]), 4);
  EXPECT_EQ(a.get(0), 0x01020304);
  auto d = g.view<double>("D");
  d.set(0, -0.5);
  EXPECT_EQ(d.get(0), -0.5);
}

TEST(GlobalSpace, ViewBoundsChecked) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  auto a = g.view<std::int32_t>("A");
  EXPECT_EQ(a.size(), 64u);
  EXPECT_THROW(a.get(64), std::out_of_range);
  EXPECT_THROW(a.set(64, 1), std::out_of_range);
  EXPECT_THROW(g.view<std::int32_t>("nope"), std::out_of_range);
}

TEST(GlobalSpace, PointerFieldHoldsToken) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  auto p = g.view<std::uint64_t>("GThP");
  p.set(0xabcd);
  EXPECT_EQ(p.get(), 0xabcdu);
}

// ---- update blocks ------------------------------------------------------------

TEST(UpdateBlocks, CodecRoundTrip) {
  std::vector<dsm::UpdateBlock> blocks(2);
  blocks[0].row = 2;
  blocks[0].first_elem = 17;
  blocks[0].tag = "(4,100)";
  blocks[0].data.assign(400, std::byte{9});
  blocks[1].row = 8;
  blocks[1].first_elem = 0;
  blocks[1].tag = "(8,-1)";
  blocks[1].data.assign(8, std::byte{1});
  const std::vector<std::byte> payload = dsm::encode_update_blocks(blocks);
  const std::vector<dsm::UpdateBlock> back =
      dsm::decode_update_blocks(payload);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].row, 2u);
  EXPECT_EQ(back[0].first_elem, 17u);
  EXPECT_EQ(back[0].tag, "(4,100)");
  EXPECT_EQ(back[0].data, blocks[0].data);
  EXPECT_EQ(back[1].tag, "(8,-1)");
}

TEST(UpdateBlocks, EmptyPayload) {
  const auto payload = dsm::encode_update_blocks({});
  EXPECT_TRUE(dsm::decode_update_blocks(payload).empty());
}

TEST(UpdateBlocks, TruncationDetected) {
  std::vector<dsm::UpdateBlock> blocks(1);
  blocks[0].tag = "(4,1)";
  blocks[0].data.assign(4, std::byte{0});
  std::vector<std::byte> payload = dsm::encode_update_blocks(blocks);
  payload.pop_back();
  EXPECT_THROW(dsm::decode_update_blocks(payload), std::runtime_error);
  payload.push_back(std::byte{0});
  payload.push_back(std::byte{0});
  EXPECT_THROW(dsm::decode_update_blocks(payload), std::runtime_error);
}

// ---- sync engine ----------------------------------------------------------------

TEST(SyncEngine, CollectsExactlyTheWrites) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
  g.region().begin_tracking();
  auto a = g.view<std::int32_t>("A");
  a.set(3, 33);
  a.set(4, 44);
  a.set(10, 100);
  const auto runs = engine.collect_runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first_elem, 3u);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_EQ(runs[1].first_elem, 10u);
  EXPECT_EQ(runs[1].count, 1u);
  EXPECT_GT(stats.index_ns, 0u);
  g.region().end_tracking();
}

TEST(SyncEngine, TrackingCallsAreIdempotent) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);
  engine.start_tracking();
  auto a = g.view<std::int32_t>("A");
  a.set(7, 77);
  // A second begin must not restart the interval (and lose the write).
  engine.start_tracking();
  EXPECT_TRUE(g.region().tracking());
  const auto runs = engine.collect_runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_elem, 7u);
  engine.stop_tracking();
  engine.stop_tracking();
  EXPECT_FALSE(g.region().tracking());
}

TEST(SyncEngine, PackThenApplyHeterogeneous) {
  // Sender: big-endian SPARC image; receiver: little-endian IA-32 image.
  dsm::GlobalSpace sender(small_gthv(), plat::solaris_sparc32());
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats ss, rs;
  dsm::SyncEngine se(sender, {}, ss), re(receiver, {}, rs);

  sender.region().begin_tracking();
  auto a = sender.view<std::int32_t>("A");
  for (int i = 5; i < 15; ++i) a.set(i, i * 1000 - 7);
  auto d = sender.view<double>("D");
  d.set(2, 6.25);
  const auto payload = se.pack_payload(se.collect_runs());
  sender.region().end_tracking();
  const auto blocks = dsm::decode_update_blocks(payload);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].tag, "(4,10)");

  re.apply_payload(payload,
                   msg::PlatformSummary::of(plat::solaris_sparc32()));
  auto ra = receiver.view<std::int32_t>("A");
  for (int i = 5; i < 15; ++i) EXPECT_EQ(ra.get(i), i * 1000 - 7);
  EXPECT_EQ(receiver.view<double>("D").get(2), 6.25);
  EXPECT_GT(rs.conv_ns, 0u);
  EXPECT_GT(rs.unpack_ns, 0u);
  EXPECT_EQ(rs.updates_received, 2u);
}

TEST(SyncEngine, MalformedBlocksRejected) {
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine re(receiver, {}, rs);
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());

  dsm::UpdateBlock b;
  b.row = 999;  // out of range
  b.tag = "(4,1)";
  b.data.assign(4, std::byte{0});
  EXPECT_THROW(re.apply_payload(dsm::encode_update_blocks({b}), summary),
               std::runtime_error);

  b.row = 1;  // padding row
  EXPECT_THROW(re.apply_payload(dsm::encode_update_blocks({b}), summary),
               std::runtime_error);

  b.row = 2;
  b.first_elem = 63;
  b.tag = "(4,2)";  // overruns the row
  b.data.assign(8, std::byte{0});
  EXPECT_THROW(re.apply_payload(dsm::encode_update_blocks({b}), summary),
               std::runtime_error);

  b.first_elem = 0;
  b.tag = "(4,2)";
  b.data.assign(4, std::byte{0});  // length disagrees with tag
  EXPECT_THROW(re.apply_payload(dsm::encode_update_blocks({b}), summary),
               std::runtime_error);

  b.tag = "(4,-2)";  // pointer tag for an int row
  b.data.assign(8, std::byte{0});
  EXPECT_THROW(re.apply_payload(dsm::encode_update_blocks({b}), summary),
               std::runtime_error);
}

TEST(SyncEngine, MergeRuns) {
  std::vector<hdsm::idx::UpdateRun> into = {{2, 0, 5}, {4, 10, 5}};
  hdsm::dsm::merge_runs(into, {{2, 3, 4}, {4, 0, 2}, {6, 1, 1}});
  ASSERT_EQ(into.size(), 4u);
  EXPECT_EQ(into[0].row, 2u);
  EXPECT_EQ(into[0].first_elem, 0u);
  EXPECT_EQ(into[0].count, 7u);
  EXPECT_EQ(into[1].row, 4u);
  EXPECT_EQ(into[1].count, 2u);
  EXPECT_EQ(into[2].row, 4u);
  EXPECT_EQ(into[2].first_elem, 10u);
  EXPECT_EQ(into[3].row, 6u);
}

TEST(SyncEngine, FullImageRuns) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  const auto runs = dsm::SyncEngine::full_image_runs(g.table());
  ASSERT_EQ(runs.size(), 4u);  // GThP, A, D, n
  EXPECT_EQ(runs[1].count, 64u);
}

// ---- home/remote protocol --------------------------------------------------------

class DsdProtocol : public ::testing::TestWithParam<const plat::PlatformDesc*> {
};

TEST_P(DsdProtocol, LockTransfersUpdatesBothWays) {
  const plat::PlatformDesc& remote_platform = *GetParam();
  dsm::ShardedHome home(small_gthv(), plat::solaris_sparc32());
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), remote_platform, 1, std::move(ep));
  home.start();

  // Master writes under the lock.
  home.lock(0);
  home.space().view<std::int32_t>("A").set(7, 777);
  home.space().view<double>("D").set(1, -1.25);
  home.unlock(0);

  // Remote acquires: sees the master's writes (plus initial image).
  remote.lock(0);
  EXPECT_EQ(remote.space().view<std::int32_t>("A").get(7), 777);
  EXPECT_EQ(remote.space().view<double>("D").get(1), -1.25);
  remote.space().view<std::int32_t>("A").set(9, 999);
  remote.unlock(0);

  // Master reacquires: the remote's write is in the master image.
  home.lock(0);
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(9), 999);
  home.unlock(0);

  remote.join();
  home.wait_all_joined();
  EXPECT_GT(remote.stats().locks, 0u);
  home.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, DsdProtocol,
    ::testing::Values(&plat::solaris_sparc32(),  // homogeneous
                      &plat::linux_ia32(),       // endianness differs
                      &plat::linux_x86_64()));   // endianness + widths differ

TEST(DsdProtocolMisc, MutualExclusionAcrossThreads) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  msg::EndpointPtr e1 = home.attach(1);
  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r1(small_gthv(), plat::linux_ia32(), 1, std::move(e1));
  dsm::ShardedRemote r2(small_gthv(), plat::solaris_sparc32(), 2,
                        std::move(e2));
  home.start();

  constexpr int kIters = 50;
  const auto worker = [kIters](dsm::ShardedRemote& r) {
    for (int i = 0; i < kIters; ++i) {
      r.lock(0);
      auto n = r.space().view<std::int32_t>("n");
      n.set(n.get() + 1);
      r.unlock(0);
    }
    r.join();
  };
  std::thread t1([&] { worker(r1); });
  std::thread t2([&] { worker(r2); });
  for (int i = 0; i < kIters; ++i) {
    home.lock(0);
    auto n = home.space().view<std::int32_t>("n");
    n.set(n.get() + 1);
    home.unlock(0);
  }
  t1.join();
  t2.join();
  home.wait_all_joined();
  home.lock(0);
  EXPECT_EQ(home.space().view<std::int32_t>("n").get(), 3 * kIters);
  home.unlock(0);
  home.stop();
}

TEST(DsdProtocolMisc, BarrierPropagatesAllUpdates) {
  dsm::ShardedHome home(small_gthv(), plat::solaris_sparc32());
  msg::EndpointPtr e1 = home.attach(1);
  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r1(small_gthv(), plat::linux_ia32(), 1, std::move(e1));
  dsm::ShardedRemote r2(small_gthv(), plat::linux_ia32(), 2, std::move(e2));
  home.start();

  std::thread t1([&] {
    r1.space().view<std::int32_t>("A").set(1, 100);
    r1.barrier(0);
    EXPECT_EQ(r1.space().view<std::int32_t>("A").get(0), 10);
    EXPECT_EQ(r1.space().view<std::int32_t>("A").get(2), 200);
    r1.join();
  });
  std::thread t2([&] {
    r2.space().view<std::int32_t>("A").set(2, 200);
    r2.barrier(0);
    EXPECT_EQ(r2.space().view<std::int32_t>("A").get(0), 10);
    EXPECT_EQ(r2.space().view<std::int32_t>("A").get(1), 100);
    r2.join();
  });
  home.space().view<std::int32_t>("A").set(0, 10);
  home.barrier(0);
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(1), 100);
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(2), 200);
  t1.join();
  t2.join();
  home.wait_all_joined();
  home.stop();
}

TEST(DsdProtocolMisc, JoinShipsFinalWrites) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::solaris_sparc32(), 1,
                            std::move(ep));
  home.start();
  std::thread t([&] {
    remote.lock(0);
    remote.space().view<std::int32_t>("A").set(5, 55);
    remote.unlock(0);
    remote.space().view<std::int32_t>("A").set(6, 66);  // outside any lock
    remote.join();  // join ships it anyway
  });
  t.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(5), 55);
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(6), 66);
  home.stop();
}

TEST(DsdProtocolMisc, JoinThenDestructionEndsTrackingOnce) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  EXPECT_FALSE(home.space().region().tracking());  // armed by start()
  {
    dsm::ShardedRemote remote(small_gthv(), plat::solaris_sparc32(), 1,
                              home.attach(1));
    EXPECT_TRUE(remote.space().region().tracking());
    home.start();
    EXPECT_TRUE(home.space().region().tracking());
    remote.space().view<std::int32_t>("A").set(9, 99);
    remote.join();
    EXPECT_FALSE(remote.space().region().tracking());
    // The destructor ends tracking again: a no-op after join().
  }
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(9), 99);
  home.stop();
  EXPECT_FALSE(home.space().region().tracking());
  home.stop();
}

TEST(DsdProtocolMisc, LateAttachPullsFullImage) {
  // The adaptive scenario: a node joins after computation started.
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  home.start();
  home.lock(0);
  home.space().view<std::int32_t>("A").set(0, 123);
  home.space().view<std::int32_t>("n").set(64);
  home.unlock(0);

  msg::EndpointPtr ep = home.attach(5);
  dsm::ShardedRemote late(small_gthv(), plat::solaris_sparc64(), 5,
                          std::move(ep));
  late.lock(0);
  EXPECT_EQ(late.space().view<std::int32_t>("A").get(0), 123);
  EXPECT_EQ(late.space().view<std::int32_t>("n").get(), 64);
  late.unlock(0);
  late.join();
  home.wait_all_joined();
  home.stop();
}

TEST(DsdProtocolMisc, StatsAccumulatePerEq1Buckets) {
  dsm::ShardedHome home(small_gthv(), plat::solaris_sparc32());
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep));
  home.start();
  remote.lock(0);
  for (int i = 0; i < 64; ++i) {
    remote.space().view<std::int32_t>("A").set(i, i);
  }
  remote.unlock(0);
  remote.join();
  home.wait_all_joined();

  const dsm::ShareStats rs = remote.stats();
  EXPECT_GT(rs.index_ns, 0u);
  EXPECT_GT(rs.tag_ns, 0u);
  EXPECT_GT(rs.pack_ns, 0u);
  EXPECT_GT(rs.unpack_ns, 0u);  // from the grant
  EXPECT_GT(rs.conv_ns, 0u);
  EXPECT_EQ(rs.share_ns(), rs.index_ns + rs.tag_ns + rs.pack_ns +
                               rs.unpack_ns + rs.conv_ns);
  const dsm::ShareStats hs = home.stats();
  EXPECT_GT(hs.tag_ns, 0u);     // grant packing
  EXPECT_GT(hs.conv_ns, 0u);    // applying the remote's updates
  EXPECT_GT(hs.updates_received, 0u);
  home.stop();
}

TEST(DsdProtocolMisc, ClusterRunsAndAggregatesStats) {
  dsm::ShardedCluster cluster(small_gthv(), plat::solaris_sparc32(),
                              {&plat::linux_ia32(), &plat::linux_ia32()});
  cluster.run(
      [](dsm::ShardedHome& home) {
        home.lock(0);
        home.space().view<std::int32_t>("A").set(0, 1);
        home.unlock(0);
        home.barrier(0);
        home.wait_all_joined();
      },
      [](dsm::ShardedRemote& remote) {
        remote.barrier(0);
        EXPECT_EQ(remote.space().view<std::int32_t>("A").get(0), 1);
        remote.join();
      });
  const dsm::ShareStats total = cluster.total_stats();
  EXPECT_GT(total.updates_sent, 0u);
  EXPECT_EQ(cluster.remote_count(), 2u);
}

// ---- views: bulk accessors ---------------------------------------------------

TEST(GlobalSpace, BulkRangeAccessNativeAndForeign) {
  for (const plat::PlatformDesc* p :
       {&plat::linux_ia32(), &plat::solaris_sparc32()}) {
    dsm::GlobalSpace g(small_gthv(), *p);
    auto a = g.view<std::int32_t>("A");
    std::vector<std::int32_t> in(64);
    for (int i = 0; i < 64; ++i) in[i] = i * i - 7;
    a.assign(in);
    EXPECT_EQ(a.to_vector(), in) << p->name;

    std::int32_t window[8];
    a.get_range(10, 8, window);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(window[i], in[10 + i]);

    const std::int32_t patch[3] = {-1, -2, -3};
    a.set_range(20, 3, patch);
    EXPECT_EQ(a.get(20), -1);
    EXPECT_EQ(a.get(22), -3);
    EXPECT_EQ(a.get(23), in[23]);
  }
}

TEST(GlobalSpace, BulkRangeBoundsChecked) {
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  auto a = g.view<std::int32_t>("A");
  std::int32_t buf[4];
  EXPECT_THROW(a.get_range(62, 4, buf), std::out_of_range);
  EXPECT_THROW(a.set_range(64, 1, buf), std::out_of_range);
  EXPECT_THROW(a.assign(std::vector<std::int32_t>(3)),
               std::invalid_argument);
}

// ---- the paper-literal MTh_* facade --------------------------------------------

TEST(MthApi, PaperSignaturesDriveTheProtocol) {
  dsm::MthRegistry::reset();
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  dsm::ShardedRemote remote(small_gthv(), plat::solaris_sparc32(), 1,
                            home.attach(1));
  home.start();
  dsm::MthRegistry::register_master(home);
  dsm::MthRegistry::register_remote(remote);
  ASSERT_TRUE(dsm::MthRegistry::registered(0));
  ASSERT_TRUE(dsm::MthRegistry::registered(1));

  std::thread worker([&] {
    dsm::MTh_lock(0, 1);
    remote.space().view<std::int32_t>("A").set(2, 22);
    dsm::MTh_unlock(0, 1);
    dsm::MTh_barrier(0, 1);
    dsm::MTh_join(1);
  });
  dsm::MTh_lock(0, 0);
  home.space().view<std::int32_t>("A").set(1, 11);
  dsm::MTh_unlock(0, 0);
  dsm::MTh_barrier(0, 0);
  dsm::MTh_join(0);  // master side: waits for all remotes
  worker.join();

  EXPECT_EQ(home.space().view<std::int32_t>("A").get(1), 11);
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(2), 22);
  EXPECT_FALSE(dsm::MthRegistry::registered(1));
  dsm::MthRegistry::reset();
  home.stop();
}

TEST(MthApi, UnknownRankRejected) {
  dsm::MthRegistry::reset();
  EXPECT_THROW(dsm::MTh_lock(0, 42), std::out_of_range);
}

// ---- entry consistency (lock-data binding) --------------------------------------

TEST(EntryConsistency, BoundLockShipsOnlyItsFields) {
  // A: guarded by mutex 1; D: guarded by mutex 2.  Acquiring mutex 1 must
  // deliver pending A updates but leave D updates pending until mutex 2
  // (or a barrier) is acquired.
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  home.bind_lock(1, "A");
  home.bind_lock(2, "D");
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::solaris_sparc32(), 1,
                            std::move(ep));
  home.start();

  home.lock(0);
  home.space().view<std::int32_t>("A").set(0, 111);
  home.space().view<double>("D").set(0, 2.5);
  home.unlock(0);

  remote.lock(1);  // bound to A
  EXPECT_EQ(remote.space().view<std::int32_t>("A").get(0), 111);
  EXPECT_EQ(remote.space().view<double>("D").get(0), 0.0);  // still pending
  remote.unlock(1);

  remote.lock(2);  // bound to D — now it arrives
  EXPECT_EQ(remote.space().view<double>("D").get(0), 2.5);
  remote.unlock(2);
  remote.join();
  home.wait_all_joined();
  home.stop();
}

TEST(EntryConsistency, BarrierStillShipsEverything) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  home.bind_lock(1, "A");
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep));
  home.start();
  home.lock(0);
  home.space().view<std::int32_t>("A").set(1, 7);
  home.space().view<double>("D").set(1, 7.5);
  home.unlock(0);

  std::thread t([&] {
    remote.barrier(0);  // release consistency path: full pending set
    EXPECT_EQ(remote.space().view<std::int32_t>("A").get(1), 7);
    EXPECT_EQ(remote.space().view<double>("D").get(1), 7.5);
    remote.join();
  });
  home.barrier(0);
  t.join();
  home.wait_all_joined();
  home.stop();
}

TEST(EntryConsistency, FineGrainedLockingStaysCorrect) {
  // Two remotes each hammer their own guarded array under their own
  // mutex; a final barrier syncs the world.
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  home.bind_lock(1, "A");
  home.bind_lock(2, "D");
  msg::EndpointPtr e1 = home.attach(1);
  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r1(small_gthv(), plat::solaris_sparc32(), 1,
                        std::move(e1));
  dsm::ShardedRemote r2(small_gthv(), plat::linux_x86_64(), 2, std::move(e2));
  home.start();

  std::thread t1([&] {
    for (int i = 0; i < 20; ++i) {
      r1.lock(1);
      auto a = r1.space().view<std::int32_t>("A");
      a.set(i % 8, a.get(i % 8) + 1);
      r1.unlock(1);
    }
    r1.barrier(0);
    r1.join();
  });
  std::thread t2([&] {
    for (int i = 0; i < 20; ++i) {
      r2.lock(2);
      auto d = r2.space().view<double>("D");
      d.set(i % 4, d.get(i % 4) + 0.5);
      r2.unlock(2);
    }
    r2.barrier(0);
    r2.join();
  });
  home.barrier(0);
  t1.join();
  t2.join();
  home.wait_all_joined();

  auto a = home.space().view<std::int32_t>("A");
  std::int32_t a_total = 0;
  for (int i = 0; i < 8; ++i) a_total += a.get(i);
  EXPECT_EQ(a_total, 20);
  auto d = home.space().view<double>("D");
  double d_total = 0;
  for (int i = 0; i < 4; ++i) d_total += d.get(i);
  EXPECT_EQ(d_total, 10.0);
  home.stop();
}

TEST(EntryConsistency, BadBindRejected) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  EXPECT_THROW(home.bind_lock(999, "A"), std::out_of_range);
  EXPECT_THROW(home.bind_lock(1, "nope"), std::out_of_range);
}

TEST(Rehome, MasterImageConvertsToNewPlatform) {
  dsm::ShardedHome old_home(small_gthv(), plat::linux_ia32());
  old_home.start();
  old_home.lock(0);
  old_home.space().view<std::int32_t>("A").set(3, -12345);
  old_home.space().view<double>("D").set(5, 7.125);
  old_home.unlock(0);
  ASSERT_TRUE(old_home.quiesced());

  auto new_home = hdsm::dsm::rehome(old_home, plat::solaris_sparc64());
  EXPECT_EQ(new_home->space().platform().name, "solaris-sparc64");
  EXPECT_EQ(new_home->space().view<std::int32_t>("A").get(3), -12345);
  EXPECT_EQ(new_home->space().view<double>("D").get(5), 7.125);

  // The new home is fully operational: a remote attaches and syncs.
  msg::EndpointPtr ep = new_home->attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep));
  remote.lock(0);
  EXPECT_EQ(remote.space().view<std::int32_t>("A").get(3), -12345);
  remote.space().view<std::int32_t>("A").set(4, 44);
  remote.unlock(0);
  remote.join();
  new_home->wait_all_joined();
  EXPECT_EQ(new_home->space().view<std::int32_t>("A").get(4), 44);
  new_home->stop();
}

TEST(Rehome, RefusesWhileRemotesAttached) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep));
  home.start();
  EXPECT_FALSE(home.quiesced());
  EXPECT_THROW(hdsm::dsm::rehome(home, plat::solaris_sparc32()),
               std::logic_error);
  remote.join();
  home.wait_all_joined();
  EXPECT_TRUE(home.quiesced());
  home.stop();
}

TEST(Rehome, RefusesWhileMasterHoldsLock) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  home.start();
  home.lock(0);
  EXPECT_FALSE(home.quiesced());
  EXPECT_THROW(hdsm::dsm::rehome(home, plat::solaris_sparc32()),
               std::logic_error);
  home.unlock(0);
  EXPECT_TRUE(home.quiesced());
  home.stop();
}

TEST(DsdProtocolMisc, MidEpisodeJoinerNeitherBlocksNorReceivesRelease) {
  // r1 enters a barrier episode; r2 attaches while the episode is open;
  // the episode must complete with just {master, r1}, and r2 must not be
  // handed a BarrierRelease it never asked for.
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  msg::EndpointPtr e1 = home.attach(1);
  dsm::ShardedRemote r1(small_gthv(), plat::solaris_sparc32(), 1,
                        std::move(e1));
  home.start();

  home.lock(0);
  home.space().view<std::int32_t>("A").set(0, 77);
  home.unlock(0);

  std::thread t1([&] {
    r1.barrier(0);  // enters first, blocks until the master enters
    r1.join();
  });
  // Give r1 time to enter the episode, then attach the latecomer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r2(small_gthv(), plat::linux_x86_64(), 2, std::move(e2));

  home.barrier(0);  // completes without r2
  t1.join();

  // r2's first synchronization still works and pulls the full image.
  std::thread t2([&] {
    r2.lock(0);
    EXPECT_EQ(r2.space().view<std::int32_t>("A").get(0), 77);
    r2.unlock(0);
    r2.barrier(0);  // a fresh episode with {master, r2}
    r2.join();
  });
  home.barrier(0);
  t2.join();
  home.wait_all_joined();
  home.stop();
}

TEST(DsdProtocolMisc, ExplicitBarrierCountWaitsForLateAttacher) {
  // pthread_barrier_init semantics: with the count fixed at 3, the episode
  // must NOT close when only master + rank 1 entered, even though rank 2
  // has not attached yet when the episode opens.
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  home.set_barrier_count(0, 3);
  msg::EndpointPtr e1 = home.attach(1);
  dsm::ShardedRemote r1(small_gthv(), plat::linux_ia32(), 1, std::move(e1));
  home.start();

  std::thread t1([&] {
    r1.barrier(0);
    r1.join();
  });
  std::atomic<bool> master_released{false};
  std::thread master([&] {
    home.barrier(0);
    master_released = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(master_released.load());  // still waiting on the count

  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r2(small_gthv(), plat::solaris_sparc32(), 2,
                        std::move(e2));
  std::thread t2([&] {
    r2.barrier(0);
    r2.join();
  });
  master.join();
  EXPECT_TRUE(master_released.load());
  t1.join();
  t2.join();
  home.wait_all_joined();
  home.stop();
}

TEST(DsdProtocolMisc, BarrierCountValidation) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  EXPECT_THROW(home.set_barrier_count(999, 2), std::out_of_range);
}

TEST(DsdProtocolMisc, DisconnectWithoutJoinDetaches) {
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  {
    msg::EndpointPtr ep = home.attach(1);
    dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                              std::move(ep));
    home.start();
    remote.lock(0);
    remote.unlock(0);
    // Destructor closes the endpoint without join().
  }
  home.wait_all_joined();  // must not hang
  home.stop();
}

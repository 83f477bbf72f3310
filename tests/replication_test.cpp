// Primary/standby replication of the home directory
// (docs/REPLICATION.md): the log record codec, standby convergence under
// live traffic, clean-transport failover (strided master runs and lock
// bindings included), split-brain fencing of a deposed primary, and
// degraded mode when the standby dies.  The fault-injected
// handover-window cases live in sharded_fault_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "dsm/replicated_home.hpp"
#include "dsm/replication.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/update.hpp"
#include "replicated_harness.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
namespace test = hdsm::test;

using namespace std::chrono_literals;

// ---- record codec ----------------------------------------------------------

TEST(ReplicationCodec, EventRecordRoundTrips) {
  dsm::LogRecord r;
  msg::Message m;
  m.type = msg::MsgType::UnlockRequest;
  m.sync_id = 7;
  m.rank = 2;
  m.seq = 41;
  m.payload = {std::byte{0xde}, std::byte{0xad}};
  r.event = dsm::CoherenceEvent::msg_received(2, std::move(m));

  const dsm::LogRecord back = dsm::decode_record(dsm::encode_record(r));
  EXPECT_EQ(back.event.kind, dsm::CoherenceEvent::Kind::MsgReceived);
  EXPECT_EQ(back.event.rank, 2u);
  EXPECT_EQ(back.event.message.type, msg::MsgType::UnlockRequest);
  EXPECT_EQ(back.event.message.sync_id, 7u);
  EXPECT_EQ(back.event.message.seq, 41u);
  EXPECT_EQ(back.event.message.payload.size(), 2u);
  EXPECT_TRUE(back.master_payload.empty());
}

TEST(ReplicationCodec, MasterEventCarriesItsPayloadNotItsRuns) {
  // The standby rebuilds a master event's runs from the payload's blocks,
  // so the record ships the bytes alone.
  dsm::LogRecord r;
  r.event = dsm::CoherenceEvent::master_unlock(5, {{2, 8, 16}});
  r.master_payload = {std::byte{0x01}, std::byte{0x02}, std::byte{0x03}};
  r.master_sender = msg::PlatformSummary::of(plat::solaris_sparc64());
  const dsm::LogRecord back = dsm::decode_record(dsm::encode_record(r));
  EXPECT_EQ(back.event.kind, dsm::CoherenceEvent::Kind::MasterUnlock);
  EXPECT_EQ(back.event.index, 5u);
  EXPECT_TRUE(back.event.runs.empty());
  EXPECT_EQ(back.master_payload, r.master_payload);
  EXPECT_EQ(back.master_sender, r.master_sender);
}

TEST(ReplicationCodec, ConfigEventsRoundTrip) {
  for (const dsm::CoherenceEvent& e :
       {dsm::CoherenceEvent::set_barrier_count(9, 77),
        dsm::CoherenceEvent::bind_lock(9, 77)}) {
    dsm::LogRecord r;
    r.event = e;
    const dsm::LogRecord back = dsm::decode_record(dsm::encode_record(r));
    EXPECT_EQ(back.event.kind, e.kind);
    EXPECT_EQ(back.event.index, 9u);
    EXPECT_EQ(back.event.value, 77u);
  }
}

TEST(ReplicationCodec, MalformedRecordsThrow) {
  EXPECT_THROW(dsm::decode_record({}), std::runtime_error);
  // Truncated mid-header.
  dsm::LogRecord r;
  r.event = dsm::CoherenceEvent::set_barrier_count(1, 3);
  std::vector<std::byte> wire = dsm::encode_record(r);
  // kind, rank, index, value, payload length, sender summary
  ASSERT_EQ(wire.size(), 23u);
  wire.pop_back();
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
  // Trailing garbage.
  wire = dsm::encode_record(r);
  wire.push_back(std::byte{0xff});
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
  // An event kind past BindLock.
  wire = dsm::encode_record(r);
  EXPECT_NO_THROW(dsm::decode_record(wire));
  ASSERT_EQ(wire[0], std::byte{6});
  wire[0] = std::byte{8};
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
  // Only a master event carries a master payload.
  dsm::LogRecord ev;
  ev.event = dsm::CoherenceEvent::peer_detached(1);
  ev.master_payload = {std::byte{0x01}};
  EXPECT_THROW(dsm::decode_record(dsm::encode_record(ev)),
               std::runtime_error);
  ev.event = dsm::CoherenceEvent::master_barrier(1, {});
  EXPECT_NO_THROW(dsm::decode_record(dsm::encode_record(ev)));
}

TEST(ReplicationCodec, EmbeddedFrameMustFillItsLength) {
  // A received message rides the record as [u64 frame length][frame].  A
  // length that claims more bytes than the frame uses is malformed: the
  // slack would be silently skipped.
  dsm::LogRecord r;
  msg::Message m;
  m.type = msg::MsgType::LockRequest;
  m.rank = 3;
  m.tag = "(4,1)";
  r.event = dsm::CoherenceEvent::msg_received(3, std::move(m));
  std::vector<std::byte> wire = dsm::encode_record(r);
  EXPECT_NO_THROW(dsm::decode_record(wire));

  // Find the frame by its magic; its length is the u64 just before it.
  const std::byte magic[] = {std::byte{'H'}, std::byte{'D'}, std::byte{'S'},
                             std::byte{'M'}};
  const auto at = std::search(wire.begin(), wire.end(), std::begin(magic),
                              std::end(magic));
  ASSERT_NE(at, wire.end());
  const std::size_t frame_pos = static_cast<std::size_t>(at - wire.begin());
  ASSERT_GE(frame_pos, 8u);
  std::uint64_t frame_len = 0;
  for (std::size_t i = frame_pos - 8; i < frame_pos; ++i) {
    frame_len = (frame_len << 8) | std::to_integer<std::uint64_t>(wire[i]);
  }
  ASSERT_LT(frame_len, 256u);
  // One byte of slack after the frame, counted in its length.
  wire[frame_pos - 1] = static_cast<std::byte>(frame_len + 1);
  wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(frame_pos + frame_len),
              std::byte{0});
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
}

// ---- standby convergence ---------------------------------------------------

TEST(Replication, StandbyConvergesWithoutFailover) {
  test::converge_replicated(nullptr, 2, 10, /*failover=*/false);
}

TEST(Replication, MasterWritesReplicateThroughPackedRuns) {
  // Master mutations exist only in the primary's image until an unlock
  // names their runs; the appended record must carry the bytes themselves
  // (master_payload) for the standby's image to converge.
  dsm::ReplicatedHome repl(test::repl_gthv(), plat::linux_ia32());
  repl.start();

  repl.lock(0);
  auto a = repl.space().view<std::int64_t>("A");
  a.set(0, 1234);
  a.set(63, -5);
  repl.unlock(0);

  EXPECT_GT(repl.standby().replicated_log_index(), 0u);
  auto sa = repl.standby().space().view<std::int64_t>("A");
  EXPECT_EQ(sa.get(0), 1234);
  EXPECT_EQ(sa.get(63), -5);
  repl.stop();
}

// ---- failover --------------------------------------------------------------

TEST(Replication, FailoverMidRunLosesNothing) {
  const auto pause =
      test::converge_replicated(nullptr, 2, 12, /*failover=*/true);
  EXPECT_GT(pause.count(), 0);
}

TEST(Replication, FailoverThreeRemotes) {
  test::converge_replicated(nullptr, 3, 8, /*failover=*/true);
}

TEST(Replication, PromotedStandbyReleasesDeadMastersLocks) {
  // The primary's master holds mutex 0 at the crash.  A master does not
  // survive its home: promotion must release the lock (traced as a
  // LockReleased) so the standby's remotes are not wedged forever.
  dsm::TraceLog slog;
  dsm::ReplicatedHomeOptions opts;
  opts.standby_trace = &slog;
  dsm::ReplicatedHome repl(test::repl_gthv(), plat::linux_ia32(), opts);
  repl.start();
  repl.lock(3);  // held at the crash

  repl.fail_over();

  // The new master can take the lock the dead one held.
  repl.lock(3);
  repl.unlock(3);
  bool released = false;
  for (const auto& ev : slog.snapshot()) {
    if (ev.kind == dsm::TraceEvent::Kind::LockReleased && ev.sync_id == 3) {
      released = true;
      break;
    }
  }
  EXPECT_TRUE(released);
  const auto err = dsm::validate_trace(slog.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  repl.stop();
}

// ---- failover keeps replayed runs and bindings ------------------------------

namespace {

/// A remote that speaks the protocol by hand, so a test can read the exact
/// payload of every reply.
struct RawRemote {
  dsm::ReplicatedHome& repl;
  std::uint32_t rank;
  msg::EndpointPtr ep;
  std::uint32_t seq = 0;

  RawRemote(dsm::ReplicatedHome& r, std::uint32_t k)
      : repl(r), rank(k), ep(r.attach(k)) {}

  /// Send one request and return its reply.
  msg::Message request(msg::MsgType type, std::uint32_t sync_id) {
    msg::Message m;
    m.type = type;
    m.rank = rank;
    m.seq = ++seq;
    m.sync_id = sync_id;
    m.sender = msg::PlatformSummary::of(plat::linux_ia32());
    if (type != msg::MsgType::LockRequest) {
      m.payload = dsm::encode_update_blocks({});
    }
    ep->send(m);
    msg::Message reply;
    EXPECT_TRUE(ep->recv_for(reply, test::scaled(5000ms)));
    return reply;
  }

  /// Resume the session at whichever home serves now.
  void redial() { ep = repl.redial(rank); }
};

/// The grant remote 1 gets for mutex 0 after the master's red half-sweep
/// of A (every even element, then a barrier the master closes alone), with
/// or without a failover between the barrier and the lock.
std::vector<std::byte> grant_after_red_sweep(bool failover) {
  dsm::ReplicatedHome repl(test::repl_gthv(), plat::linux_ia32());
  repl.set_barrier_count(0, 1);
  repl.start();
  RawRemote remote(repl, 1);
  // Ship the attach's full-image pending set first.
  EXPECT_EQ(remote.request(msg::MsgType::LockRequest, 0).type,
            msg::MsgType::LockGrant);
  EXPECT_EQ(remote.request(msg::MsgType::UnlockRequest, 0).type,
            msg::MsgType::UnlockAck);

  auto a = repl.space().view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < test::kReplElems; i += 2) {
    a.set(i, 1000 + static_cast<std::int64_t>(i));
  }
  repl.barrier(0);
  if (failover) {
    repl.fail_over();
    remote.redial();
  }
  const msg::Message grant = remote.request(msg::MsgType::LockRequest, 0);
  EXPECT_EQ(grant.type, msg::MsgType::LockGrant);
  repl.stop();
  return grant.payload;
}

}  // namespace

TEST(Replication, StridedMasterRunsFailOverByteForByte) {
  // The barrier's strided run reaches the standby only as packed bytes; the
  // run it rebuilds from them must pend exactly as the primary's did.
  const std::vector<std::byte> served = grant_after_red_sweep(false);
  const auto blocks = dsm::decode_update_block_views(served);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].tag, "((8,1)(8,0),32)");
  EXPECT_EQ(grant_after_red_sweep(true), served);
}

TEST(Replication, BoundLockScopesThePromotedStandbysGrants) {
  // The binding is configuration the standby knows only from the log: after
  // the failover mutex 1 still ships A's runs alone, and B's stay pending
  // for the next unbound grant.
  const tags::TypePtr gthv = tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), 8)},
            {"B", tags::TypeDesc::array(tags::t_longlong(), 8)}});
  dsm::ReplicatedHome repl(gthv, plat::linux_ia32());
  repl.bind_lock(1, "A");
  repl.start();
  RawRemote remote(repl, 1);
  EXPECT_EQ(remote.request(msg::MsgType::LockRequest, 0).type,
            msg::MsgType::LockGrant);
  EXPECT_EQ(remote.request(msg::MsgType::UnlockRequest, 0).type,
            msg::MsgType::UnlockAck);

  repl.lock(2);
  repl.space().view<std::int64_t>("A").set(0, 11);
  repl.space().view<std::int64_t>("B").set(0, 22);
  repl.unlock(2);
  repl.fail_over();
  remote.redial();

  const auto row_of = [&repl](const char* field) {
    return static_cast<std::uint32_t>(
        repl.space().table().row_of_field(field));
  };
  const msg::Message bound = remote.request(msg::MsgType::LockRequest, 1);
  ASSERT_EQ(bound.type, msg::MsgType::LockGrant);
  auto blocks = dsm::decode_update_block_views(bound.payload);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].row, row_of("A"));

  EXPECT_EQ(remote.request(msg::MsgType::UnlockRequest, 1).type,
            msg::MsgType::UnlockAck);
  const msg::Message unbound = remote.request(msg::MsgType::LockRequest, 0);
  ASSERT_EQ(unbound.type, msg::MsgType::LockGrant);
  blocks = dsm::decode_update_block_views(unbound.payload);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].row, row_of("B"));
  repl.stop();
}

// ---- split-brain fencing ---------------------------------------------------

TEST(Replication, DeposedPrimaryFencesItself) {
  // Promote the standby while the primary still runs (a false-positive
  // failure detection — the worst case for split brain).  The primary's
  // next append is rejected with the fence epoch; it must mark itself
  // fenced and suppress externalization.
  dsm::ReplicatedHomeOptions opts;
  dsm::ReplicatedHome repl(test::repl_gthv(), plat::linux_ia32(), opts);
  repl.start();
  EXPECT_FALSE(repl.primary().fenced());

  repl.promote_standby();

  // Any event the deposed primary applies now carries the old epoch.
  repl.primary().lock(0);
  repl.primary().unlock(0);
  EXPECT_TRUE(repl.primary().fenced());
  EXPECT_TRUE(repl.sender().deposed());
  repl.stop();
}

// ---- degraded mode ---------------------------------------------------------

TEST(Replication, StandbyDeathDegradesToUnreplicated) {
  // allow_degraded (the default): when the standby stops acking, the
  // primary logs once and keeps serving unreplicated — availability over
  // durability, the home is no worse than before replication existed.
  dsm::ReplicatedHomeOptions opts;
  opts.repl.ack_timeout = test::scaled(50ms);
  opts.repl.max_retries = 1;
  dsm::ReplicatedHome repl(test::repl_gthv(), plat::linux_ia32(), opts);
  repl.start();

  repl.lock(0);
  repl.unlock(0);
  EXPECT_FALSE(repl.sender().degraded());
  const std::uint32_t replicated = repl.standby().replicated_log_index();
  EXPECT_GT(replicated, 0u);

  repl.standby().stop();  // the standby dies; its link EOFs

  repl.lock(1);
  repl.unlock(1);
  EXPECT_TRUE(repl.sender().degraded());
  EXPECT_FALSE(repl.primary().fenced());  // degraded, not deposed
  EXPECT_EQ(repl.standby().replicated_log_index(), replicated);
  repl.stop();
}

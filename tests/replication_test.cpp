// Primary/standby replication of the home directory
// (docs/REPLICATION.md): the log record codec, standby convergence under
// live traffic, clean-transport failover, split-brain fencing of a deposed
// primary, and degraded mode when the standby dies.  The fault-injected
// handover-window cases live in sharded_fault_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "dsm/replicated_home.hpp"
#include "dsm/replication.hpp"
#include "dsm/sharded_remote.hpp"
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
  r.kind = dsm::LogRecord::Kind::Event;
  msg::Message m;
  m.type = msg::MsgType::UnlockRequest;
  m.sync_id = 7;
  m.rank = 2;
  m.seq = 41;
  m.payload = {std::byte{0xde}, std::byte{0xad}};
  r.event = dsm::CoherenceEvent::msg_received(2, std::move(m));
  r.master_payload = {std::byte{0x01}, std::byte{0x02}, std::byte{0x03}};

  const dsm::LogRecord back = dsm::decode_record(dsm::encode_record(r));
  EXPECT_EQ(back.kind, dsm::LogRecord::Kind::Event);
  EXPECT_EQ(back.event.kind, dsm::CoherenceEvent::Kind::MsgReceived);
  EXPECT_EQ(back.event.rank, 2u);
  EXPECT_EQ(back.event.message.type, msg::MsgType::UnlockRequest);
  EXPECT_EQ(back.event.message.sync_id, 7u);
  EXPECT_EQ(back.event.message.seq, 41u);
  EXPECT_EQ(back.event.message.payload.size(), 2u);
  EXPECT_EQ(back.master_payload, r.master_payload);
}

TEST(ReplicationCodec, MasterEventCarriesRuns) {
  dsm::LogRecord r;
  r.kind = dsm::LogRecord::Kind::Event;
  r.event = dsm::CoherenceEvent::master_unlock(5, {{2, 8, 16}});
  const dsm::LogRecord back = dsm::decode_record(dsm::encode_record(r));
  EXPECT_EQ(back.event.kind, dsm::CoherenceEvent::Kind::MasterUnlock);
  EXPECT_EQ(back.event.index, 5u);
  ASSERT_EQ(back.event.runs.size(), 1u);
  EXPECT_EQ(back.event.runs[0].row, 2u);
  EXPECT_EQ(back.event.runs[0].first_elem, 8u);
  EXPECT_EQ(back.event.runs[0].count, 16u);
}

TEST(ReplicationCodec, ControlRecordsRoundTrip) {
  for (const auto kind : {dsm::LogRecord::Kind::SetBarrierCount,
                          dsm::LogRecord::Kind::BindLock}) {
    dsm::LogRecord r;
    r.kind = kind;
    r.index = 9;
    r.value = 77;
    const dsm::LogRecord back = dsm::decode_record(dsm::encode_record(r));
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.index, 9u);
    EXPECT_EQ(back.value, 77u);
  }
}

TEST(ReplicationCodec, MalformedRecordsThrow) {
  EXPECT_THROW(dsm::decode_record({}), std::runtime_error);
  // Bad record kind (4 was the retired dedup-horizon record).
  EXPECT_THROW(dsm::decode_record({std::byte{0x00}}), std::runtime_error);
  EXPECT_THROW(dsm::decode_record({std::byte{0x04}, std::byte{0},
                                   std::byte{0}, std::byte{0}, std::byte{0},
                                   std::byte{0}, std::byte{0}, std::byte{0},
                                   std::byte{0}}),
               std::runtime_error);
  // Truncated mid-header.
  dsm::LogRecord r;
  r.kind = dsm::LogRecord::Kind::SetBarrierCount;
  std::vector<std::byte> wire = dsm::encode_record(r);
  ASSERT_EQ(wire.size(), 9u);  // kind, index, value
  wire.pop_back();
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
  // Trailing garbage.
  wire = dsm::encode_record(r);
  wire.push_back(std::byte{0xff});
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
  // An event kind past PeerDetached (6 was the never-produced Timeout).
  dsm::LogRecord ev;
  ev.kind = dsm::LogRecord::Kind::Event;
  ev.event = dsm::CoherenceEvent::peer_detached(1);
  wire = dsm::encode_record(ev);
  EXPECT_NO_THROW(dsm::decode_record(wire));
  // The event kind follows the record kind byte.
  ASSERT_EQ(wire[1], std::byte{5});
  wire[1] = std::byte{6};
  EXPECT_THROW(dsm::decode_record(wire), std::runtime_error);
}

TEST(ReplicationCodec, EmbeddedFrameMustFillItsLength) {
  // A received message rides the record as [u64 frame length][frame].  A
  // length that claims more bytes than the frame uses is malformed: the
  // slack would be silently skipped.
  dsm::LogRecord r;
  r.kind = dsm::LogRecord::Kind::Event;
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

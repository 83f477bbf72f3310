// Fault-injection tests for the reliability layer (docs/RELIABILITY.md):
// FaultyEndpoint semantics, and the DSD protocol's recovery — retransmit,
// duplicate suppression, reconnect, graceful degradation — under every
// fault mode, over in-process channels and over real loopback TCP.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"
#include "msg/faulty.hpp"
#include "msg/tcp.hpp"
#include "lock_workload.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

using namespace std::chrono_literals;
using hdsm::test::expect_image;
using hdsm::test::expected_array;
using hdsm::test::fast_retry;
using hdsm::test::gthv;
using hdsm::test::kElems;
using hdsm::test::ops_of;
using hdsm::test::run_workload;

namespace {

msg::Message tagged(int n) {
  msg::Message m;
  m.type = msg::MsgType::Hello;
  m.sync_id = static_cast<std::uint32_t>(n);
  return m;
}

/// A hand-crafted protocol frame from rank 1, for driving a ShardedHome
/// directly (no ShardedRemote) in the targeted reliability tests below.
msg::Message raw(msg::MsgType t, std::uint32_t seq, std::uint32_t sync_id,
                 const std::string& tag = "",
                 std::vector<std::byte> payload = {}) {
  msg::Message m;
  m.type = t;
  m.seq = seq;
  m.sync_id = sync_id;
  m.rank = 1;
  m.sender = msg::PlatformSummary::of(plat::linux_ia32());
  m.tag = tag;
  m.payload = std::move(payload);
  return m;
}

/// An UnlockRequest/BarrierEnter payload carrying zero update blocks.
std::vector<std::byte> no_blocks() { return dsm::encode_update_blocks({}); }

/// Attach `rank` to `home`, its session wrapped in a FaultyEndpoint.
msg::EndpointPtr faulty_attach(dsm::ShardedHome& home, std::uint32_t rank,
                               const msg::FaultOptions& f) {
  return msg::make_faulty(home.attach(rank), f);
}

/// Poll `log` until `pred(snapshot)` holds (the home's reactor handles
/// frames asynchronously from the test body).
template <typename Pred>
bool wait_for_trace(const dsm::TraceLog& log, Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(log.snapshot())) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

/// Run `num_remotes` faulty remotes to completion against one home and
/// check the master image matches the fault-free expectation and the
/// protocol trace validates.
void converge_under(const msg::FaultOptions& fault, std::uint32_t num_remotes,
                    int ops, dsm::CodecMode codec = dsm::CodecMode::Off) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  home.set_barrier_count(0, num_remotes + 1);

  std::vector<std::unique_ptr<dsm::ShardedRemote>> remotes;
  for (std::uint32_t r = 1; r <= num_remotes; ++r) {
    msg::FaultOptions per_remote = fault;
    per_remote.seed = fault.seed + r;  // distinct schedules per remote
    dsm::ShardedRemoteOptions ropts;
    ropts.retry = fast_retry();
    ropts.dsd.codec = codec;
    remotes.push_back(std::make_unique<dsm::ShardedRemote>(
        gthv(), plat::linux_ia32(), r,
        faulty_attach(home, r, per_remote), ropts));
  }
  home.start();

  std::vector<std::thread> threads;
  for (auto& remote : remotes) {
    threads.emplace_back([&remote, ops] { run_workload(*remote, ops); });
  }
  home.barrier(0);
  for (std::thread& t : threads) t.join();
  home.wait_all_joined();

  expect_image(home.space(), expected_array(num_remotes, ops));
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

}  // namespace

// ---- FaultyEndpoint unit tests ---------------------------------------------

TEST(FaultyEndpoint, SameSeedSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    auto [a, b] = msg::make_channel_pair();
    msg::FaultOptions opts;
    opts.seed = seed;
    opts.send.drop = 0.3;
    opts.send.duplicate = 0.3;
    auto faulty = msg::make_faulty(std::move(a), opts);
    for (int i = 0; i < 64; ++i) faulty->send(tagged(i));
    std::vector<std::uint32_t> seen;
    msg::Message m;
    while (b->recv_for(m, 1ms)) seen.push_back(m.sync_id);
    return std::make_pair(faulty->counters(), seen);
  };
  const auto [c1, seen1] = run(7);
  const auto [c2, seen2] = run(7);
  EXPECT_EQ(c1.dropped, c2.dropped);
  EXPECT_EQ(c1.duplicated, c2.duplicated);
  EXPECT_EQ(seen1, seen2);  // identical delivery schedule
  EXPECT_GT(c1.dropped, 0u);
  EXPECT_GT(c1.duplicated, 0u);
  const auto [c3, seen3] = run(8);
  EXPECT_NE(seen1, seen3);  // a different seed reshuffles the schedule
}

TEST(FaultyEndpoint, DropDiscardsSilently) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.send.drop = 1.0;
  auto faulty = msg::make_faulty(std::move(a), opts);
  for (int i = 0; i < 5; ++i) faulty->send(tagged(i));  // must not throw
  msg::Message m;
  EXPECT_FALSE(b->recv_for(m, 5ms));
  EXPECT_EQ(faulty->counters().dropped, 5u);
}

TEST(FaultyEndpoint, DuplicateDeliversTwice) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.send.duplicate = 1.0;
  auto faulty = msg::make_faulty(std::move(a), opts);
  for (int i = 0; i < 3; ++i) faulty->send(tagged(i));
  std::vector<std::uint32_t> seen;
  msg::Message m;
  while (b->recv_for(m, 1ms)) seen.push_back(m.sync_id);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(faulty->counters().duplicated, 3u);
}

TEST(FaultyEndpoint, DelayDefersDelivery) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.recv.delay = 1.0;
  opts.recv.delay_ms = 20ms;
  auto faulty = msg::make_faulty(std::move(b), opts);
  a->send(tagged(1));
  const auto t0 = std::chrono::steady_clock::now();
  const msg::Message m = faulty->recv();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(m.sync_id, 1u);
  EXPECT_GE(elapsed, 20ms);
  EXPECT_EQ(faulty->counters().delayed, 1u);
}

TEST(FaultyEndpoint, ReorderPermutesWithinWindow) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.seed = 3;
  opts.send.reorder = 0.5;
  opts.send.reorder_window = 2;
  auto faulty = msg::make_faulty(std::move(a), opts);
  constexpr int kMsgs = 24;
  for (int i = 0; i < kMsgs; ++i) faulty->send(tagged(i));
  faulty->close();  // flushes any still-held messages
  std::vector<std::uint32_t> seen;
  msg::Message m;
  for (;;) {
    try {
      seen.push_back(b->recv().sync_id);
    } catch (const msg::ChannelClosed&) {
      break;
    }
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kMsgs));
  std::vector<std::uint32_t> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> identity(kMsgs);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(sorted, identity);  // nothing lost, nothing duplicated
  EXPECT_NE(seen, identity);    // but the order changed
  EXPECT_GT(faulty->counters().reordered, 0u);
  // A held message overtakes at most `reorder_window` successors.
  for (int i = 0; i < kMsgs; ++i) {
    const int at = static_cast<int>(
        std::find(seen.begin(), seen.end(), static_cast<std::uint32_t>(i)) -
        seen.begin());
    EXPECT_LE(at - i, static_cast<int>(opts.send.reorder_window))
        << "message " << i << " delivered at position " << at;
  }
}

TEST(FaultyEndpoint, ResetClosesBothSides) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.send.reset_after = 3;
  auto faulty = msg::make_faulty(std::move(a), opts);
  for (int i = 0; i < 3; ++i) faulty->send(tagged(i));
  EXPECT_THROW(faulty->send(tagged(3)), msg::ChannelClosed);
  EXPECT_EQ(faulty->counters().resets, 1u);
  msg::Message m;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b->recv_for(m, 5ms));
  EXPECT_THROW(b->recv(), msg::ChannelClosed);  // peer observes EOF
}

TEST(FaultyEndpoint, KindFilterSparesOtherTraffic) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.send.drop = 1.0;
  opts.send.only = {msg::MsgType::LockRequest};
  auto faulty = msg::make_faulty(std::move(a), opts);
  msg::Message lock_req;
  lock_req.type = msg::MsgType::LockRequest;
  faulty->send(lock_req);   // eligible: dropped
  faulty->send(tagged(9));  // Hello: passes untouched
  const msg::Message m = b->recv();
  EXPECT_EQ(m.type, msg::MsgType::Hello);
  EXPECT_EQ(m.sync_id, 9u);
  EXPECT_EQ(faulty->counters().dropped, 1u);
}

TEST(FaultyEndpoint, CorruptFlipsPayloadBits) {
  auto [a, b] = msg::make_channel_pair();
  msg::FaultOptions opts;
  opts.send.corrupt = 1.0;
  opts.send.corrupt_bits = 3;
  auto faulty = msg::make_faulty(std::move(a), opts);

  msg::Message with_payload = tagged(1);
  with_payload.payload.assign(256, std::byte{0});
  faulty->send(with_payload);
  const msg::Message got = b->recv();
  EXPECT_NE(got.payload, with_payload.payload);
  EXPECT_EQ(got.payload.size(), with_payload.payload.size());
  EXPECT_EQ(faulty->counters().corrupted, 1u);

  // Payload-less messages have no bits to flip and pass untouched.
  faulty->send(tagged(2));
  EXPECT_EQ(b->recv().sync_id, 2u);
  EXPECT_EQ(faulty->counters().corrupted, 1u);
}

TEST(FaultyEndpoint, CorruptionDoesNotReshuffleExistingSchedule) {
  // The corruption knob draws from its own RNG stream: enabling it must
  // leave a seed's drop schedule bit-for-bit identical.
  const auto delivered_with = [](double corrupt) {
    auto [a, b] = msg::make_channel_pair();
    msg::FaultOptions opts;
    opts.seed = 77;
    opts.send.drop = 0.5;
    opts.send.corrupt = corrupt;
    auto faulty = msg::make_faulty(std::move(a), opts);
    for (int i = 0; i < 64; ++i) {
      msg::Message m = tagged(i);
      m.payload.assign(32, std::byte{0xab});
      faulty->send(m);
    }
    std::vector<std::uint32_t> ids;
    msg::Message m;
    while (b->recv_for(m, std::chrono::milliseconds(0))) {
      ids.push_back(m.sync_id);
    }
    return ids;
  };
  EXPECT_EQ(delivered_with(0.0), delivered_with(1.0));
}

// ---- protocol recovery over in-process channels ----------------------------

TEST(Reliability, ConvergesUnderDrop) {
  msg::FaultOptions f;
  f.send.drop = 0.25;
  f.recv.drop = 0.25;
  converge_under(f, 2, 12);
}

TEST(Reliability, ConvergesUnderDuplication) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;  // every request sent twice
  f.recv.duplicate = 0.5;
  converge_under(f, 2, 12);
}

TEST(Reliability, ConvergesUnderDelay) {
  msg::FaultOptions f;
  f.send.delay = 0.5;
  f.send.delay_ms = 2ms;
  f.recv.delay = 0.5;
  f.recv.delay_ms = 2ms;
  converge_under(f, 2, 10);
}

TEST(Reliability, ConvergesUnderReorder) {
  msg::FaultOptions f;
  f.send.reorder = 0.4;
  f.send.reorder_window = 2;
  converge_under(f, 2, 12);
}

TEST(Reliability, ConvergesUnderCombinedFaults) {
  msg::FaultOptions f;
  f.send.drop = 0.15;
  f.send.duplicate = 0.25;
  f.send.delay = 0.2;
  f.send.delay_ms = 1ms;
  f.send.reorder = 0.2;
  f.recv.drop = 0.15;
  f.recv.duplicate = 0.25;
  converge_under(f, 3, 10);
}

TEST(Reliability, ConvergesUnderCombinedFaultsWithCodecForced) {
  // The full fault gauntlet with every update payload compressed: drops,
  // duplicates, delays, and reorders must not interact with the codec —
  // compressed payloads retransmit, dedup, and apply exactly like raw ones.
  msg::FaultOptions f;
  f.send.drop = 0.15;
  f.send.duplicate = 0.25;
  f.send.delay = 0.2;
  f.send.delay_ms = 1ms;
  f.send.reorder = 0.2;
  f.recv.drop = 0.15;
  f.recv.duplicate = 0.25;
  converge_under(f, 3, 10, dsm::CodecMode::Forced);
}

TEST(Reliability, CorruptPayloadRejectedDetachedAndClusterProgresses) {
  // Remote 1's update payloads are bit-flipped on the wire.  With the codec
  // forced on, the compressed block's checksum turns the flip into a
  // deterministic whole-payload rejection: the home detaches the corrupting
  // peer (never applying the mangled bytes) and the rest of the cluster
  // keeps working.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::FaultOptions f;
  f.seed = 3;
  f.send.corrupt = 1.0;
  f.send.corrupt_bits = 1;
  f.send.only = {msg::MsgType::UnlockRequest};
  dsm::RetryPolicy retry;
  retry.timeout = hdsm::test::scaled(25ms);
  retry.backoff = 1.0;
  retry.max_retries = 3;
  dsm::ShardedRemoteOptions doomed_opts;
  doomed_opts.retry = retry;
  doomed_opts.dsd.codec = dsm::CodecMode::Forced;
  dsm::ShardedRemote doomed(gthv(), plat::linux_ia32(), 1,
                            faulty_attach(home, 1, f), doomed_opts);
  dsm::ShardedRemote healthy(gthv(), plat::linux_ia32(), 2, home.attach(2));
  home.start();

  doomed.lock(0);
  // A long smooth run, so the payload carries a compressed block and the
  // flip lands somewhere validation or the checksum must catch.
  auto da = doomed.space().view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kElems; ++i) {
    da.set(i, static_cast<std::int64_t>(i) * 11 + 5);
  }
  EXPECT_THROW(doomed.unlock(0), dsm::HomeUnreachable);
  EXPECT_TRUE(doomed.detached());

  // None of the doomed remote's mangled updates reached the master image.
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(home.space().view<std::int64_t>("A").get(i), 0)
        << "element " << i;
  }

  // The home reclaimed the mutex on detach; the healthy remote progresses.
  healthy.lock(0);
  auto a = healthy.space().view<std::int64_t>("A");
  a.set(1, 222);
  healthy.unlock(0);
  healthy.join();
  home.lock(0);
  home.unlock(0);
  home.wait_all_joined();

  EXPECT_EQ(home.space().view<std::int64_t>("A").get(1), 222);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, DuplicatedRequestsApplyExactlyOnce) {
  // Force every request to be sent twice and verify via both the final
  // array (exactly-once application) and the home's duplicate counter
  // (the second copies really arrived and were dropped).
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::FaultOptions f;
  f.send.duplicate = 1.0;
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1,
                            faulty_attach(home, 1, f), ropts);
  home.start();
  constexpr int kOps = 20;
  for (int i = 0; i < kOps; ++i) {
    remote.lock(0);
    auto a = remote.space().view<std::int64_t>("A");
    a.set(0, a.get(0) + 1);
    remote.unlock(0);
  }
  remote.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), kOps);
  EXPECT_GT(home.stats().duplicates_dropped, 0u);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, RetriesAreCountedAndTraced) {
  dsm::TraceLog remote_log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  msg::FaultOptions f;
  f.seed = 11;
  f.send.drop = 0.5;
  f.send.only = {msg::MsgType::LockRequest, msg::MsgType::UnlockRequest};
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.trace = &remote_log;
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1,
                            faulty_attach(home, 1, f), ropts);
  home.start();
  for (int i = 0; i < 10; ++i) {
    remote.lock(0);
    remote.unlock(0);
  }
  remote.join();
  EXPECT_GT(remote.stats().retries, 0u);
  EXPECT_EQ(remote.stats().retries, remote.stats().timeouts);
  bool saw_retry_event = false;
  for (const dsm::TraceEvent& e : remote_log.snapshot()) {
    if (e.kind == dsm::TraceEvent::Kind::RetrySent) saw_retry_event = true;
  }
  EXPECT_TRUE(saw_retry_event);
  const auto err = dsm::validate_trace(remote_log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, ExhaustedRetriesDetachCleanly) {
  // Black-hole every request: the remote must give up with HomeUnreachable
  // after exactly max_retries retransmissions, record the episode in its
  // trace, and end up detached with tracking stopped.
  dsm::TraceLog remote_log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  msg::FaultOptions f;
  f.send.drop = 1.0;
  f.send.only = {msg::MsgType::LockRequest};
  dsm::RetryPolicy retry;
  retry.timeout = 5ms;
  retry.backoff = 1.0;
  retry.max_retries = 3;
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = retry;
  ropts.trace = &remote_log;
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1,
                            faulty_attach(home, 1, f), ropts);
  home.start();
  EXPECT_THROW(remote.lock(0), dsm::HomeUnreachable);
  EXPECT_TRUE(remote.detached());
  EXPECT_EQ(remote.stats().retries, retry.max_retries);
  EXPECT_EQ(remote.stats().timeouts, retry.max_retries + 1u);
  bool saw_timeout_detach = false;
  for (const dsm::TraceEvent& e : remote_log.snapshot()) {
    if (e.kind == dsm::TraceEvent::Kind::TimeoutDetached) {
      saw_timeout_detach = true;
    }
  }
  EXPECT_TRUE(saw_timeout_detach);
  // Further synchronization fails fast rather than hanging.
  EXPECT_THROW(remote.lock(0), dsm::HomeUnreachable);
  home.stop();
}

TEST(Reliability, HomeReclaimsLocksOfDeadRemoteAndClusterProgresses) {
  // Remote 1 acquires the mutex, then every one of its UnlockRequests is
  // black-holed: it exhausts retries and detaches.  The home must reclaim
  // the mutex so the master and remote 2 keep working.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::FaultOptions f;
  f.send.drop = 1.0;
  f.send.only = {msg::MsgType::UnlockRequest};
  // The doomed remote's LockRequest is never dropped, so its budget must
  // outlast a loaded scheduler; every UnlockRequest is dropped, so that
  // retry exhausts the budget whatever its size.
  dsm::RetryPolicy retry;
  retry.timeout = hdsm::test::scaled(25ms);
  retry.backoff = 1.0;
  retry.max_retries = 3;
  dsm::ShardedRemoteOptions faulty_opts;
  faulty_opts.retry = retry;
  dsm::ShardedRemote doomed(gthv(), plat::linux_ia32(), 1,
                            faulty_attach(home, 1, f), faulty_opts);
  dsm::ShardedRemote healthy(gthv(), plat::linux_ia32(), 2, home.attach(2));
  home.start();

  doomed.lock(0);
  doomed.space().view<std::int64_t>("A").set(0, 111);
  EXPECT_THROW(doomed.unlock(0), dsm::HomeUnreachable);
  EXPECT_TRUE(doomed.detached());

  // The doomed remote's endpoint closed on detach; once the home's reactor
  // reaps it the mutex is reclaimed and others can take it.
  healthy.lock(0);
  auto a = healthy.space().view<std::int64_t>("A");
  a.set(1, 222);
  healthy.unlock(0);
  healthy.join();
  home.lock(0);
  home.unlock(0);
  home.wait_all_joined();

  EXPECT_EQ(home.space().view<std::int64_t>("A").get(1), 222);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

// ---- faults over real TCP --------------------------------------------------

TEST(Reliability, TcpConvergesUnderDropAndDuplication) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::TcpListener listener(0);
  std::thread acceptor([&] { home.attach_endpoint(1, listener.accept()); });
  msg::FaultOptions f;
  f.send.drop = 0.25;
  f.send.duplicate = 0.5;
  f.recv.drop = 0.25;
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  dsm::ShardedRemote remote(
      gthv(), plat::linux_ia32(), 1,
      msg::make_faulty(msg::tcp_connect(listener.port()), f),
      ropts);
  acceptor.join();
  home.start();

  constexpr int kOps = 15;
  for (const auto& [idx, delta] : ops_of(1, kOps)) {
    remote.lock(0);
    auto a = remote.space().view<std::int64_t>("A");
    a.set(idx, a.get(idx) + delta);
    remote.unlock(0);
  }
  remote.join();
  home.wait_all_joined();

  expect_image(home.space(), expected_array(1, kOps));
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, TcpResetRecoversThroughReconnect) {
  // The transport dies mid-run (connection reset after a fixed number of
  // sends); the remote re-dials through its reconnect hook, resumes its
  // outstanding request, and the run converges with no lost or doubled
  // updates.
  dsm::TraceLog log;
  dsm::TraceLog remote_log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::TcpListener listener(0);
  // The home keeps accepting: each new connection re-attaches rank 1
  // (dedup state survives, so a retransmitted in-flight request is safe).
  std::thread acceptor([&] {
    for (int conn = 0; conn < 2; ++conn) {
      home.attach_endpoint(1, listener.accept());
    }
  });

  msg::FaultOptions f;
  f.send.reset_after = 13;  // dies partway through the workload
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.trace = &remote_log;
  ropts.reconnect = [&listener] {
    // Resume hint travels in the Hello; a plain (fault-free) endpoint is
    // fine for the second life.
    return msg::tcp_connect_retry(listener.port());
  };
  dsm::ShardedRemote remote(
      gthv(), plat::linux_ia32(), 1,
      msg::make_faulty(msg::tcp_connect(listener.port()), f),
      ropts);
  home.start();

  constexpr int kOps = 20;
  for (int i = 0; i < kOps; ++i) {
    remote.lock(0);
    auto a = remote.space().view<std::int64_t>("A");
    a.set(0, a.get(0) + 1);
    remote.unlock(0);
  }
  remote.join();
  acceptor.join();
  home.wait_all_joined();

  EXPECT_EQ(remote.stats().reconnects, 1u);
  bool saw_reconnect_event = false;
  for (const dsm::TraceEvent& e : remote_log.snapshot()) {
    if (e.kind == dsm::TraceEvent::Kind::Reconnected) {
      saw_reconnect_event = true;
    }
  }
  EXPECT_TRUE(saw_reconnect_event);
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), kOps);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

// ---- targeted regressions for reliability edge cases -----------------------

TEST(FaultyEndpoint, HeldReorderMessageReleasedByWindowOrClose) {
  // A reorder-held message leaves the holdback in exactly two ways, and
  // neither reads a clock: later sends age it by `reorder_window`, or the
  // wrapper closes.  Only LockRequests are eligible, so the Hellos below
  // pass straight through and do the aging.
  msg::FaultOptions opts;
  opts.send.reorder = 1.0;
  opts.send.reorder_window = 3;
  opts.send.only = {msg::MsgType::LockRequest};
  msg::Message lock_req;
  lock_req.type = msg::MsgType::LockRequest;
  lock_req.sync_id = 7;
  msg::Message m;

  // Released by the window: the held message counts its own send, so it
  // leaves right after the second later send.
  {
    auto [a, b] = msg::make_channel_pair();
    auto faulty = msg::make_faulty(std::move(a), opts);
    faulty->send(lock_req);
    EXPECT_FALSE(b->try_recv(m));  // held
    faulty->send(tagged(1));
    ASSERT_TRUE(b->try_recv(m));
    EXPECT_EQ(m.type, msg::MsgType::Hello);
    EXPECT_FALSE(b->try_recv(m));  // still held: the window is not full
    faulty->send(tagged(2));
    std::vector<std::uint32_t> seen;
    while (b->try_recv(m)) seen.push_back(m.sync_id);
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{2, 7}));
    EXPECT_EQ(faulty->counters().reordered, 1u);
  }

  // Released by close: with no later sends the window never fills, and
  // close() delivers the held message before the peer sees EOF.
  {
    auto [a, b] = msg::make_channel_pair();
    auto faulty = msg::make_faulty(std::move(a), opts);
    faulty->send(lock_req);
    EXPECT_FALSE(b->try_recv(m));
    faulty->close();
    ASSERT_TRUE(b->try_recv(m));
    EXPECT_EQ(m.type, msg::MsgType::LockRequest);
    EXPECT_EQ(m.sync_id, 7u);
    EXPECT_THROW(b->recv(), msg::ChannelClosed);
    EXPECT_EQ(faulty->counters().reordered, 1u);
  }
}

TEST(Reliability, DuplicatedHelloDoesNotResetDedup) {
  // A duplicated (or reordered) copy of the initial Hello delivered after
  // request #1 must not reset the dedup horizon: it carries the same
  // incarnation epoch, so a later retransmit of an already-executed
  // request is still answered from the reply cache, not re-executed.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::EndpointPtr ep = home.attach(1);
  home.start();
  const std::string tag = home.space().image_tag_text();

  ep->send(raw(msg::MsgType::Hello, 0, /*epoch=*/42, tag));
  ep->send(raw(msg::MsgType::LockRequest, 1, 0));
  msg::Message reply = ep->recv();
  ASSERT_EQ(reply.type, msg::MsgType::LockGrant);
  ep->send(raw(msg::MsgType::UnlockRequest, 2, 0, "", no_blocks()));
  reply = ep->recv();
  ASSERT_EQ(reply.type, msg::MsgType::UnlockAck);

  // The late duplicate of the session-opening Hello...
  ep->send(raw(msg::MsgType::Hello, 0, 42, tag));
  // ...followed by a timeout retransmit of the already-executed unlock.
  ep->send(raw(msg::MsgType::UnlockRequest, 2, 0, "", no_blocks()));
  reply = ep->recv();
  EXPECT_EQ(reply.type, msg::MsgType::UnlockAck);  // cached, not re-run
  EXPECT_EQ(reply.seq, 2u);
  EXPECT_GE(home.stats().duplicates_dropped, 1u);

  // The dedup horizon is intact: genuinely fresh requests still work.
  ep->send(raw(msg::MsgType::LockRequest, 3, 0));
  reply = ep->recv();
  EXPECT_EQ(reply.type, msg::MsgType::LockGrant);
  ep->send(raw(msg::MsgType::UnlockRequest, 4, 0, "", no_blocks()));
  reply = ep->recv();
  EXPECT_EQ(reply.type, msg::MsgType::UnlockAck);

  EXPECT_EQ(home.active_ranks(), std::vector<std::uint32_t>{1});
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  ep->close();
  home.stop();
}

TEST(Reliability, DetachedRankReattachesAtOnce) {
  // Rank 1's first incarnation sends a frame the core rejects, and the
  // rank re-attaches right away — before the home has necessarily even
  // stepped that frame.  The attach waits out the Detach, retires the old
  // transport, and installs the new one under the state lock: the old
  // endpoint gets nothing after its Detach, and the new incarnation runs a
  // normal lock/unlock/join.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  msg::EndpointPtr old_ep = home.attach(1);
  home.start();
  const std::string tag = home.space().image_tag_text();

  old_ep->send(raw(msg::MsgType::Hello, 0, /*epoch=*/7, tag));
  old_ep->send(raw(msg::MsgType::LockRequest, 1, /*mutex=*/999));

  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1, home.attach(1));
  remote.lock(0);
  remote.space().view<std::int64_t>("A").set(3, 33);
  remote.unlock(0);
  remote.join();
  home.wait_all_joined();

  // The Detach closed the old transport; a frame sent after it would
  // surface here instead of the close.
  EXPECT_THROW(old_ep->recv(), msg::ChannelClosed);
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(3), 33);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, StaleUnlockAfterMutexMovedOnIsDropped) {
  // Remote 1's UnlockRequest dies with its connection; while it is away
  // reconnecting, the home reclaims the mutex and remote 2 acquires,
  // writes, and releases it.  Remote 1's late retransmit must NOT
  // overwrite remote 2's write: the lock generation moved on, so the home
  // drops the stale diffs and detaches remote 1.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  std::promise<void> gate;
  std::shared_future<void> gate_f = gate.get_future().share();
  msg::FaultOptions f;
  f.send.reset_after = 2;  // sends: Hello, LockRequest, then reset
  dsm::ShardedRemoteOptions r1opts;
  r1opts.retry = fast_retry();
  r1opts.max_reconnects = 1;
  r1opts.reconnect = [&gate_f, &home] {
    gate_f.wait();  // hold the reconnect until remote 2 is done
    return home.attach(1);
  };
  dsm::ShardedRemote r1(gthv(), plat::linux_ia32(), 1,
                        faulty_attach(home, 1, f), r1opts);
  dsm::ShardedRemote r2(gthv(), plat::linux_ia32(), 2, home.attach(2));
  home.start();

  r1.lock(0);
  r1.space().view<std::int64_t>("A").set(0, 111);
  std::thread t1([&r1] { EXPECT_THROW(r1.unlock(0), dsm::HomeUnreachable); });

  r2.lock(0);  // granted once the home reaps remote 1's dead connection
  r2.space().view<std::int64_t>("A").set(0, 222);
  r2.unlock(0);
  gate.set_value();  // now let remote 1 retransmit its stale unlock
  t1.join();

  EXPECT_TRUE(r1.detached());
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), 222);
  r2.join();
  home.wait_all_joined();
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, DeadWaiterGrantDoesNotUnwindIntoMaster) {
  // The master's unlock() hands the mutex to a queued remote whose
  // connection is dead.  The failed cross-peer send must detach that
  // remote, not throw out of the master's call (or detach whichever
  // healthy rank's receiver was executing the release).
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  auto [home_side, remote_side] = msg::make_channel_pair();
  msg::FaultOptions f;
  f.send.reset_after = 2;  // home sends: grant, ack, then reset
  home.attach_endpoint(1, msg::make_faulty(std::move(home_side), f));
  home.start();
  const std::string tag = home.space().image_tag_text();

  remote_side->send(raw(msg::MsgType::Hello, 0, /*epoch=*/7, tag));
  remote_side->send(raw(msg::MsgType::LockRequest, 1, 0));
  msg::Message reply = remote_side->recv();
  ASSERT_EQ(reply.type, msg::MsgType::LockGrant);
  remote_side->send(raw(msg::MsgType::UnlockRequest, 2, 0, "", no_blocks()));
  reply = remote_side->recv();
  ASSERT_EQ(reply.type, msg::MsgType::UnlockAck);

  home.lock(0);
  remote_side->send(raw(msg::MsgType::LockRequest, 3, 0));
  ASSERT_TRUE(wait_for_trace(log, [](const std::vector<dsm::TraceEvent>& ev) {
    int requested = 0;
    for (const dsm::TraceEvent& e : ev) {
      if (e.kind == dsm::TraceEvent::Kind::LockRequested && e.rank == 1) {
        ++requested;
      }
    }
    return requested >= 2;  // the queued request reached the home
  }));
  EXPECT_NO_THROW(home.unlock(0));  // grant to rank 1 dies: contained
  EXPECT_TRUE(home.active_ranks().empty());

  // The master (and the lock) remain fully usable.
  home.lock(0);
  home.unlock(0);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Reliability, DeadBarrierPeerDoesNotUnwindIntoMaster) {
  // Completing a barrier episode sends releases to every entered remote;
  // a dead one must be detached, not unwind ChannelClosed into the thread
  // (here: the master's barrier()) that completed the episode.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), hopts);
  home.set_barrier_count(0, 2);
  auto [home_side, remote_side] = msg::make_channel_pair();
  msg::FaultOptions f;
  f.send.reset_after = 2;  // home sends: grant, ack, then reset
  home.attach_endpoint(1, msg::make_faulty(std::move(home_side), f));
  home.start();
  const std::string tag = home.space().image_tag_text();

  remote_side->send(raw(msg::MsgType::Hello, 0, /*epoch=*/9, tag));
  remote_side->send(raw(msg::MsgType::LockRequest, 1, 0));
  msg::Message reply = remote_side->recv();
  ASSERT_EQ(reply.type, msg::MsgType::LockGrant);
  remote_side->send(raw(msg::MsgType::UnlockRequest, 2, 0, "", no_blocks()));
  reply = remote_side->recv();
  ASSERT_EQ(reply.type, msg::MsgType::UnlockAck);

  remote_side->send(raw(msg::MsgType::BarrierEnter, 3, 0, "", no_blocks()));
  ASSERT_TRUE(wait_for_trace(log, [](const std::vector<dsm::TraceEvent>& ev) {
    for (const dsm::TraceEvent& e : ev) {
      if (e.kind == dsm::TraceEvent::Kind::BarrierEntered && e.rank == 1) {
        return true;
      }
    }
    return false;
  }));
  home.barrier(0);  // completes the episode; the release to rank 1 dies
  EXPECT_TRUE(home.active_ranks().empty());
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

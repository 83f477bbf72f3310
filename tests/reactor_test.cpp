// Transport-shell tests (docs/TRANSPORT.md): the reactor — multiplexing,
// delivery order, close semantics, the flush settlement barrier and write
// coalescing, slow-consumer backpressure over real TCP — and the home
// directory running the full protocol as the reactor's handler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/faulty.hpp"
#include "msg/reactor.hpp"
#include "msg/tcp.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

using namespace std::chrono_literals;

namespace {

msg::Message tagged(std::uint32_t n, std::uint32_t rank = 0) {
  msg::Message m;
  m.type = msg::MsgType::Hello;
  m.sync_id = n;
  m.rank = rank;
  return m;
}

/// Poll until `pred()` holds; the reactor delivers asynchronously.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds limit = 2s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---- Reactor ---------------------------------------------------------------

/// Records every callback, per peer, under one mutex.
struct Recorder final : msg::ReactorHandler {
  std::mutex mu;
  std::map<msg::PeerId, std::vector<std::uint32_t>> received;
  std::map<msg::PeerId, int> closed;
  std::vector<std::pair<msg::PeerId, bool>> order;  // (peer, is_close)

  void on_message(msg::PeerId peer, msg::Message&& m) override {
    std::lock_guard<std::mutex> lk(mu);
    received[peer].push_back(m.sync_id);
    order.emplace_back(peer, false);
  }
  void on_peer_closed(msg::PeerId peer) override {
    std::lock_guard<std::mutex> lk(mu);
    ++closed[peer];
    order.emplace_back(peer, true);
  }
  std::size_t count(msg::PeerId peer) {
    std::lock_guard<std::mutex> lk(mu);
    return received[peer].size();
  }
  int closes(msg::PeerId peer) {
    std::lock_guard<std::mutex> lk(mu);
    return closed[peer];
  }
};

TEST(Reactor, DeliversInOrderAndRepliesOverChannel) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  auto [home, remote] = msg::make_channel_pair();
  reactor.add_peer(1, std::move(home));

  for (std::uint32_t i = 0; i < 32; ++i) remote->send(tagged(i));
  ASSERT_TRUE(wait_until([&] { return rec.count(1) == 32; }));
  {
    std::lock_guard<std::mutex> lk(rec.mu);
    for (std::uint32_t i = 0; i < 32; ++i) EXPECT_EQ(rec.received[1][i], i);
  }

  reactor.send(1, tagged(100));
  msg::Message m = remote->recv();
  EXPECT_EQ(m.sync_id, 100u);
  EXPECT_GE(reactor.stats().frames_in, 32u);
  // The counter bump trails the channel push inside send_some, so the recv
  // above can return before the io thread reaches it — wait, don't expect.
  EXPECT_TRUE(wait_until([&] { return reactor.stats().frames_out >= 1; }));
}

TEST(Reactor, MultiplexesManyChannelPeers) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  constexpr std::uint32_t kPeers = 128;
  std::vector<msg::EndpointPtr> remotes;
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    auto [home, remote] = msg::make_channel_pair();
    reactor.add_peer(p, std::move(home));
    remotes.push_back(std::move(remote));
  }
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    for (std::uint32_t i = 0; i < 8; ++i) remotes[p]->send(tagged(i, p));
    reactor.send(p, tagged(1000 + p));
  }
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lk(rec.mu);
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      if (rec.received[p].size() != 8) return false;
    }
    return true;
  }));
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    msg::Message m = remotes[p]->recv();
    EXPECT_EQ(m.sync_id, 1000 + p);
  }
}

TEST(Reactor, RemovePeerDeliversQueuedMessagesThenClosedOnce) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  auto [home, remote] = msg::make_channel_pair();
  reactor.add_peer(7, std::move(home));

  for (std::uint32_t i = 0; i < 5; ++i) remote->send(tagged(i));
  reactor.remove_peer(7);
  reactor.flush();
  ASSERT_TRUE(wait_until([&] { return rec.closes(7) == 1; }));
  {
    std::lock_guard<std::mutex> lk(rec.mu);
    // Drain-then-close: everything the remote queued before the close
    // still delivers, and the close is the final callback.
    EXPECT_EQ(rec.received[7].size(), 5u);
    ASSERT_FALSE(rec.order.empty());
    EXPECT_TRUE(rec.order.back().second);
    EXPECT_EQ(rec.closed[7], 1);
  }
  // Send-after-remove drops silently (the dead gate): no crash, no frame.
  reactor.send(7, tagged(99));
  reactor.flush();
  EXPECT_EQ(rec.closes(7), 1);
}

/// A Recorder whose handler parks the io thread on the first message from
/// `gate_peer` until release() — so sends posted meanwhile pile up.
struct GatedRecorder final : msg::ReactorHandler {
  Recorder inner;
  msg::PeerId gate_peer = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void on_message(msg::PeerId peer, msg::Message&& m) override {
    if (peer == gate_peer) {
      std::unique_lock<std::mutex> lk(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lk, [this] { return released; });
    }
    inner.on_message(peer, std::move(m));
  }
  void on_peer_closed(msg::PeerId peer) override {
    inner.on_peer_closed(peer);
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(Reactor, FlushSettlesPostedSendsWithoutPolling) {
  GatedRecorder rec;
  msg::Reactor reactor({}, rec);
  auto [gate_home, gate_remote] = msg::make_channel_pair();
  auto [home, remote] = msg::make_channel_pair();
  reactor.add_peer(rec.gate_peer, std::move(gate_home));
  reactor.add_peer(1, std::move(home));

  // Park the io thread inside a handler, post every send, then let it go:
  // the sends reach the loop as one command batch.
  gate_remote->send(tagged(0));
  rec.wait_entered();
  constexpr std::uint32_t kCount = 50;
  for (std::uint32_t i = 0; i < kCount; ++i) reactor.send(1, tagged(i));
  rec.release();
  reactor.flush();
  // After the settlement barrier every queued write was attempted: all 50
  // frames are decodable on the remote side right now.
  msg::Message m;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(remote->try_recv(m)) << "frame " << i << " not settled";
    EXPECT_EQ(m.sync_id, i);
  }
  const msg::ReactorStats s = reactor.stats();
  EXPECT_EQ(s.frames_out, kCount);
  // Write coalescing: messages queued to one peer in one loop iteration
  // merge into gathered sends, so batches number well below frames.
  EXPECT_LT(s.flush_batches, kCount);
  EXPECT_GE(s.flush_batches, 1u);
}

TEST(Reactor, PeerEofDeliversClosed) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  auto [home, remote] = msg::make_channel_pair();
  reactor.add_peer(3, std::move(home));
  remote->send(tagged(1));
  remote->close();
  ASSERT_TRUE(wait_until([&] { return rec.closes(3) == 1; }));
  EXPECT_EQ(rec.count(3), 1u);
}

TEST(Reactor, FaultyResetSurfacesAsClosed) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  auto [home, remote] = msg::make_channel_pair();
  msg::FaultOptions fo;
  fo.seed = 42;
  fo.recv.reset_after = 3;  // the 4th frame pulled through the wrapper RSTs
  reactor.add_peer(9, msg::make_faulty(std::move(home), fo));

  for (std::uint32_t i = 0; i < 10; ++i) {
    try {
      remote->send(tagged(i));
    } catch (const msg::ChannelClosed&) {
      break;  // the injected reset closed the transport under us
    }
  }
  ASSERT_TRUE(wait_until([&] { return rec.closes(9) == 1; }));
  EXPECT_LE(rec.count(9), 3u);
}

// The home-side holdback: a reply the fault layer holds back is released
// by the next send to that peer, with no timer in the reactor.  In the
// protocol that next send is always there, because the remote retransmits
// its request until the reply arrives and the home re-sends the reply.
TEST(Reactor, FaultyPeerHeldReplyReleasedByNextSend) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  auto [home, remote] = msg::make_channel_pair();
  msg::FaultOptions fo;
  fo.send.reorder = 1.0;
  fo.send.reorder_window = 2;
  fo.send.only = {msg::MsgType::LockGrant};
  reactor.add_peer(4, msg::make_faulty(std::move(home), fo));

  msg::Message grant = tagged(1);
  grant.type = msg::MsgType::LockGrant;
  reactor.send(4, grant);
  reactor.flush();
  msg::Message m;
  EXPECT_FALSE(remote->try_recv(m));  // held, and nothing will time it out

  reactor.send(4, tagged(2));  // a Hello: not eligible, sent at once
  reactor.flush();
  ASSERT_TRUE(remote->try_recv(m));
  EXPECT_EQ(m.type, msg::MsgType::Hello);
  ASSERT_TRUE(remote->try_recv(m));
  EXPECT_EQ(m.type, msg::MsgType::LockGrant);
  EXPECT_EQ(m.sync_id, 1u);
}

TEST(Reactor, StopDeliversClosedForEveryPeer) {
  Recorder rec;
  msg::Reactor reactor({}, rec);
  std::vector<msg::EndpointPtr> remotes;
  for (std::uint32_t p = 0; p < 16; ++p) {
    auto [home, remote] = msg::make_channel_pair();
    reactor.add_peer(p, std::move(home));
    remotes.push_back(std::move(remote));
  }
  reactor.stop();
  std::lock_guard<std::mutex> lk(rec.mu);
  for (std::uint32_t p = 0; p < 16; ++p) EXPECT_EQ(rec.closed[p], 1);
}

// ---- Spin, then park --------------------------------------------------------

/// Echoes rank-0 frames back to their sender and counts every frame.  A
/// frame from `gate_peer` holds the io thread inside the handler until the
/// test opens the gate, so a post made meanwhile finds the thread awake.
struct Echo final : msg::ReactorHandler {
  msg::Reactor* reactor = nullptr;
  msg::PeerId gate_peer = ~msg::PeerId{0};
  std::atomic<std::uint32_t> seen{0};
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  int opened = 0;

  void on_message(msg::PeerId peer, msg::Message&& m) override {
    if (peer == gate_peer) {
      std::unique_lock<std::mutex> lk(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lk, [this] { return opened >= entered; });
    }
    seen.fetch_add(1, std::memory_order_release);
    if (m.rank == 0) reactor->send(peer, std::move(m));
  }
  void on_peer_closed(msg::PeerId) override {}
};

// The ReactorWake span is the home's handle time: it must cover every
// iteration that handled a request, whether the io thread found the work
// while spinning or after it parked in epoll_wait.  Each round posts the
// second request while the io thread is held inside the first one's
// handler, so the second is always picked up by the spin, never by
// epoll_wait: two handling iterations per round.
TEST(Reactor, WakeSpanCoversEveryRoundTrip) {
  hdsm::obs::ObsOptions oo;
  oo.enabled = true;
  hdsm::obs::Telemetry tel(oo);
  Echo echo;
  echo.gate_peer = 1;
  msg::ReactorOptions opts;
  opts.telemetry = &tel;
  msg::Reactor reactor(opts, echo);
  echo.reactor = &reactor;
  auto [gate_home, gate_remote] = msg::make_channel_pair();
  auto [home, remote] = msg::make_channel_pair();
  reactor.add_peer(1, std::move(gate_home));
  reactor.add_peer(2, std::move(home));
  reactor.flush();  // both installed: no round's frame rides an Add

  constexpr int kRounds = 100;
  for (int i = 0; i < kRounds; ++i) {
    gate_remote->send(tagged(static_cast<std::uint32_t>(i)));
    {
      std::unique_lock<std::mutex> lk(echo.mu);
      echo.cv.wait(lk, [&] { return echo.entered == i + 1; });
    }
    remote->send(tagged(static_cast<std::uint32_t>(i)));
    {
      std::lock_guard<std::mutex> lk(echo.mu);
      ++echo.opened;
      echo.cv.notify_all();
    }
    EXPECT_EQ(gate_remote->recv().sync_id, static_cast<std::uint32_t>(i));
    EXPECT_EQ(remote->recv().sync_id, static_cast<std::uint32_t>(i));
  }
  reactor.stop();  // the last span closes after its reply went out
  const hdsm::obs::MetricsSnapshot m = tel.metrics();
  EXPECT_GE(m.histograms.at("phase.reactor_wake.ns").count, 2u * kRounds);
  const msg::ReactorStats s = reactor.stats();
  EXPECT_EQ(m.counters.at("reactor.parks"), s.parks);
  EXPECT_LE(s.parks + kRounds, s.wakeups);
}

// Lost-wakeup check for the work/parked handshake.  Posts alternate
// between a reactor send (inbox) and an inbound frame (ready funnel), with
// seeded gaps on both sides of the io spin budget, so they race the io
// thread as it spins, parks and unparks.  Each post must be delivered
// before the next one is made, so a lost wake is never rescued by a later
// post; the waits are safety nets far beyond any scheduling delay.
TEST(Reactor, NoWakeupLostAcrossPark) {
  Echo echo;
  msg::Reactor reactor({}, echo);
  echo.reactor = &reactor;
  auto [home, remote] = msg::make_channel_pair();
  reactor.add_peer(1, std::move(home));

  constexpr std::uint32_t kPosts = 20000;
  std::mt19937 rng(1009);
  std::uniform_int_distribution<int> gap_us(0, 20);
  std::uint32_t inbound = 0;
  for (std::uint32_t i = 0; i < kPosts; ++i) {
    if (i % 2 == 0) {
      reactor.send(1, tagged(i));
      msg::Message m;
      ASSERT_TRUE(remote->recv_for(m, 10s)) << "post " << i << " lost";
      ASSERT_EQ(m.sync_id, i);
    } else {
      remote->send(tagged(i, /*rank=*/1));  // rank 1: no echo
      ++inbound;
      const auto limit = std::chrono::steady_clock::now() + 10s;
      while (echo.seen.load(std::memory_order_acquire) != inbound &&
             std::chrono::steady_clock::now() < limit) {
      }
      ASSERT_EQ(echo.seen.load(), inbound) << "frame " << i << " lost";
    }
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(gap_us(rng));
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  reactor.flush();
  EXPECT_EQ(echo.seen.load(), kPosts / 2);
  EXPECT_EQ(reactor.stats().frames_out, kPosts / 2);
}

// ---- Backpressure over real TCP --------------------------------------------

TEST(Reactor, SlowTcpConsumerEvictedWhileHealthyPeerProgresses) {
  Recorder rec;
  msg::ReactorOptions opts;
  // A slow consumer may hold at most ~256 KiB of queued outbound bytes
  // before eviction; kernel socket buffers absorb some more on top.
  opts.max_write_queue_bytes = std::size_t{256} << 10;
  msg::Reactor reactor(opts, rec);

  msg::TcpListener listener(0);
  msg::EndpointPtr slow_client = msg::tcp_connect(listener.port());
  reactor.add_peer(1, std::shared_ptr<msg::Endpoint>(listener.accept()));
  msg::EndpointPtr fast_client = msg::tcp_connect(listener.port());
  reactor.add_peer(2, std::shared_ptr<msg::Endpoint>(listener.accept()));

  // The fast peer drains everything it is sent, concurrently, until the
  // guard closes its client.
  std::atomic<std::uint32_t> fast_received{0};
  std::thread fast_reader([&] {
    try {
      for (;;) {
        msg::Message m = fast_client->recv();
        fast_received.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const msg::ChannelClosed&) {
    }
  });
  const hdsm::test::OnExit stop_reader{[&] {
    fast_client->close();
    fast_reader.join();
  }};

  // The slow peer never reads: once the kernel buffers fill, its reactor
  // write queue grows past the bound and it is evicted.
  msg::Message big = tagged(0);
  big.payload.resize(std::size_t{64} << 10);
  constexpr std::uint32_t kFastFrames = 200;
  std::uint32_t fast_sent = 0;
  for (std::uint32_t i = 0; i < 4096 && rec.closes(1) == 0; ++i) {
    reactor.send(1, msg::Message{big});
    if (fast_sent < kFastFrames) {
      reactor.send(2, tagged(fast_sent++));
    }
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(wait_until([&] { return rec.closes(1) == 1; }, 10s))
      << "slow consumer was never evicted";
  EXPECT_GE(reactor.stats().backpressure_closes, 1u);

  // Eviction is per peer: the healthy connection keeps flowing.
  while (fast_sent < kFastFrames) reactor.send(2, tagged(fast_sent++));
  reactor.flush();
  ASSERT_TRUE(wait_until(
      [&] { return fast_received.load(std::memory_order_relaxed) >= kFastFrames; },
      10s));
  EXPECT_EQ(rec.closes(2), 0);
}

// ---- the home directory on the reactor -------------------------------------

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), 8)}});
}

TEST(ShardedHome, ReactorModeRunsTheProtocol) {
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  home.start();
  home.set_barrier_count(0, 3);

  auto worker = [&](std::uint32_t rank) {
    dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), rank,
                              home.attach(rank));
    for (int i = 0; i < 5; ++i) {
      remote.lock(0);
      auto a = remote.space().view<std::int64_t>("A");
      a.set(0, a.get(0) + 1);
      remote.unlock(0);
    }
    remote.barrier(0);
    remote.join();
  };
  std::thread t1(worker, 1), t2(worker, 2);
  home.lock(0);
  home.unlock(0);
  home.barrier(0);
  t1.join();
  t2.join();
  home.wait_all_joined();
  EXPECT_TRUE(home.active_ranks().empty());
  auto a = home.space().view<std::int64_t>("A");
  EXPECT_EQ(a.get(0), 10);
}

}  // namespace

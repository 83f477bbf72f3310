// The home directory as one coherence core (docs/SHARDING.md): the wire
// contract of the paper's home node, convergence of disjoint critical
// sections on the one reactor thread, failure containment in the cluster
// harness, and the remote's constructor Hello riding the reconnect path.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"
#include "lock_workload.hpp"
#include "memory/write_trap.hpp"
#include "msg/message.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

using hdsm::test::expect_image;
using hdsm::test::expected_array;
using hdsm::test::gthv;
using hdsm::test::kElems;
using hdsm::test::ops_of;
using hdsm::test::run_workload;

namespace {

void expect_valid(const dsm::TraceLog& log, const char* which) {
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << which << ": " << *err;
}

/// Every frame the home sent, as its remotes received them.
struct FrameLog {
  std::mutex mu;
  std::vector<msg::Message> frames;
};

/// Remote-side decorator that records each frame the remote receives and,
/// given a `sent` log, each frame it sends.
class RecordingEndpoint final : public msg::Endpoint {
 public:
  RecordingEndpoint(msg::EndpointPtr inner, FrameLog& log,
                    FrameLog* sent = nullptr)
      : inner_(std::move(inner)), log_(log), sent_(sent) {}

  void send(const msg::Message& m) override {
    if (sent_ != nullptr) note(*sent_, m);
    inner_->send(m);
  }
  msg::Message recv() override {
    msg::Message m = inner_->recv();
    note(log_, m);
    return m;
  }
  bool recv_for(msg::Message& out, std::chrono::milliseconds t) override {
    if (!inner_->recv_for(out, t)) return false;
    note(log_, out);
    return true;
  }
  void close() override { inner_->close(); }
  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  std::uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }

 private:
  static void note(FrameLog& log, const msg::Message& m) {
    std::lock_guard<std::mutex> lock(log.mu);
    log.frames.push_back(m);
  }

  msg::EndpointPtr inner_;
  FrameLog& log_;
  FrameLog* sent_;
};

}  // namespace

// ---- the paper's home node on the wire -------------------------------------

TEST(ShardedHome, OneShardBehavesLikeSingleHome) {
  // One directory is the paper's single home node: one session per
  // remote and no directory state on the wire — every frame a remote
  // receives carries aux == 0 behind the bare 32-byte header.  The classic
  // DSD protocol converges to the same image.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  FrameLog received;
  dsm::ShardedCluster cluster(
      gthv(), plat::linux_ia32(), {&plat::linux_ia32(), &plat::linux_ia32()},
      opts, [&received](std::uint32_t, std::uint32_t shard,
                        msg::EndpointPtr ep) -> msg::EndpointPtr {
        EXPECT_EQ(shard, 0u);
        return std::make_unique<RecordingEndpoint>(std::move(ep), received);
      });
  constexpr int kOps = 12;
  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.set_barrier_count(0, 3);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) { run_workload(remote, kOps); });

  expect_image(cluster.home().space(), expected_array(2, kOps));
  expect_valid(log, "shard 0");

  std::lock_guard<std::mutex> lock(received.mu);
  std::size_t grants = 0;
  for (const msg::Message& m : received.frames) {
    EXPECT_EQ(m.aux, 0u) << msg::msg_type_name(m.type) << " #" << m.seq;
    EXPECT_EQ(m.wire_size(), 32 + m.tag.size() + m.payload.size())
        << msg::msg_type_name(m.type) << " #" << m.seq;
    grants += m.type == msg::MsgType::LockGrant;
  }
  // Every lock, barrier, and join was answered through the recorder.
  EXPECT_EQ(grants, 2u * kOps);
  EXPECT_EQ(received.frames.size(), 2u * (2 * kOps + 2));
}

// ---- failure containment ---------------------------------------------------

TEST(ShardedCluster, RunRethrowsARemoteFailureNamingItsRank) {
  // An exception escaping a remote thread used to reach std::terminate and
  // kill the whole test binary.  run() must join and rethrow it instead —
  // without hanging, although the master and rank 1 wait in a fixed-count
  // barrier that the dead rank 2 will never enter.
  dsm::ShardedCluster cluster(gthv(), plat::linux_ia32(),
                              {&plat::linux_ia32(), &plat::linux_ia32()});
  try {
    cluster.run(
        [](dsm::ShardedHome& home) {
          home.set_barrier_count(0, 3);
          home.barrier(0);
          home.wait_all_joined();
        },
        [](dsm::ShardedRemote& remote) {
          if (remote.rank() == 2) throw dsm::HomeUnreachable("lost the home");
          remote.barrier(0);
          remote.join();
        });
    FAIL() << "run() swallowed the remote's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2: lost the home");
    EXPECT_THROW(std::rethrow_if_nested(e), dsm::HomeUnreachable);
  }
}

TEST(ShardedCluster, RunJoinsRemotesWhenTheMasterThrows) {
  dsm::ShardedCluster cluster(gthv(), plat::linux_ia32(),
                              {&plat::linux_ia32()});
  bool remote_finished = false;
  EXPECT_THROW(cluster.run(
                   [](dsm::ShardedHome& home) {
                     home.wait_all_joined();
                     throw std::logic_error("master failed");
                   },
                   [&](dsm::ShardedRemote& remote) {
                     remote.join();
                     remote_finished = true;
                   }),
               std::runtime_error);
  EXPECT_TRUE(remote_finished);  // joined before run() rethrew
}

// ---- disjoint critical sections on the one reactor thread -----------------

TEST(ShardedHome, DisjointMutexesConvergeOnOneIoThread) {
  // Three remotes each hammer a different mutex; the one core serves every
  // lock, and the one data plane must merge every release into one
  // coherent image — with every handler on the reactor's one io thread.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.obs.enabled = true;
  opts.trace = &log;
  dsm::ShardedCluster cluster(
      gthv(), plat::linux_ia32(),
      {&plat::linux_ia32(), &plat::linux_ia32(), &plat::linux_ia32()}, opts);
  // Indexed by rank; rank 0 is the master, which locks nothing here.
  constexpr std::uint32_t kMutexOf[] = {0, 0, 1, 3};
  // Each rank works under its own mutex, so nothing orders their critical
  // sections against each other — they must write disjoint elements (a
  // shared element under different locks is a data race by construction).
  constexpr int kOps = 10;
  constexpr std::uint64_t kStripe = kElems / 3;
  const auto stripe_elem = [](std::uint32_t rank, std::uint64_t idx) {
    return (rank - 1) * kStripe + idx % kStripe;
  };
  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.set_barrier_count(0, 4);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        const std::uint32_t mutex = kMutexOf[remote.rank()];
        for (const auto& [idx, delta] : ops_of(remote.rank(), kOps)) {
          remote.lock(mutex);
          auto a = remote.space().view<std::int64_t>("A");
          const std::uint64_t e = stripe_elem(remote.rank(), idx);
          a.set(e, a.get(e) + delta);
          remote.unlock(mutex);
        }
        remote.barrier(0);
        remote.join();
      });

  std::vector<std::int64_t> expected(kElems, 0);
  for (std::uint32_t r = 1; r <= 3; ++r) {
    for (const auto& [idx, delta] : ops_of(r, kOps)) {
      expected[stripe_elem(r, idx)] += delta;
    }
  }
  expect_image(cluster.home().space(), expected);
  expect_valid(log, "home");

  // Every handler ran on the reactor's one io thread: the home recorded
  // exactly one io-* span lane and no worker-lane-* lanes.
  int io_lanes = 0;
  int worker_lanes = 0;
  for (const auto& lane : cluster.home().telemetry()->spans().lanes) {
    if (lane.label.starts_with("io-")) ++io_lanes;
    if (lane.label.starts_with("lane-")) ++worker_lanes;
  }
  EXPECT_EQ(io_lanes, 1);
  EXPECT_EQ(worker_lanes, 0);
}

// ---- incoming updates leave write protection alone -------------------------

TEST(ShardedRemote, GrantsAndReleasesLandSilentlyOnColdAndHotPages) {
  // Page mode: a lock grant or barrier release lands through the alias
  // view and into the shadow.  On a cold page it leaves the page cold and
  // protected, so the next application write to it is detected exactly
  // once (fault_count counts hot pages).  On a hot page it leaves the
  // page's compare clean.  Either way the following release ships exactly
  // the application's write.
  constexpr std::uint64_t kPagedElems = 2048;  // 16 KB: several host pages
  const auto paged = [] {
    return tags::TypeDesc::struct_of(
        "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kPagedElems)}});
  };
  dsm::ShardedHome home(paged(), plat::linux_ia32());
  home.set_barrier_count(0, 3);  // the master and both remotes
  msg::EndpointPtr ep1 = home.attach(1);
  msg::EndpointPtr ep2 = home.attach(2);
  home.start();
  FrameLog received;
  FrameLog sent;
  dsm::ShardedRemote writer(paged(), plat::linux_ia32(), 1, std::move(ep1));
  dsm::ShardedRemote reader(
      paged(), plat::linux_ia32(), 2,
      std::make_unique<RecordingEndpoint>(std::move(ep2), received, &sent));

  hdsm::mem::TrackedRegion& region = reader.space().region();
  ASSERT_TRUE(region.tracking());
  const std::size_t row = reader.space().table().row_of_field("A");
  const std::uint64_t offset = reader.space().table().rows()[row].offset;
  const std::size_t ps = hdsm::mem::Region::host_page_size();
  const auto page_of = [&](std::uint64_t e) {
    return static_cast<std::size_t>((offset + e * 8) / ps);
  };
  // The first element on the last page of A, and the one after it.
  const std::uint64_t last_page = (offset + kPagedElems * 8 - 1) / ps * ps;
  const std::uint64_t e = (last_page - offset) / 8;
  const std::size_t p = page_of(e);
  ASSERT_EQ(page_of(e + 1), p);

  // What `reader` sent since `from`: its one UnlockRequest must carry only
  // `elem`.
  const auto expect_unlock_ships_only = [&](std::size_t from,
                                            std::uint64_t elem) {
    std::lock_guard<std::mutex> lock(sent.mu);
    ASSERT_EQ(sent.frames.size(), from + 2);  // LockRequest, UnlockRequest
    const msg::Message& m = sent.frames.back();
    ASSERT_EQ(m.type, msg::MsgType::UnlockRequest);
    const auto blocks = dsm::decode_update_blocks(m.payload);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].row, row);
    EXPECT_EQ(blocks[0].first_elem, elem);
    EXPECT_EQ(blocks[0].data.size(), 8u);
  };
  const auto frames_sent = [&] {
    std::lock_guard<std::mutex> lock(sent.mu);
    return sent.frames.size();
  };

  // Lock grant.
  writer.lock(0);
  writer.space().view<std::int64_t>("A").set(e, 7);
  writer.unlock(0);
  std::size_t before_frames = frames_sent();
  std::uint64_t faults = region.fault_count();
  reader.lock(0);
  auto a = reader.space().view<std::int64_t>("A");
  EXPECT_EQ(a.get(e), 7);  // the grant updated page p...
  EXPECT_FALSE(region.page_dirty(p));  // ...which stayed cold
  EXPECT_EQ(region.fault_count(), faults);
  a.set(e + 1, 8);
  EXPECT_EQ(region.fault_count(), faults + 1);
  a.set(e + 1, 9);  // already detected: no second detection
  EXPECT_EQ(region.fault_count(), faults + 1);
  reader.unlock(0);
  expect_unlock_ships_only(before_frames, e + 1);

  // Page p is hot now: the reader wrote it in the interval its unlock
  // closed.  A barrier release onto it stays out of the next diff.
  const auto release_onto_p = [&](std::int64_t value) {
    std::thread master([&] { home.barrier(0); });
    std::thread writer_thread([&] {
      writer.space().view<std::int64_t>("A").set(e, value);
      writer.barrier(0);
    });
    reader.barrier(0);
    writer_thread.join();
    master.join();
    EXPECT_EQ(a.get(e), value);
  };
  ASSERT_TRUE(region.page_dirty(p));
  release_onto_p(70);
  // The reader's barrier collected once (clean), so p has as many clean
  // collects behind it as one.
  EXPECT_EQ(region.page_dirty(p),
            hdsm::mem::TrackedRegion::kCoolAfter > 1);
  before_frames = frames_sent();
  reader.lock(0);
  a.set(e + 1, 90);
  EXPECT_TRUE(region.page_dirty(p));
  reader.unlock(0);
  expect_unlock_ships_only(before_frames, e + 1);

  // Releases with no write of the reader's in between cool p; one more
  // lands on the cold page, and the next write is detected exactly once.
  for (std::size_t i = 0; i < hdsm::mem::TrackedRegion::kCoolAfter; ++i) {
    release_onto_p(71 + static_cast<std::int64_t>(i));
  }
  EXPECT_FALSE(region.page_dirty(p));
  faults = region.fault_count();
  release_onto_p(70);
  EXPECT_FALSE(region.page_dirty(p));
  EXPECT_EQ(region.fault_count(), faults);
  before_frames = frames_sent();
  reader.lock(0);
  EXPECT_EQ(region.fault_count(), faults);
  a.set(e + 1, 91);
  EXPECT_EQ(region.fault_count(), faults + 1);
  a.set(e + 1, 92);  // already detected: no second detection
  EXPECT_EQ(region.fault_count(), faults + 1);
  reader.unlock(0);
  expect_unlock_ships_only(before_frames, e + 1);

  writer.join();
  reader.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(e), 70);
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(e + 1), 92);
  home.stop();
}

// ---- the constructor Hello rides the reconnect path ------------------------

TEST(ShardedRemote, HelloOnAClosedEndpointRedials) {
  // The transport dies before the remote is even constructed.  The Hello
  // the constructor sends must take the same reconnect path as every
  // request — redial, then attach — instead of letting ChannelClosed
  // escape the constructor.
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  home.start();
  msg::EndpointPtr dead = home.attach(1);
  dead->close();

  dsm::ShardedRemoteOptions ropts;
  ropts.reconnect = [&home] {
    auto [home_side, remote_side] = msg::make_channel_pair();
    home.attach_endpoint(1, std::move(home_side));
    return std::move(remote_side);
  };
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1, std::move(dead),
                            ropts);
  EXPECT_EQ(remote.stats().reconnects, 1u);

  remote.lock(0);
  remote.space().view<std::int64_t>("A").set(5, 42);
  remote.unlock(0);
  remote.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(5), 42);
  home.stop();
}

TEST(ShardedRemote, HelloOnAClosedEndpointWithoutRedialIsHomeUnreachable) {
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  msg::EndpointPtr dead = home.attach(1);
  dead->close();
  EXPECT_THROW(
      dsm::ShardedRemote(gthv(), plat::linux_ia32(), 1, std::move(dead)),
      dsm::HomeUnreachable);
  home.stop();
}

// The sharded home directory (docs/SHARDING.md): deterministic shard-map
// placement pinned by golden values, map-epoch revalidation on the wire,
// the one-shard wire contract (the paper's home node), cross-shard release
// consistency via pending-mask drains, online region migration, and the
// scheduler wiring that turns per-shard busy telemetry into migrations.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/shard_map.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"
#include "msg/message.hpp"
#include "obj/object_space.hpp"
#include "obs/telemetry.hpp"
#include "sched/shard_balance.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
namespace sched = hdsm::sched;

using namespace std::chrono_literals;

namespace {

constexpr std::uint64_t kElems = 64;

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kElems)}});
}

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

std::vector<std::byte> no_blocks() { return dsm::encode_update_blocks({}); }

/// Same deterministic op streams as fault_test: the expected master image
/// is computable without running the cluster.
std::vector<std::pair<std::uint64_t, std::int64_t>> ops_of(std::uint32_t rank,
                                                           int ops) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> v;
  std::mt19937_64 rng(500 + rank);
  for (int i = 0; i < ops; ++i) {
    v.emplace_back(rng() % kElems,
                   static_cast<std::int64_t>(rng() % 100) - 50);
  }
  return v;
}

std::vector<std::int64_t> expected_array(std::uint32_t num_remotes, int ops) {
  std::vector<std::int64_t> e(kElems, 0);
  for (std::uint32_t r = 1; r <= num_remotes; ++r) {
    for (const auto& [idx, delta] : ops_of(r, ops)) e[idx] += delta;
  }
  return e;
}

void run_workload(dsm::ShardedRemote& remote, int ops, std::uint32_t lock) {
  for (const auto& [idx, delta] : ops_of(remote.rank(), ops)) {
    remote.lock(lock);
    auto a = remote.space().view<std::int64_t>("A");
    a.set(idx, a.get(idx) + delta);
    remote.unlock(lock);
  }
  remote.barrier(0);
  remote.join();
}

void expect_image(dsm::GlobalSpace& space,
                  const std::vector<std::int64_t>& expected) {
  auto a = space.view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
  }
}

void expect_valid(const dsm::TraceLog& log, const char* which) {
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << which << ": " << *err;
}

/// Every frame the home sent, as its remotes received them.
struct FrameLog {
  std::mutex mu;
  std::vector<msg::Message> frames;
};

/// Remote-side decorator that records each frame the remote receives.
class RecordingEndpoint final : public msg::Endpoint {
 public:
  RecordingEndpoint(msg::EndpointPtr inner, FrameLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void send(const msg::Message& m) override { inner_->send(m); }
  msg::Message recv() override {
    msg::Message m = inner_->recv();
    note(m);
    return m;
  }
  bool recv_for(msg::Message& out, std::chrono::milliseconds t) override {
    if (!inner_->recv_for(out, t)) return false;
    note(out);
    return true;
  }
  void close() override { inner_->close(); }
  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  std::uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }

 private:
  void note(const msg::Message& m) {
    std::lock_guard<std::mutex> lock(log_.mu);
    log_.frames.push_back(m);
  }

  msg::EndpointPtr inner_;
  FrameLog& log_;
};

}  // namespace

// ---- ShardMap: deterministic placement + wire form -------------------------

TEST(ShardMap, GoldenHashValuesArePinned) {
  // FNV-1a (64-bit, offset 0xcbf29ce484222325, prime 0x100000001b3) over
  // the region id's four little-endian bytes, xor-folded, mod num_shards.
  // These values are part of the wire protocol: every node, whatever its
  // platform or standard library, must place regions identically.  If this
  // test fails, the hash changed and mixed-version clusters will corrupt
  // routing — bump the protocol instead.
  EXPECT_EQ(dsm::ShardMap::hash_shard(0, 2), 0u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(1, 2), 1u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(2, 2), 1u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(7, 2), 0u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(0, 4), 2u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(1, 4), 3u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(3, 4), 1u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(7, 4), 0u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(0, 8), 2u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(2, 8), 7u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(5, 8), 5u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(16, 8), 0u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(0, 32), 10u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(1, 32), 19u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(100, 32), 24u);
  EXPECT_EQ(dsm::ShardMap::hash_shard(1000, 32), 4u);
  // One shard: everything lands on shard 0.
  for (std::uint32_t r = 0; r < 64; ++r) {
    EXPECT_EQ(dsm::ShardMap::hash_shard(r, 1), 0u);
  }
}

TEST(ShardMap, GoldenObjectIdRegionPlacementsArePinned) {
  // The object-granularity layer (hdsm::obj, docs/OBJECTS.md) stripes
  // 64-bit object ids over regions with the 64-bit twin of hash_shard:
  // FNV-1a over the id's eight little-endian bytes, xor-folded, mod
  // num_regions.  Same never-std::hash rule, same reason — an object's
  // region (and through the region, its shard) is wire-protocol state.
  // The object id namespace is ((class + 1) << 48) | index.
  const auto id = [](std::uint32_t cls, std::uint64_t index) {
    return (static_cast<std::uint64_t>(cls + 1) << 48) | index;
  };
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(0, 0), 2), 0u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(0, 4), 2), 1u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(0, 0), 4), 2u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(0, 100), 16), 7u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(1, 0), 16), 5u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(0, 0), 64), 46u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(0, 999999), 64), 57u);
  EXPECT_EQ(hdsm::obj::ObjectLayout::hash_region(id(2, 123456), 64), 46u);
}

TEST(ShardMap, OverridesBumpEpochAndRoundTrip) {
  dsm::ShardMap map(4);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.shard_of(0), dsm::ShardMap::hash_shard(0, 4));

  map.set_override(0, 3);
  EXPECT_EQ(map.epoch(), 2u);
  EXPECT_EQ(map.shard_of(0), 3u);
  EXPECT_EQ(map.override_count(), 1u);

  // Moving a region back to its hash home erases the table entry but
  // still bumps the epoch: remotes must revalidate either way.
  map.set_override(0, dsm::ShardMap::hash_shard(0, 4));
  EXPECT_EQ(map.epoch(), 3u);
  EXPECT_EQ(map.override_count(), 0u);
  EXPECT_EQ(map.shard_of(0), dsm::ShardMap::hash_shard(0, 4));

  map.set_override(5, 1);
  map.set_override(9, 2);
  const std::vector<std::byte> wire = map.serialize();
  const auto back = dsm::ShardMap::deserialize(wire.data(), wire.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, map);
  EXPECT_EQ(back->epoch(), 5u);
  EXPECT_EQ(back->shard_of(5), 1u);

  EXPECT_THROW(map.set_override(0, 4), std::out_of_range);
  EXPECT_THROW(dsm::ShardMap(0), std::invalid_argument);
  EXPECT_THROW(dsm::ShardMap(33), std::invalid_argument);
}

TEST(ShardMap, DeserializeRejectsMalformedInput) {
  dsm::ShardMap map(2);
  map.set_override(1, 0);
  std::vector<std::byte> wire = map.serialize();

  EXPECT_FALSE(dsm::ShardMap::deserialize(nullptr, 0).has_value());
  EXPECT_FALSE(dsm::ShardMap::deserialize(wire.data(), 11).has_value());
  // Truncated override table.
  EXPECT_FALSE(
      dsm::ShardMap::deserialize(wire.data(), wire.size() - 1).has_value());
  // num_shards out of range.
  std::vector<std::byte> bad = wire;
  bad[3] = static_cast<std::byte>(0);
  EXPECT_FALSE(dsm::ShardMap::deserialize(bad.data(), bad.size()).has_value());
  // Override target >= num_shards.
  bad = wire;
  bad[wire.size() - 1] = static_cast<std::byte>(7);
  EXPECT_FALSE(dsm::ShardMap::deserialize(bad.data(), bad.size()).has_value());
}

TEST(ShardMap, FrameHeaderCarriesEpochAndAux) {
  // map_epoch and aux ride the 40-byte frame header (docs/PROTOCOL.md §1)
  // and must survive an encode/decode round trip bit-exactly.
  msg::Message m = raw(msg::MsgType::LockGrant, 17, 3);
  m.map_epoch = 0x01020304u;
  m.aux = 0xa5a50f0fu;
  const std::vector<std::byte> frame = msg::encode_frame(m);
  msg::FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  msg::Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.type, msg::MsgType::LockGrant);
  EXPECT_EQ(out.seq, 17u);
  EXPECT_EQ(out.sync_id, 3u);
  EXPECT_EQ(out.map_epoch, 0x01020304u);
  EXPECT_EQ(out.aux, 0xa5a50f0fu);
  // The new message types decode as themselves.
  for (const msg::MsgType t : {msg::MsgType::WrongShard,
                               msg::MsgType::PendingPull,
                               msg::MsgType::PendingReply}) {
    msg::Message q = raw(t, 1, 0);
    const std::vector<std::byte> f2 = msg::encode_frame(q);
    msg::FrameDecoder d2;
    d2.feed(f2.data(), f2.size());
    msg::Message o2;
    ASSERT_TRUE(d2.next(o2));
    EXPECT_EQ(o2.type, t);
  }
}

// ---- single-shard parity ---------------------------------------------------

TEST(ShardedHome, OneShardBehavesLikeSingleHome) {
  // num_shards == 1 is the paper's single home node: one session per
  // remote, no redirects, no pulls, and no sharding state on the wire —
  // every frame a remote receives carries aux == 0 (no pending mask) and
  // map_epoch == 1 (the map never changes), and none is a WrongShard or
  // PendingReply.  The classic DSD protocol converges to the same image.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 1;
  opts.shard_traces = {&log};
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
      [&](dsm::ShardedRemote& remote) { run_workload(remote, kOps, 0); });

  expect_image(cluster.home().space(), expected_array(2, kOps));
  const dsm::ShareStats total = cluster.total_stats();
  EXPECT_EQ(total.wrong_shard_redirects, 0u);
  EXPECT_EQ(total.pending_pulls, 0u);
  EXPECT_EQ(total.region_migrations, 0u);
  expect_valid(log, "shard 0");

  std::lock_guard<std::mutex> lock(received.mu);
  std::size_t grants = 0;
  for (const msg::Message& m : received.frames) {
    EXPECT_EQ(m.aux, 0u) << msg::msg_type_name(m.type) << " #" << m.seq;
    EXPECT_EQ(m.map_epoch, 1u) << msg::msg_type_name(m.type) << " #" << m.seq;
    EXPECT_NE(m.type, msg::MsgType::WrongShard);
    EXPECT_NE(m.type, msg::MsgType::PendingReply);
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

// ---- multi-shard convergence + cross-shard release consistency -------------

TEST(ShardedHome, FourShardsConvergeAcrossRegions) {
  // Three remotes each hammer a different mutex; with four shards the
  // hash map pins their regions to three distinct directory shards
  // (0→2, 1→3, 3→1), yet the shared data plane must merge every release
  // into one coherent image — and one reactor thread serves every shard.
  std::vector<dsm::TraceLog> logs(4);
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 4;
  opts.obs.enabled = true;
  for (auto& l : logs) opts.shard_traces.push_back(&l);
  dsm::ShardedCluster cluster(
      gthv(), plat::linux_ia32(),
      {&plat::linux_ia32(), &plat::linux_ia32(), &plat::linux_ia32()}, opts);
  // Indexed by rank; rank 0 is the master, which locks nothing here.
  constexpr std::uint32_t kMutexOf[] = {0, 0, 1, 3};
  const std::uint32_t shard1 = cluster.home().shard_of(kMutexOf[1]);
  const std::uint32_t shard2 = cluster.home().shard_of(kMutexOf[2]);
  const std::uint32_t shard3 = cluster.home().shard_of(kMutexOf[3]);
  ASSERT_NE(shard1, shard2);
  ASSERT_NE(shard1, shard3);
  ASSERT_NE(shard2, shard3);
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
        // Each rank works under its own mutex, on its own shard.
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
  EXPECT_EQ(cluster.total_stats().wrong_shard_redirects, 0u);
  for (int s = 0; s < 4; ++s) expect_valid(logs[s], "shard");

  // Every shard's handlers ran on the reactor's one io thread: the home
  // recorded exactly one io-* span lane and no worker-lane-* lanes.
  int io_lanes = 0;
  int worker_lanes = 0;
  for (const auto& lane : cluster.home().telemetry()->spans().lanes) {
    if (lane.label.starts_with("io-")) ++io_lanes;
    if (lane.label.starts_with("lane-")) ++worker_lanes;
  }
  EXPECT_EQ(io_lanes, 1);
  EXPECT_EQ(worker_lanes, 0);
}

TEST(ShardedHome, CrossShardReleaseIsVisibleAfterAcquire) {
  // Release consistency across shards: rank 1 releases its write at the
  // shard owning mutex 0; rank 2 then acquires mutex 1 — owned by the
  // *other* shard — and must still observe the write.  The grant's aux
  // bitmask names the shard holding rank 2's pending bytes and the remote
  // drains it with PendingPull before the acquire returns.
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 2;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  ASSERT_EQ(home.shard_of(0), 0u);
  ASSERT_EQ(home.shard_of(1), 1u);
  dsm::ShardedRemote r1(gthv(), plat::linux_ia32(), 1, home.attach(1));
  dsm::ShardedRemote r2(gthv(), plat::linux_ia32(), 2, home.attach(2));
  home.start();

  r1.lock(0);
  r1.space().view<std::int64_t>("A").set(7, 1234);
  r1.unlock(0);

  r2.lock(1);
  EXPECT_EQ(r2.space().view<std::int64_t>("A").get(7), 1234);
  r2.unlock(1);

  r1.join();
  r2.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(7), 1234);
  // The drain really crossed shards (it also carried rank 2's initial
  // full-image grant, seeded at shard 0).
  EXPECT_GE(home.stats().pending_pulls, 1u);
  home.stop();
}

// ---- WrongShard redirects + migration --------------------------------------

TEST(ShardedHome, StaleMapRequestIsRedirectedNotMisapplied) {
  // The remote caches the map at attach; migrating mutex 0 behind its back
  // makes its next request land at the old owner, which must bounce it
  // (WrongShard + fresh map) rather than serve wrong-home state.  The
  // retried request succeeds at the new owner transparently.
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 2;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1, home.attach(1));
  home.start();

  remote.lock(0);  // cached map is fresh: no bounce
  remote.unlock(0);
  EXPECT_EQ(remote.stats().wrong_shard_redirects, 0u);
  EXPECT_EQ(remote.shard_map().epoch(), 1u);

  const auto pause = home.migrate_region(0, 1);
  EXPECT_GE(pause.count(), 0);
  EXPECT_EQ(home.shard_of(0), 1u);

  remote.lock(0);  // routed by the stale map → bounced → re-issued
  remote.space().view<std::int64_t>("A").set(0, 77);
  remote.unlock(0);
  EXPECT_GE(remote.stats().wrong_shard_redirects, 1u);
  EXPECT_EQ(remote.shard_map().epoch(), 2u);
  EXPECT_EQ(remote.shard_map().shard_of(0), 1u);
  EXPECT_GE(home.stats().wrong_shard_redirects, 1u);
  EXPECT_EQ(home.stats().region_migrations, 1u);

  remote.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), 77);
  home.stop();
}

TEST(ShardedHome, MigratedReplyCacheAnswersRedirectedRetry) {
  // The lost-grant window: a request executes at the old owner, the region
  // migrates, and the remote — never having seen the reply — re-issues at
  // the new owner with aux = the bounced attempt's seq.  The new owner
  // must answer from the reply cache that traveled with the region, not
  // execute the request a second time.
  dsm::TraceLog log0;
  dsm::TraceLog log1;
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 2;
  opts.shard_traces = {&log0, &log1};
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  std::vector<msg::EndpointPtr> eps = home.attach(1);
  ASSERT_EQ(eps.size(), 2u);
  home.start();
  const std::string tag = home.space().image_tag_text();

  eps[0]->send(raw(msg::MsgType::Hello, 0, /*epoch=*/21, tag));
  eps[1]->send(raw(msg::MsgType::Hello, 0, 21, tag));
  eps[0]->send(raw(msg::MsgType::LockRequest, 1, 0));
  msg::Message reply = eps[0]->recv();
  ASSERT_EQ(reply.type, msg::MsgType::LockGrant);
  ASSERT_EQ(reply.seq, 1u);

  // The region moves — carrying the cached grant keyed by seq 1.
  home.migrate_region(0, 1);

  // A timeout retransmit of the request — same seq, as a real remote
  // retries — reaches the old owner: bounced at the shell with the
  // authoritative map, never re-executed.
  eps[0]->send(raw(msg::MsgType::LockRequest, 1, 0));
  reply = eps[0]->recv();
  ASSERT_EQ(reply.type, msg::MsgType::WrongShard);
  EXPECT_EQ(reply.seq, 1u);
  EXPECT_EQ(reply.map_epoch, 2u);
  const auto fresh =
      dsm::ShardMap::deserialize(reply.payload.data(), reply.payload.size());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->epoch(), 2u);
  EXPECT_EQ(fresh->shard_of(0), 1u);

  // Re-issue at the new owner, aux = the bounced attempt's seq.  The
  // migrated cache answers; the lock is NOT granted twice.
  msg::Message retry = raw(msg::MsgType::LockRequest, 2, 0);
  retry.aux = 1;
  eps[1]->send(retry);
  reply = eps[1]->recv();
  EXPECT_EQ(reply.type, msg::MsgType::LockGrant);
  EXPECT_EQ(reply.seq, 2u);

  // The episode completes normally at the new owner.
  eps[1]->send(raw(msg::MsgType::UnlockRequest, 3, 0, "", no_blocks()));
  reply = eps[1]->recv();
  EXPECT_EQ(reply.type, msg::MsgType::UnlockAck);

  bool replayed = false;
  for (const dsm::TraceEvent& e : log1.snapshot()) {
    if (e.kind == dsm::TraceEvent::Kind::ReplyResent) replayed = true;
  }
  EXPECT_TRUE(replayed);
  expect_valid(log0, "old owner");
  expect_valid(log1, "new owner");
  for (auto& ep : eps) ep->close();
  home.stop();
}

TEST(ShardedHome, OnlineMigrationUnderLoadLosesNothing) {
  // Regions migrate continuously while two remotes hammer the mutex; every
  // grant and every released byte must survive each handoff.
  std::vector<dsm::TraceLog> logs(2);
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 2;
  opts.shard_traces = {&logs[0], &logs[1]};
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  dsm::ShardedRemote r1(gthv(), plat::linux_ia32(), 1, home.attach(1));
  dsm::ShardedRemote r2(gthv(), plat::linux_ia32(), 2, home.attach(2));
  home.start();
  home.set_barrier_count(0, 3);

  constexpr int kOps = 25;
  std::atomic<bool> done{false};
  std::thread t1([&] { run_workload(r1, kOps, 0); });
  std::thread t2([&] { run_workload(r2, kOps, 0); });
  std::thread migrator([&] {
    std::uint32_t dst = 1;
    while (!done.load()) {
      home.migrate_region(0, dst);
      dst ^= 1u;
      std::this_thread::sleep_for(300us);
    }
  });
  home.barrier(0);
  t1.join();
  t2.join();
  done.store(true);
  migrator.join();
  home.wait_all_joined();

  expect_image(home.space(), expected_array(2, kOps));
  EXPECT_GE(home.stats().region_migrations, 2u);
  expect_valid(logs[0], "shard 0");
  expect_valid(logs[1], "shard 1");
  home.stop();
}

// ---- scheduler wiring ------------------------------------------------------

TEST(ShardBalance, PlansMovesOffTheHotShardDeterministically) {
  // One shard explains all the busy time; the policy must move regions off
  // it, and the plan must be a pure function of its inputs.
  const std::vector<sched::HotRegion> regions = {
      {0, 2}, {3, 1}, {5, 2}, {9, 2}};
  std::vector<std::uint64_t> busy = {0, 0, 900'000'000, 0};
  const std::uint64_t wall = 1'000'000'000;

  const auto plan = sched::plan_shard_moves(4, regions, busy, wall);
  ASSERT_FALSE(plan.empty());
  for (const sched::RegionMove& mv : plan) {
    EXPECT_EQ(mv.src, 2u);   // only the hot shard sheds load
    EXPECT_NE(mv.dst, 2u);
    bool hosted = false;
    for (const auto& r : regions) {
      if (r.region == mv.region && r.owner == mv.src) hosted = true;
    }
    EXPECT_TRUE(hosted) << "moved a region the source does not own";
  }
  EXPECT_EQ(plan, sched::plan_shard_moves(4, regions, busy, wall));

  // Level load, nothing to do.
  busy = {250'000'000, 250'000'000, 250'000'000, 250'000'000};
  EXPECT_TRUE(sched::plan_shard_moves(4, regions, busy, wall).empty());
  // Degenerate inputs are refused rather than mis-planned.
  EXPECT_TRUE(sched::plan_shard_moves(1, regions, busy, wall).empty());
  EXPECT_TRUE(sched::plan_shard_moves(4, {}, busy, wall).empty());
  EXPECT_TRUE(sched::plan_shard_moves(4, regions, busy, 0).empty());
  EXPECT_TRUE(sched::plan_shard_moves(4, regions, {0, 0}, wall).empty());
  EXPECT_TRUE(
      sched::plan_shard_moves(2, {{0, 5}}, {900, 0}, wall).empty());
}

TEST(ShardBalance, ReadsBusyCountersFromTelemetryRow) {
  hdsm::obs::MetricsSnapshot metrics;
  metrics.counters["shard.0.busy_ns"] = 5;
  metrics.counters["shard.2.busy_ns"] = 7;
  metrics.counters["unrelated"] = 99;
  const auto busy = sched::shard_busy_from_metrics(metrics, 3);
  EXPECT_EQ(busy, (std::vector<std::uint64_t>{5, 0, 7}));
}

TEST(ShardedHome, TelemetryScrapeDrivesRebalance) {
  // The full adaptive loop from the issue: run a hot-region workload, pull
  // the cluster scrape, lift the per-shard busy signal out of the rank-0
  // row, plan moves, and execute them online.
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 4;
  opts.obs.enabled = true;
  dsm::ShardedCluster cluster(gthv(), plat::linux_ia32(),
                              {&plat::linux_ia32(), &plat::linux_ia32()},
                              opts);
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kOps = 15;
  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.set_barrier_count(0, 3);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) { run_workload(remote, kOps, 0); });
  const std::uint64_t wall = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  const hdsm::obs::ClusterTelemetry view = cluster.telemetry();
  ASSERT_FALSE(view.nodes.empty());
  const hdsm::obs::NodeSnapshot& row = view.nodes.front();
  ASSERT_EQ(row.rank, 0u);
  // Every shard publishes its counters into the merged rank-0 row.
  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    EXPECT_TRUE(row.metrics.counters.count(prefix + "busy_ns")) << prefix;
    EXPECT_TRUE(row.metrics.counters.count(prefix + "ops")) << prefix;
    EXPECT_TRUE(row.metrics.counters.count(prefix + "migrations")) << prefix;
    EXPECT_TRUE(row.metrics.counters.count(prefix + "wrong_shard")) << prefix;
  }

  dsm::ShardedHome& home = cluster.home();
  const std::uint32_t hot = home.shard_of(0);
  std::vector<std::uint64_t> busy =
      sched::shard_busy_from_metrics(row.metrics, 4);
  EXPECT_GT(busy[hot], 0u);  // the busy signal flowed through the scrape

  // Sharpen the measured signal into an unambiguous imbalance (short test
  // runs leave most of the wall clock idle) and close the loop.
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (s != hot) busy[s] = 0;
  }
  const auto plan = sched::plan_shard_moves(
      4, {{0, hot}}, busy, std::min<std::uint64_t>(wall, busy[hot] + 1));
  ASSERT_FALSE(plan.empty());
  // With a single region carrying all the load the planner may shuffle it
  // more than once while it balances; the contract is that the plan sheds
  // the hot shard and every move executes online.
  bool shed_hot = false;
  for (const sched::RegionMove& mv : plan) {
    if (mv.src == hot && mv.dst != hot) shed_hot = true;
    home.migrate_region(mv.region, mv.dst);
    EXPECT_EQ(home.shard_of(mv.region), mv.dst);
  }
  EXPECT_TRUE(shed_hot);
  EXPECT_GT(home.shard_map().epoch(), 1u);
}

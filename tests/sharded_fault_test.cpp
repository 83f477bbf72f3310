// Fault injection against the sharded home directory (docs/SHARDING.md):
// every shard session of every remote runs behind a FaultyEndpoint, with
// regions migrating between shards mid-run.  The acceptance bar is the
// same as the single-home fault suite — the master image converges to the
// fault-free expectation and every shard's protocol trace validates — so
// no grant, ack, or released byte may be lost to the combination of
// faults, redirects, and handoffs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "dsm/trace.hpp"
#include "msg/faulty.hpp"
#include "obj/object_dsm.hpp"
#include "replicated_harness.hpp"
#include "test_time.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
namespace obj = hdsm::obj;

using namespace std::chrono_literals;

namespace {

constexpr std::uint64_t kElems = 64;

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kElems)}});
}

dsm::RetryPolicy fast_retry() {
  dsm::RetryPolicy p;
  p.timeout = hdsm::test::scaled(25ms);
  p.backoff = 1.5;
  p.max_timeout = hdsm::test::scaled(200ms);
  p.max_retries = 12;
  return p;
}

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

/// Per-shard protocol validity, plus the cross-shard exactly-once bar:
/// a request's updates must be applied at exactly one shard, ever — a
/// (rank, seq) pair appearing in two shard logs means a duplicate
/// re-executed after a migration.
void validate_shard_traces(const std::vector<dsm::TraceLog>& logs) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> applied;
  for (std::uint32_t s = 0; s < logs.size(); ++s) {
    const auto snap = logs[s].snapshot();
    const auto err = dsm::validate_trace(snap);
    EXPECT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
    for (const auto& ev : snap) {
      if (ev.kind != dsm::TraceEvent::Kind::UpdatesApplied || ev.req == 0) {
        continue;
      }
      const auto [it, fresh] = applied.emplace(
          std::make_pair(ev.rank, ev.req), s);
      EXPECT_TRUE(fresh) << "rank " << ev.rank << " request #" << ev.req
                         << " applied at shard " << it->second
                         << " and again at shard " << s;
    }
  }
}

/// Run `num_remotes` remotes against `num_shards` home shards with every
/// (rank, shard) session behind its own deterministic FaultyEndpoint.
/// When `migrate`, a driver thread keeps handing mutex 0 between shards
/// for the whole run.  Converges, validates every shard trace.
void converge_sharded(const msg::FaultOptions& fault, std::uint32_t num_shards,
                      std::uint32_t num_remotes, int ops, bool migrate,
                      dsm::CodecMode codec = dsm::CodecMode::Off) {
  std::vector<dsm::TraceLog> logs(num_shards);
  dsm::ShardedHomeOptions opts;
  opts.num_shards = num_shards;
  for (auto& l : logs) opts.shard_traces.push_back(&l);
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.dsd.codec = codec;
  std::vector<const plat::PlatformDesc*> platforms(num_remotes,
                                                   &plat::linux_ia32());
  dsm::ShardedCluster cluster(
      gthv(), plat::linux_ia32(), platforms, opts,
      [&fault](std::uint32_t rank, std::uint32_t shard, msg::EndpointPtr ep) {
        msg::FaultOptions per_session = fault;
        per_session.seed = fault.seed + rank * 64 + shard;
        return msg::make_faulty(std::move(ep), per_session);
      },
      ropts);

  std::atomic<bool> done{false};
  std::thread migrator;
  if (migrate) {
    migrator = std::thread([&] {
      std::uint32_t dst = 1 % num_shards;
      while (!done.load()) {
        cluster.home().migrate_region(0, dst);
        dst = (dst + 1) % num_shards;
        std::this_thread::sleep_for(500us);
      }
    });
  }

  // A rank that dies (e.g. HomeUnreachable) fails the test with its rank
  // named; the migrator below is still stopped and joined either way.
  EXPECT_NO_THROW(cluster.run(
      [&](dsm::ShardedHome& home) {
        home.set_barrier_count(0, num_remotes + 1);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        for (const auto& [idx, delta] : ops_of(remote.rank(), ops)) {
          remote.lock(0);
          auto a = remote.space().view<std::int64_t>("A");
          a.set(idx, a.get(idx) + delta);
          remote.unlock(0);
        }
        remote.barrier(0);
        remote.join();
      }));
  done.store(true);
  if (migrator.joinable()) migrator.join();

  const std::vector<std::int64_t> expected = expected_array(num_remotes, ops);
  auto a = cluster.home().space().view<std::int64_t>("A");
  bool diverged = false;
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
    if (a.get(i) != expected[i]) diverged = true;
  }
  if (diverged && std::getenv("HDSM_DUMP_TRACE") != nullptr) {
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      for (const auto& ev : logs[s].snapshot()) {
        std::fprintf(stderr, "sh%u #%llu %s rank=%u sync=%u req=%llu b=%llu\n",
                     s, static_cast<unsigned long long>(ev.seq),
                     dsm::trace_kind_name(ev.kind), ev.rank, ev.sync_id,
                     static_cast<unsigned long long>(ev.req),
                     static_cast<unsigned long long>(ev.bytes));
      }
    }
  }
  validate_shard_traces(logs);
  if (migrate) {
    EXPECT_GE(cluster.home().stats().region_migrations, 1u);
  }
}

}  // namespace

TEST(ShardedFaults, ConvergesUnderDrop) {
  msg::FaultOptions f;
  f.send.drop = 0.2;
  f.recv.drop = 0.2;
  converge_sharded(f, 2, 2, 10, /*migrate=*/false);
}

TEST(ShardedFaults, ConvergesUnderDuplication) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;  // every frame sent twice, on every session
  f.recv.duplicate = 0.5;
  converge_sharded(f, 2, 2, 10, /*migrate=*/false);
}

TEST(ShardedFaults, ConvergesUnderCombinedFaultsFourShards) {
  msg::FaultOptions f;
  f.send.drop = 0.1;
  f.send.duplicate = 0.2;
  f.send.delay = 0.2;
  f.send.delay_ms = 1ms;
  f.recv.drop = 0.1;
  f.recv.duplicate = 0.2;
  converge_sharded(f, 4, 3, 8, /*migrate=*/false);
}

TEST(ShardedFaults, ConvergesUnderCombinedFaultsWithCodecForced) {
  // Same gauntlet with every update payload compressed: directory-based
  // coherence across shards must retransmit, dedup, and apply compressed
  // payloads exactly like raw ones.
  msg::FaultOptions f;
  f.send.drop = 0.1;
  f.send.duplicate = 0.2;
  f.send.delay = 0.2;
  f.send.delay_ms = 1ms;
  f.recv.drop = 0.1;
  f.recv.duplicate = 0.2;
  converge_sharded(f, 2, 2, 8, /*migrate=*/false, dsm::CodecMode::Forced);
}

TEST(ShardedFaults, MigrationUnderDropLosesNoGrantsOrUpdates) {
  // The issue's acceptance case: a grant can execute at the old owner,
  // have its reply dropped by the fault layer, and the region migrate
  // before the retransmit — the re-issued request must be answered from
  // the migrated reply cache, exactly once.
  msg::FaultOptions f;
  f.send.drop = 0.2;
  f.recv.drop = 0.2;
  converge_sharded(f, 2, 2, 12, /*migrate=*/true);
}

TEST(ShardedFaults, MigrationUnderDuplicationAppliesExactlyOnce) {
  msg::FaultOptions f;
  f.send.duplicate = 0.5;
  f.recv.duplicate = 0.5;
  converge_sharded(f, 2, 2, 12, /*migrate=*/true);
}

TEST(ShardedFaults, MigrationUnderCombinedFaults) {
  msg::FaultOptions f;
  f.seed = 17;
  f.send.drop = 0.15;
  f.send.duplicate = 0.25;
  f.recv.drop = 0.15;
  converge_sharded(f, 4, 2, 10, /*migrate=*/true);
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
  hdsm::test::converge_replicated(&f, 2, 2, 10, /*failover=*/true);
}

TEST(ShardedFaults, FailoverHandoverUnderDuplication) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;  // every frame twice, including across the bump
  f.recv.duplicate = 0.5;
  hdsm::test::converge_replicated(&f, 2, 2, 10, /*failover=*/true);
}

TEST(ShardedFaults, FailoverHandoverUnderReorder) {
  msg::FaultOptions f;
  f.send.reorder = 0.3;
  f.send.reorder_window = 3;
  hdsm::test::converge_replicated(&f, 2, 2, 10, /*failover=*/true);
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
  hdsm::test::converge_replicated(&f, 2, 2, 10, /*failover=*/true);
}

// ---- object-granularity fault schedules (docs/OBJECTS.md) ------------------
//
// The same fault matrix replayed against an ObjectCluster: the unit of
// coherence is an object, episodes ship dirty-object runs with no page
// machinery armed, and the acceptance bar is unchanged — the master image
// converges to the fault-free replay, every shard trace validates, and no
// (rank, request) pair is applied twice across shards.  Strict entry
// consistency must survive the faults too: zero page faults diffed, zero
// pending pulls, every shipped byte attributed to an object episode.

namespace {

obj::ObjectLayoutPtr obj_layout() {
  obj::ObjectLayoutConfig lc;
  lc.num_regions = 8;
  lc.classes.push_back({"O", tags::t_longlong(), 1, kElems});
  return std::make_shared<const obj::ObjectLayout>(std::move(lc));
}

/// Object-mode twin of converge_sharded: the same per-rank op streams, but
/// each op locks the mutex guarding its object's hashed region instead of
/// one global mutex, so the schedule exercises cross-region interleavings
/// the page harness never sees.
void converge_objects(const msg::FaultOptions& fault, std::uint32_t num_shards,
                      std::uint32_t num_remotes, int ops, bool migrate) {
  obj::ObjectLayoutPtr layout = obj_layout();
  std::vector<dsm::TraceLog> logs(num_shards);
  dsm::ShardedHomeOptions opts;
  opts.num_shards = num_shards;
  for (auto& l : logs) opts.shard_traces.push_back(&l);
  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  std::vector<const plat::PlatformDesc*> platforms(num_remotes,
                                                   &plat::linux_ia32());
  obj::ObjectCluster cluster(
      layout, plat::linux_ia32(), platforms, opts,
      [&fault](std::uint32_t rank, std::uint32_t shard, msg::EndpointPtr ep) {
        msg::FaultOptions per_session = fault;
        per_session.seed = fault.seed + rank * 64 + shard;
        return msg::make_faulty(std::move(ep), per_session);
      },
      ropts);

  std::atomic<bool> done{false};
  std::thread migrator;
  if (migrate) {
    migrator = std::thread([&] {
      std::uint32_t dst = 1 % num_shards;
      while (!done.load()) {
        cluster.home().node().migrate_region(0, dst);
        dst = (dst + 1) % num_shards;
        std::this_thread::sleep_for(500us);
      }
    });
  }

  cluster.run(
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
      });
  done.store(true);
  if (migrator.joinable()) migrator.join();

  const std::vector<std::int64_t> expected = expected_array(num_remotes, ops);
  auto acc = cluster.home().accessor<std::int64_t>(0);
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(acc.get(i), expected[i]) << "object " << i;
  }
  validate_shard_traces(logs);

  // Strict entry consistency held through the faults: the page machinery
  // never fired, and everything shipped was an object episode.
  const dsm::ShareStats stats = cluster.total_stats();
  EXPECT_EQ(stats.dirty_pages, 0u);
  EXPECT_EQ(stats.pending_pulls, 0u);
  EXPECT_GT(stats.object_episodes, 0u);
  EXPECT_GE(stats.objects_shipped, stats.object_episodes);
  if (migrate) {
    EXPECT_GE(cluster.home().node().stats().region_migrations, 1u);
  }
}

}  // namespace

TEST(ObjectFaults, ConvergesUnderDrop) {
  msg::FaultOptions f;
  f.send.drop = 0.2;
  f.recv.drop = 0.2;
  converge_objects(f, 2, 2, 10, /*migrate=*/false);
}

TEST(ObjectFaults, ConvergesUnderDuplication) {
  msg::FaultOptions f;
  f.send.duplicate = 1.0;  // every frame sent twice, on every session
  f.recv.duplicate = 0.5;
  converge_objects(f, 2, 2, 10, /*migrate=*/false);
}

TEST(ObjectFaults, ConvergesUnderReorder) {
  msg::FaultOptions f;
  f.send.reorder = 0.3;
  f.send.reorder_window = 3;
  converge_objects(f, 2, 2, 10, /*migrate=*/false);
}

TEST(ObjectFaults, MigrationUnderCombinedFaults) {
  msg::FaultOptions f;
  f.seed = 31;
  f.send.drop = 0.15;
  f.send.duplicate = 0.25;
  f.recv.drop = 0.15;
  converge_objects(f, 4, 2, 10, /*migrate=*/true);
}

TEST(ObjectFaults, SessionResetRecoversThroughReconnect) {
  // The object-mode twin of the page-mode reset test below: the transport
  // of the shard owning the hot object dies mid-run, the remote re-dials
  // through the per-shard reconnect hook, and the dirty-object pipeline
  // resumes with the dedup horizon intact.
  obj::ObjectLayoutPtr layout = obj_layout();
  std::vector<dsm::TraceLog> logs(2);
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 2;
  opts.shard_traces = {&logs[0], &logs[1]};
  obj::ObjectHome home(layout, plat::linux_ia32(), opts);

  // Pick the object whose region lives on shard 0 — the doomed session.
  const std::uint64_t idx = 0;
  const std::uint32_t region = layout->region_of(0, idx);
  const std::uint32_t shard = home.node().shard_of(region);

  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.reconnect = [&home](std::uint32_t s) {
    auto [home_side, remote_side] = msg::make_channel_pair();
    home.node().attach_endpoint(1, s, std::move(home_side));
    return std::move(remote_side);
  };
  std::vector<msg::EndpointPtr> eps = home.node().attach(1);
  msg::FaultOptions f;
  f.send.reset_after = 9;  // dies partway through the workload
  eps[shard] = msg::make_faulty(std::move(eps[shard]), f);
  obj::ObjectRemote remote(layout, plat::linux_ia32(), 1, std::move(eps),
                           ropts);
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
  validate_shard_traces(logs);
  EXPECT_EQ(home.node().stats().dirty_pages, 0u);
  home.node().stop();
}

TEST(ShardedFaults, SessionResetRecoversThroughReconnect) {
  // One shard session's transport dies mid-run; the remote re-dials that
  // shard through its per-shard reconnect hook (resume Hello preserves the
  // dedup horizon) and the run still converges.
  std::vector<dsm::TraceLog> logs(2);
  dsm::ShardedHomeOptions opts;
  opts.num_shards = 2;
  opts.shard_traces = {&logs[0], &logs[1]};
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);

  dsm::ShardedRemoteOptions ropts;
  ropts.retry = fast_retry();
  ropts.reconnect = [&home](std::uint32_t shard) {
    auto [home_side, remote_side] = msg::make_channel_pair();
    home.attach_endpoint(1, shard, std::move(home_side));
    return std::move(remote_side);
  };
  std::vector<msg::EndpointPtr> eps = home.attach(1);
  msg::FaultOptions f;
  f.send.reset_after = 9;  // dies partway through the workload
  eps[0] = msg::make_faulty(std::move(eps[0]), f);
  dsm::ShardedRemote remote(gthv(), plat::linux_ia32(), 1, std::move(eps),
                            ropts);
  home.start();

  constexpr int kOps = 12;
  for (int i = 0; i < kOps; ++i) {
    remote.lock(0);  // region 0 lives on shard 0: the doomed session
    auto a = remote.space().view<std::int64_t>("A");
    a.set(0, a.get(0) + 1);
    remote.unlock(0);
  }
  remote.join();
  home.wait_all_joined();

  EXPECT_EQ(remote.stats().reconnects, 1u);
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), kOps);
  for (int s = 0; s < 2; ++s) {
    const auto err = dsm::validate_trace(logs[s].snapshot());
    EXPECT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
  home.stop();
}

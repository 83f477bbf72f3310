// Randomized protocol stress tests: heterogeneous thread mixes performing
// pseudo-random synchronization patterns, checked against reference
// results and the protocol-trace validator.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

constexpr std::uint64_t kElems = 128;

tags::TypePtr gthv() {
  // A is the main shared array; B is the second buffer of the
  // double-buffered phase test.
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kElems)},
            {"B", tags::TypeDesc::array(tags::t_longlong(), kElems)}});
}

const plat::PlatformDesc& platform_for(std::uint32_t rank) {
  switch (rank % 4) {
    case 0: return plat::linux_ia32();
    case 1: return plat::solaris_sparc32();
    case 2: return plat::linux_x86_64();
    default: return plat::solaris_sparc64();
  }
}

}  // namespace

TEST(Stress, RandomIncrementsUnderOneLockSumExactly) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  constexpr std::uint32_t kRemotes = 4;
  constexpr int kOpsPerThread = 40;

  std::vector<std::unique_ptr<dsm::ShardedRemote>> remotes;
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    remotes.push_back(std::make_unique<dsm::ShardedRemote>(
        gthv(), platform_for(r), r, home.attach(r)));
  }
  home.start();

  // Expected totals: every thread's op sequence is deterministic.
  std::vector<std::int64_t> expected(kElems, 0);
  const auto ops_of = [](std::uint32_t rank) {
    std::vector<std::pair<std::uint64_t, std::int64_t>> ops;
    std::mt19937_64 rng(1000 + rank);
    for (int i = 0; i < kOpsPerThread; ++i) {
      ops.emplace_back(rng() % kElems,
                       static_cast<std::int64_t>(rng() % 1000) - 500);
    }
    return ops;
  };
  for (std::uint32_t r = 0; r <= kRemotes; ++r) {
    for (const auto& [idx, delta] : ops_of(r)) expected[idx] += delta;
  }

  std::vector<std::thread> threads;
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    threads.emplace_back([&, r] {
      dsm::ShardedRemote& remote = *remotes[r - 1];
      for (const auto& [idx, delta] : ops_of(r)) {
        remote.lock(0);
        auto a = remote.space().view<std::int64_t>("A");
        a.set(idx, a.get(idx) + delta);
        remote.unlock(0);
      }
      remote.join();
    });
  }
  for (const auto& [idx, delta] : ops_of(0)) {
    home.lock(0);
    auto a = home.space().view<std::int64_t>("A");
    a.set(idx, a.get(idx) + delta);
    home.unlock(0);
  }
  for (std::thread& t : threads) t.join();
  home.wait_all_joined();

  auto a = home.space().view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
  }
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Stress, DisjointSegmentsUnderStripedLocks) {
  // Each mutex protects one segment; threads hop between segments in
  // deterministic pseudo-random order.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  opts.num_locks = 8;
  dsm::ShardedHome home(gthv(), plat::solaris_sparc32(), opts);
  constexpr std::uint32_t kRemotes = 3;
  constexpr std::uint64_t kSegments = 8;
  constexpr std::uint64_t kSegLen = kElems / kSegments;

  std::vector<std::unique_ptr<dsm::ShardedRemote>> remotes;
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    remotes.push_back(std::make_unique<dsm::ShardedRemote>(
        gthv(), platform_for(r + 1), r, home.attach(r)));
  }
  home.start();

  std::vector<std::thread> threads;
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    threads.emplace_back([&, r] {
      dsm::ShardedRemote& remote = *remotes[r - 1];
      std::mt19937_64 rng(77 * r);
      for (int op = 0; op < 50; ++op) {
        const std::uint32_t seg = static_cast<std::uint32_t>(rng() % kSegments);
        remote.lock(seg);
        auto a = remote.space().view<std::int64_t>("A");
        for (std::uint64_t i = 0; i < kSegLen; ++i) {
          const std::uint64_t e = seg * kSegLen + i;
          a.set(e, a.get(e) + 1);
        }
        remote.unlock(seg);
      }
      remote.join();
    });
  }
  for (std::thread& t : threads) t.join();
  home.wait_all_joined();

  // Total increments = remotes * ops * segment length, distributed over
  // whichever segments each thread visited; recompute expectation.
  std::vector<std::int64_t> expected(kElems, 0);
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    std::mt19937_64 rng(77 * r);
    for (int op = 0; op < 50; ++op) {
      const std::uint64_t seg = rng() % kSegments;
      for (std::uint64_t i = 0; i < kSegLen; ++i) {
        expected[seg * kSegLen + i] += 1;
      }
    }
  }
  home.lock(0);
  auto a = home.space().view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
  }
  home.unlock(0);
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Stress, BarrierPhasesDoubleBufferedStencil) {
  // SPMD phases with double buffering (read src, write dst, swap at the
  // barrier).  Single-buffer in-place stencils would be racy for the
  // master thread: the paper propagates remote updates to the base thread
  // eagerly ("updates made by the remote thread are propagated back to the
  // base thread at this time"), so the home image can change mid-phase —
  // double buffering is the correct SPMD idiom here, exactly as on real
  // relaxed-consistency DSMs.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  constexpr std::uint32_t kRemotes = 2;
  constexpr std::uint32_t kThreads = kRemotes + 1;
  constexpr int kPhases = 12;

  std::vector<std::unique_ptr<dsm::ShardedRemote>> remotes;
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    remotes.push_back(std::make_unique<dsm::ShardedRemote>(
        gthv(), platform_for(r), r, home.attach(r)));
  }
  home.start();

  const auto phase_work = [&](auto& node, std::uint32_t rank, int phase) {
    auto src = node.space().template view<std::int64_t>(phase % 2 ? "B"
                                                                  : "A");
    auto dst = node.space().template view<std::int64_t>(phase % 2 ? "A"
                                                                  : "B");
    for (std::uint64_t e = 0; e < kElems; ++e) {
      if ((e + static_cast<std::uint64_t>(phase)) % kThreads == rank) {
        const std::int64_t left = e > 0 ? src.get(e - 1) : 0;
        dst.set(e, left + static_cast<std::int64_t>(e) + phase);
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::uint32_t r = 1; r <= kRemotes; ++r) {
    threads.emplace_back([&, r] {
      dsm::ShardedRemote& remote = *remotes[r - 1];
      remote.barrier(0);
      for (int p = 0; p < kPhases; ++p) {
        phase_work(remote, r, p);
        remote.barrier(0);
      }
      remote.join();
    });
  }
  home.barrier(0);
  for (int p = 0; p < kPhases; ++p) {
    phase_work(home, 0, p);
    home.barrier(0);
  }
  for (std::thread& t : threads) t.join();
  home.wait_all_joined();

  // Serial reference with identical double-buffer semantics.
  std::vector<std::int64_t> a_ref(kElems, 0), b_ref(kElems, 0);
  for (int p = 0; p < kPhases; ++p) {
    std::vector<std::int64_t>& src = p % 2 ? b_ref : a_ref;
    std::vector<std::int64_t>& dst = p % 2 ? a_ref : b_ref;
    for (std::uint64_t e = 0; e < kElems; ++e) {
      const std::int64_t left = e > 0 ? src[e - 1] : 0;
      dst[e] = left + static_cast<std::int64_t>(e) + p;
    }
  }
  auto a = home.space().view<std::int64_t>("A");
  auto b = home.space().view<std::int64_t>("B");
  for (std::uint64_t e = 0; e < kElems; ++e) {
    EXPECT_EQ(a.get(e), a_ref[e]) << "A element " << e;
    EXPECT_EQ(b.get(e), b_ref[e]) << "B element " << e;
  }
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

TEST(Stress, ThreadChurnJoinAndReplace) {
  // Generations of short-lived remote threads reusing ranks — the adaptive
  // join/leave pattern.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  home.start();

  for (int generation = 0; generation < 6; ++generation) {
    std::thread worker([&, generation] {
      dsm::ShardedRemote remote(gthv(), platform_for(generation), 1,
                                home.attach(1));
      remote.lock(0);
      auto a = remote.space().view<std::int64_t>("A");
      a.set(generation, a.get(generation) + 100 + generation);
      remote.unlock(0);
      remote.join();
    });
    worker.join();
  }
  home.wait_all_joined();
  auto a = home.space().view<std::int64_t>("A");
  for (int g = 0; g < 6; ++g) {
    EXPECT_EQ(a.get(g), 100 + g);
  }
  const auto err = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(err.has_value()) << *err;
  home.stop();
}

// Long-run regression for the granted_gen growth fix: a remote that
// repeatedly crashes while holding a mutex leaves one reset-recovery
// window open per crash.  Windows must close on regrant, so the count can
// never exceed the mutex count — and a second rank cycling through every
// mutex must drive the first rank's count to exactly zero.
TEST(Stress, RecoveryWindowsStayBoundedAcrossCrashCycles) {
  constexpr std::uint32_t kLocks = 16;
  dsm::ShardedHomeOptions opts;
  opts.num_locks = kLocks;
  dsm::ShardedHome home(gthv(), plat::linux_x86_64(), opts);
  home.start();

  const auto summary = msg::PlatformSummary::of(home.space().platform());
  const std::string tag = home.space().image_tag_text();

  // Rank 1: 3 crash cycles per mutex, always dying while holding.  Raw
  // messages (no ShardedRemote) so the "crash" is a plain endpoint close
  // with the lock held and the unlock forever outstanding.
  std::uint32_t seq = 0;
  for (std::uint32_t cycle = 0; cycle < 3 * kLocks; ++cycle) {
    msg::EndpointPtr ep = home.attach(1);
    msg::Message hello;
    hello.type = msg::MsgType::Hello;
    hello.rank = 1;
    // First Hello is a fresh incarnation; later ones resume (same epoch,
    // nonzero seq) so the recovery windows persist across reconnects.
    hello.seq = cycle == 0 ? 0 : seq;
    hello.sync_id = 5;
    hello.sender = summary;
    hello.tag = tag;
    ep->send(hello);

    msg::Message req;
    req.type = msg::MsgType::LockRequest;
    req.rank = 1;
    req.seq = ++seq;
    req.sync_id = cycle % kLocks;
    req.sender = summary;
    ep->send(req);
    const msg::Message grant = ep->recv();
    ASSERT_EQ(grant.type, msg::MsgType::LockGrant);
    ep->close();  // crash while holding

    ASSERT_LE(home.recovery_entries(1), kLocks) << "cycle " << cycle;
  }
  // Re-granting a mutex to rank 1 overwrites its own window, so after 3
  // passes over every mutex there is exactly one window per mutex.
  EXPECT_EQ(home.recovery_entries(1), kLocks);

  // Rank 2 cycles through every mutex: each grant closes rank 1's window
  // for that mutex (its stale recovery diffs could never be honored again).
  msg::EndpointPtr ep2 = home.attach(2);
  msg::Message hello2;
  hello2.type = msg::MsgType::Hello;
  hello2.rank = 2;
  hello2.seq = 0;
  hello2.sync_id = 7;
  hello2.sender = summary;
  hello2.tag = tag;
  ep2->send(hello2);
  std::uint32_t seq2 = 0;
  for (std::uint32_t m = 0; m < kLocks; ++m) {
    msg::Message req;
    req.type = msg::MsgType::LockRequest;
    req.rank = 2;
    req.seq = ++seq2;
    req.sync_id = m;
    req.sender = summary;
    ep2->send(req);
    ASSERT_EQ(ep2->recv().type, msg::MsgType::LockGrant);

    msg::Message unlock;
    unlock.type = msg::MsgType::UnlockRequest;
    unlock.rank = 2;
    unlock.seq = ++seq2;
    unlock.sync_id = m;
    unlock.sender = summary;
    unlock.payload = dsm::encode_update_blocks({});
    ep2->send(unlock);
    ASSERT_EQ(ep2->recv().type, msg::MsgType::UnlockAck);
  }
  EXPECT_EQ(home.recovery_entries(1), 0u);
  EXPECT_LE(home.recovery_entries(2), kLocks);
  ep2->close();
  home.stop();
}

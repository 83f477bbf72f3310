// Shared driver for the primary/standby replication suites
// (docs/REPLICATION.md): N remotes increment a shared array under mutex 0
// against a ReplicatedHome, optionally behind per-session FaultyEndpoints,
// with the primary killed and the standby promoted mid-run.  The
// acceptance bar after a failover: the run converges on the *standby's*
// image to the fault-free expectation, the standby's protocol trace
// validates seamlessly across the epoch bump (the replayed prefix and the
// post-promotion suffix form one coherent log), and no (rank, request) is
// applied twice — zero lost and zero doubled grants or updates.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/replicated_home.hpp"
#include "dsm/run_ranks.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"
#include "lock_workload.hpp"
#include "msg/faulty.hpp"

namespace hdsm::test {

constexpr std::uint64_t kReplElems = 64;

inline tags::TypePtr repl_gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kReplElems)}});
}

inline std::vector<std::pair<std::uint64_t, std::int64_t>> repl_ops_of(
    std::uint32_t rank, int ops) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> v;
  std::mt19937_64 rng(900 + rank);
  for (int i = 0; i < ops; ++i) {
    v.emplace_back(rng() % kReplElems,
                   static_cast<std::int64_t>(rng() % 100) - 50);
  }
  return v;
}

inline std::vector<std::int64_t> repl_expected(std::uint32_t num_remotes,
                                               int ops) {
  std::vector<std::int64_t> e(kReplElems, 0);
  for (std::uint32_t r = 1; r <= num_remotes; ++r) {
    for (const auto& [idx, delta] : repl_ops_of(r, ops)) e[idx] += delta;
  }
  return e;
}

/// Validate one home's log and assert the exactly-once bar across the
/// whole run, re-attaches included: a (rank, req) applied twice is a
/// doubled update.
inline void check_log(const dsm::TraceLog& log, const char* who) {
  const auto snap = log.snapshot();
  const auto err = dsm::validate_trace(snap);
  EXPECT_FALSE(err.has_value()) << who << ": " << *err;
  std::set<std::pair<std::uint32_t, std::uint64_t>> applied;
  for (const auto& ev : snap) {
    if (ev.kind != dsm::TraceEvent::Kind::UpdatesApplied || ev.req == 0) {
      continue;
    }
    EXPECT_TRUE(applied.emplace(ev.rank, ev.req).second)
        << who << ": rank " << ev.rank << " request #" << ev.req
        << " applied twice";
  }
}

/// The driver.  `fault == nullptr` runs clean transports.  With
/// `failover`, the primary is killed once roughly half the total ops have
/// committed and the standby promoted; remotes re-dial through
/// ReplicatedHome::redial (their reconnect hook).  A rank that throws —
/// remote or master — fails the test with its rank named (dsm::run_ranks)
/// instead of aborting the binary.  Returns the failover pause (zero when
/// `failover` is false).
inline std::chrono::nanoseconds converge_replicated(
    const msg::FaultOptions* fault, std::uint32_t num_remotes, int ops,
    bool failover) {
  dsm::TraceLog plog;
  dsm::TraceLog slog;
  dsm::ReplicatedHomeOptions opts;
  opts.home.trace = &plog;
  opts.standby_trace = &slog;
  dsm::ReplicatedHome repl(repl_gthv(), hdsm::plat::linux_ia32(), opts);

  // Re-dialed transports inherit the session's fault schedule minus the
  // reset: each reset burns a finite reconnect credit, and an endless
  // reset→redial loop would test the budget, not the failover.
  const auto wrap = [fault](std::uint32_t rank, bool redial,
                            msg::EndpointPtr ep) {
    if (fault == nullptr) return ep;
    msg::FaultOptions per = *fault;
    per.seed = fault->seed + rank * 64 + (redial ? 4096 : 0);
    if (redial) {
      per.send.reset_after = 0;
      per.recv.reset_after = 0;
    }
    return msg::EndpointPtr(msg::make_faulty(std::move(ep), per));
  };

  repl.set_barrier_count(0, num_remotes + 1);
  repl.start();

  std::vector<msg::EndpointPtr> eps;
  for (std::uint32_t rank = 1; rank <= num_remotes; ++rank) {
    eps.push_back(wrap(rank, /*redial=*/false, repl.attach(rank)));
  }
  std::atomic<int> ops_done{0};
  std::atomic<std::uint32_t> remotes_done{0};
  std::chrono::nanoseconds pause{0};
  EXPECT_NO_THROW(dsm::run_ranks(
      num_remotes,
      [&](std::size_t i) {
        struct Finished {
          std::atomic<std::uint32_t>& n;
          ~Finished() { ++n; }
        } finished{remotes_done};
        const auto rank = static_cast<std::uint32_t>(i + 1);
        dsm::ShardedRemoteOptions ropts;
        ropts.retry = fast_retry();
        ropts.max_reconnects = 6;
        ropts.reconnect = [&repl, &wrap, rank] {
          return wrap(rank, /*redial=*/true, repl.redial(rank));
        };
        dsm::ShardedRemote remote(repl_gthv(), hdsm::plat::linux_ia32(), rank,
                                  std::move(eps[i]), ropts);
        for (const auto& [idx, delta] : repl_ops_of(rank, ops)) {
          remote.lock(0);
          auto a = remote.space().view<std::int64_t>("A");
          a.set(idx, a.get(idx) + delta);
          remote.unlock(0);
          ops_done.fetch_add(1);
        }
        remote.barrier(0);
        remote.join();
      },
      [&] {
        if (failover) {
          // Stop waiting for the threshold once every remote finished: a
          // remote that died early must fail the test, not hang it.
          const int threshold =
              std::max(1, static_cast<int>(num_remotes) * ops / 2);
          while (ops_done.load() < threshold &&
                 remotes_done.load() < num_remotes) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          pause = repl.fail_over();
          EXPECT_TRUE(repl.failed_over());
        }
        repl.barrier(0);
        repl.wait_all_joined();
      },
      [&] { repl.stop(); }));

  const std::vector<std::int64_t> expected = repl_expected(num_remotes, ops);
  auto a = repl.space().view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kReplElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
  }
  EXPECT_GT(repl.standby().replicated_log_index(), 0u);
  if (failover) {
    // The primary's log stops mid-run (open episodes at the crash point);
    // the standby's must validate end to end — the replayed prefix plus
    // the post-promotion suffix form one seamless history.
    check_log(slog, "standby");
  } else {
    check_log(plog, "primary");
    check_log(slog, "standby");
    // Without a failover the standby replayed everything the primary
    // executed: its image is byte-for-byte the converged state too.
    auto sa = repl.standby().space().view<std::int64_t>("A");
    for (std::uint64_t i = 0; i < kReplElems; ++i) {
      EXPECT_EQ(sa.get(i), expected[i]) << "standby element " << i;
    }
  }
  repl.stop();
  return pause;
}

}  // namespace hdsm::test

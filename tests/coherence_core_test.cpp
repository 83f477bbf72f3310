// Deterministic tests of the sans-I/O coherence core: every protocol path
// here is reached by stepping the pure state machine — no threads, no
// endpoints, no fault injection, no timing.  These are the interleavings
// PR 1 could only sample via seeded faults (duplicate Hello epochs,
// stale-generation unlock recovery, mid-episode barrier attach, reply-cache
// retransmission), plus an exhaustive small-schedule permutation driver
// that enumerates *every* causally-valid interleaving of a lock workload
// and validates each one's trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsm/coherence_core.hpp"
#include "dsm/trace.hpp"
#include "obs/telemetry.hpp"

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace idx = hdsm::idx;
namespace obs = hdsm::obs;

using Action = dsm::CoherenceAction;
using Event = dsm::CoherenceEvent;

namespace {

/// Trivial in-memory codec: a payload is the raw bytes of the run array
/// (UpdateRun is trivially copyable).  `poisoned` makes apply throw, like a
/// malformed wire payload would at the real SyncEngine.
struct FakeCodec final : dsm::UpdateCodec {
  bool poisoned = false;
  int pack_calls = 0;
  int apply_calls = 0;

  std::vector<std::byte> pack_payload(
      const std::vector<idx::UpdateRun>& runs) override {
    ++pack_calls;
    std::vector<std::byte> out(runs.size() * sizeof(idx::UpdateRun));
    if (!out.empty()) std::memcpy(out.data(), runs.data(), out.size());
    return out;
  }

  std::vector<idx::UpdateRun> apply_payload(
      const std::vector<std::byte>& payload,
      const msg::PlatformSummary&) override {
    ++apply_calls;
    if (poisoned) throw std::runtime_error("poisoned payload");
    if (payload.size() % sizeof(idx::UpdateRun) != 0) {
      throw std::runtime_error("bad payload size");
    }
    std::vector<idx::UpdateRun> runs(payload.size() / sizeof(idx::UpdateRun));
    if (!runs.empty()) {
      std::memcpy(runs.data(), payload.data(), payload.size());
    }
    return runs;
  }
};

std::vector<std::byte> fake_payload(const std::vector<idx::UpdateRun>& runs) {
  FakeCodec c;
  return c.pack_payload(runs);
}

/// A core plus a TraceLog fed from its Trace actions, so every test can
/// finish with validate_trace.
struct CoreHarness {
  dsm::ShareStats stats;
  FakeCodec codec;
  dsm::CoherenceCore core;
  dsm::TraceLog log;

  explicit CoreHarness(std::uint32_t locks = 4, std::uint32_t barriers = 2)
      : core(
            [&] {
              dsm::CoherenceConfig cfg;
              cfg.num_locks = locks;
              cfg.num_barriers = barriers;
              // layout_runs stays empty: Hello shape negotiation is the
              // data plane's concern, not these protocol tests'.
              return cfg;
            }(),
            codec, stats) {}

  std::vector<Action> step(Event e) {
    std::vector<Action> actions = core.step(e);
    for (const Action& a : actions) {
      if (a.kind == Action::Kind::Trace) {
        log.append(a.trace.kind, a.trace.rank, a.trace.sync_id,
                   a.trace.blocks, a.trace.bytes, a.trace.req);
      }
    }
    return actions;
  }

  void attach(std::uint32_t rank, std::vector<idx::UpdateRun> pending = {}) {
    step(Event::peer_attached(rank, std::move(pending)));
  }

  void expect_valid_trace() {
    const auto err = dsm::validate_trace(log.snapshot());
    EXPECT_FALSE(err.has_value()) << *err;
  }
};

msg::Message make_msg(msg::MsgType type, std::uint32_t rank,
                      std::uint32_t seq, std::uint32_t sync_id = 0,
                      std::vector<std::byte> payload = {}) {
  msg::Message m;
  m.type = type;
  m.rank = rank;
  m.seq = seq;
  m.sync_id = sync_id;
  m.payload = std::move(payload);
  return m;
}

msg::Message make_hello(std::uint32_t rank, std::uint32_t epoch,
                        std::uint32_t seq = 0) {
  msg::Message m = make_msg(msg::MsgType::Hello, rank, seq, epoch);
  m.tag = "(4,1)";  // any nonempty tag: marks a session Hello
  return m;
}

int count_kind(const std::vector<Action>& actions, Action::Kind k) {
  return static_cast<int>(std::count_if(
      actions.begin(), actions.end(),
      [k](const Action& a) { return a.kind == k; }));
}

const msg::Message* find_send(const std::vector<Action>& actions,
                              std::uint32_t rank, msg::MsgType type) {
  for (const Action& a : actions) {
    if (a.kind == Action::Kind::Send && a.rank == rank &&
        a.message.type == type) {
      return &a.message;
    }
  }
  return nullptr;
}

}  // namespace

// ---- basics ----------------------------------------------------------------

TEST(CoherenceCore, MasterChecksThrowBeforeAnyTransition) {
  CoreHarness h(2, 2);
  EXPECT_THROW(h.core.check_lock_index(2), std::out_of_range);
  EXPECT_THROW(h.core.check_barrier_index(9), std::out_of_range);
  EXPECT_THROW(h.core.check_master_unlock(0), std::logic_error);
  EXPECT_THROW(h.step(Event::master_unlock(0, {})), std::logic_error);
  // Nothing leaked into the state.
  EXPECT_EQ(h.core.lock_holder(0), -1);
  EXPECT_EQ(h.stats.unlocks, 0u);
}

TEST(CoherenceCore, LockLifecycleWithoutThreadsOrEndpoints) {
  CoreHarness h;
  h.attach(1, {{0, 0, 8}});

  // Remote 1 acquires: the grant ships its pending set.
  auto actions =
      h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  const msg::Message* grant = find_send(actions, 1, msg::MsgType::LockGrant);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->seq, 1u);
  EXPECT_EQ(grant->payload.size(), sizeof(idx::UpdateRun));
  EXPECT_EQ(h.core.lock_holder(0), 1);

  // Master queues behind it, then is woken by the remote's unlock.
  auto queued = h.step(Event::master_lock(0));
  EXPECT_EQ(count_kind(queued, Action::Kind::Send), 0);
  EXPECT_EQ(count_kind(queued, Action::Kind::WakeMaster), 0);
  EXPECT_FALSE(h.core.master_holds(0));
  actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0, fake_payload({}))));
  EXPECT_NE(find_send(actions, 1, msg::MsgType::UnlockAck), nullptr);
  EXPECT_GE(count_kind(actions, Action::Kind::WakeMaster), 1);
  EXPECT_TRUE(h.core.master_holds(0));

  h.step(Event::master_unlock(0, {}));
  EXPECT_EQ(h.core.lock_holder(0), -1);
  EXPECT_EQ(h.stats.locks, 1u);  // master acquisitions only
  h.expect_valid_trace();
}

// ---- duplicate Hello epochs ------------------------------------------------

TEST(CoherenceCore, DuplicateHelloDoesNotResetDedupState) {
  CoreHarness h;
  h.attach(1);

  // Fresh incarnation: epoch 7, requests numbered from 1.
  h.step(Event::msg_received(1, make_hello(1, 7)));
  h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  auto actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0, fake_payload({}))));
  ASSERT_NE(find_send(actions, 1, msg::MsgType::UnlockAck), nullptr);
  const int applies_after_unlock = h.codec.apply_calls;

  // A duplicated/reordered copy of the SAME Hello arrives mid-session.
  // It must NOT reset the dedup horizon...
  h.step(Event::msg_received(1, make_hello(1, 7)));

  // ...so a retransmit of the already-executed unlock is answered from the
  // cache, not re-applied.
  actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0, fake_payload({}))));
  EXPECT_NE(find_send(actions, 1, msg::MsgType::UnlockAck), nullptr);
  EXPECT_EQ(h.codec.apply_calls, applies_after_unlock);
  EXPECT_EQ(h.stats.duplicates_dropped, 1u);

  // A DIFFERENT epoch is a genuinely new incarnation: state resets and
  // seq 1 is fresh again.
  h.step(Event::msg_received(1, make_hello(1, 9)));
  actions =
      h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  EXPECT_NE(find_send(actions, 1, msg::MsgType::LockGrant), nullptr);
  EXPECT_EQ(h.core.lock_holder(0), 1);
}

TEST(CoherenceCore, SessionHelloWithoutAnEpochIsAViolation) {
  // Every session Hello carries a nonzero incarnation epoch; one without
  // could reset the dedup state on every duplicated copy, so it detaches.
  CoreHarness h;
  h.attach(1);
  const auto actions = h.step(Event::msg_received(1, make_hello(1, 0)));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(1));
  h.expect_valid_trace();

  // A Hello always opens or resumes a DSM session, so one without the
  // image tag is a violation too, whatever its epoch.
  h.attach(2);
  const auto plain = h.step(
      Event::msg_received(2, make_msg(msg::MsgType::Hello, 2, 0, 5)));
  EXPECT_EQ(count_kind(plain, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(2));
  h.expect_valid_trace();
}

TEST(CoherenceCore, UnsequencedRequestIsAViolation) {
  // Every request is numbered from 1 within its session; a seq-0 request
  // detaches its sender before it can touch a lock, a barrier, the image
  // or the telemetry aggregate — even from a rank that holds the mutex.
  CoreHarness h;
  obs::NodeSnapshot snap;
  snap.rank = 5;
  std::vector<std::byte> snapshot;
  snap.serialize(snapshot);
  const std::vector<std::pair<std::uint32_t, msg::Message>> cases = {
      {1, make_msg(msg::MsgType::LockRequest, 1, 0, 1)},
      {2, make_msg(msg::MsgType::UnlockRequest, 2, 0, 0, fake_payload({}))},
      {3, make_msg(msg::MsgType::BarrierEnter, 3, 0, 0, fake_payload({}))},
      {4, make_msg(msg::MsgType::JoinRequest, 4, 0, 0, fake_payload({}))},
      {5, make_msg(msg::MsgType::MetricsPull, 5, 0, 0, snapshot)},
  };
  for (const auto& [rank, m] : cases) {
    h.attach(rank);
    h.step(Event::msg_received(rank, make_hello(rank, 7)));
  }
  // Rank 2 legitimately holds mutex 0 when its unsequenced unlock arrives.
  h.step(Event::msg_received(2, make_msg(msg::MsgType::LockRequest, 2, 1)));
  ASSERT_EQ(h.core.lock_holder(0), 2);

  for (const auto& [rank, m] : cases) {
    SCOPED_TRACE(msg::msg_type_name(m.type));
    const auto actions = h.step(Event::msg_received(rank, m));
    EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
    EXPECT_EQ(count_kind(actions, Action::Kind::Send), 0);
    EXPECT_FALSE(h.core.peer_active(rank));
  }
  EXPECT_EQ(h.codec.apply_calls, 0);
  EXPECT_EQ(h.core.lock_holder(0), -1);  // reclaimed from the detached holder
  EXPECT_EQ(h.core.lock_holder(1), -1);
  h.expect_valid_trace();
}

// ---- reply-cache retransmission --------------------------------------------

TEST(CoherenceCore, RetransmittedRequestGetsIdenticalCachedReply) {
  CoreHarness h;
  h.attach(1, {{0, 0, 4}, {1, 2, 6}});

  auto first =
      h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  const msg::Message* grant1 = find_send(first, 1, msg::MsgType::LockGrant);
  ASSERT_NE(grant1, nullptr);
  const msg::Message saved = *grant1;
  EXPECT_EQ(saved.payload.size(), 2 * sizeof(idx::UpdateRun));

  // The grant was lost; the remote retransmits.  The cached reply must be
  // byte-identical — the pending set was consumed by the first grant, so a
  // re-pack would (wrongly) ship an empty payload.
  auto second =
      h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  const msg::Message* grant2 = find_send(second, 1, msg::MsgType::LockGrant);
  ASSERT_NE(grant2, nullptr);
  EXPECT_EQ(grant2->payload, saved.payload);
  EXPECT_EQ(grant2->seq, saved.seq);
  EXPECT_EQ(h.stats.duplicates_dropped, 1u);
  h.expect_valid_trace();
}

// ---- generation-guarded reset recovery -------------------------------------

TEST(CoherenceCore, ResetRecoveryHonoredWhileGenerationUnchanged) {
  CoreHarness h;
  h.attach(1);
  h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  EXPECT_EQ(h.core.lock_holder(0), 1);
  EXPECT_EQ(h.core.recovery_entries(1), 1u);

  // The transport dies before the unlock lands: the home reclaims.
  h.step(Event::peer_detached(1));
  EXPECT_EQ(h.core.lock_holder(0), -1);

  // The remote reconnects and retransmits the outstanding unlock.  Nobody
  // was granted the mutex in between, so the diffs are applied and acked.
  h.attach(1);
  auto actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0,
                  fake_payload({{0, 1, 3}}))));
  EXPECT_NE(find_send(actions, 1, msg::MsgType::UnlockAck), nullptr);
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 0);
  // Honored recovery consumes the window.
  EXPECT_EQ(h.core.recovery_entries(1), 0u);
  h.expect_valid_trace();
}

TEST(CoherenceCore, ResetRecoveryDeniedAfterRegrant) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);
  h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  h.step(Event::peer_detached(1));

  // Rank 2 acquires and releases in the window: the generation moved on
  // (and rank 1's recovery entry is erased by the regrant).
  h.step(Event::msg_received(2, make_msg(msg::MsgType::LockRequest, 2, 1)));
  EXPECT_EQ(h.core.recovery_entries(1), 0u);
  h.step(Event::msg_received(
      2, make_msg(msg::MsgType::UnlockRequest, 2, 2, 0, fake_payload({}))));

  // Rank 1's retransmitted unlock now carries stale diffs that would
  // overwrite rank 2's writes: dropped, sender detached, nothing applied.
  h.attach(1);
  const int applies_before = h.codec.apply_calls;
  auto actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0,
                  fake_payload({{0, 0, 9}}))));
  ASSERT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  const auto detach_it =
      std::find_if(actions.begin(), actions.end(), [](const Action& a) {
        return a.kind == Action::Kind::Detach;
      });
  EXPECT_NE(detach_it->reason.find("re-granted"), std::string::npos);
  EXPECT_EQ(h.codec.apply_calls, applies_before);
  EXPECT_FALSE(h.core.peer_active(1));
  EXPECT_EQ(h.core.recovery_entries(1), 0u);
  h.expect_valid_trace();
}

TEST(CoherenceCore, EveryGrantClosesOtherRanksRecoveryWindows) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);
  h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  h.step(Event::peer_detached(1));
  EXPECT_EQ(h.core.recovery_entries(1), 1u);

  // The regrant to rank 2 closes rank 1's window for mutex 0 — at most one
  // rank ever holds a window per mutex.
  h.step(Event::msg_received(2, make_msg(msg::MsgType::LockRequest, 2, 1)));
  EXPECT_EQ(h.core.recovery_entries(1), 0u);
  EXPECT_EQ(h.core.recovery_entries(2), 1u);
}

// ---- protocol violations become Detach actions -----------------------------

TEST(CoherenceCore, MalformedPayloadDetachesPeerInsteadOfThrowing) {
  CoreHarness h;
  h.attach(1);
  h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1)));
  h.codec.poisoned = true;
  std::vector<Action> actions;
  ASSERT_NO_THROW(actions = h.step(Event::msg_received(
                      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0,
                                  fake_payload({{0, 0, 1}})))));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(1));
  EXPECT_EQ(h.core.lock_holder(0), -1);  // its lock was reclaimed
}

TEST(CoherenceCore, OutOfRangeIndexesDetachTheSender) {
  CoreHarness h(2, 2);
  h.attach(1);
  auto actions = h.step(
      Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1, 99)));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(1));

  h.attach(2);
  actions = h.step(Event::msg_received(
      2, make_msg(msg::MsgType::UnlockRequest, 2, 1, 0, fake_payload({}))));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);  // never held it
  EXPECT_FALSE(h.core.peer_active(2));
}

// A remote has one request outstanding and retransmits under the same seq,
// so a fresh-seq LockRequest for a mutex the rank already holds or already
// waits for is a protocol violation: the sender is detached, never queued
// behind itself or queued twice.
TEST(CoherenceCore, FreshLockRequestFromTheHolderDetachesIt) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);
  auto actions = h.step(
      Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1, 0)));
  ASSERT_NE(find_send(actions, 1, msg::MsgType::LockGrant), nullptr);
  h.step(Event::msg_received(2, make_msg(msg::MsgType::LockRequest, 2, 1, 0)));
  ASSERT_EQ(h.core.lock_holder(0), 1);

  actions = h.step(
      Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 2, 0)));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(1));
  EXPECT_EQ(h.core.lock_holder(0), 2);  // handed to the next waiter
  EXPECT_NE(find_send(actions, 2, msg::MsgType::LockGrant), nullptr);
  EXPECT_EQ(find_send(actions, 1, msg::MsgType::LockGrant), nullptr);
  h.expect_valid_trace();
}

TEST(CoherenceCore, FreshLockRequestFromAQueuedWaiterDetachesIt) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);
  h.step(Event::msg_received(1, make_msg(msg::MsgType::LockRequest, 1, 1, 0)));
  h.step(Event::msg_received(2, make_msg(msg::MsgType::LockRequest, 2, 1, 0)));

  auto actions = h.step(
      Event::msg_received(2, make_msg(msg::MsgType::LockRequest, 2, 2, 0)));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(2));
  EXPECT_EQ(h.core.lock_holder(0), 1);

  // The detached waiter left the queue: the release finds nobody to grant.
  actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::UnlockRequest, 1, 2, 0, fake_payload({}))));
  EXPECT_NE(find_send(actions, 1, msg::MsgType::UnlockAck), nullptr);
  EXPECT_EQ(find_send(actions, 2, msg::MsgType::LockGrant), nullptr);
  EXPECT_EQ(h.core.lock_holder(0), -1);
  h.expect_valid_trace();
}

TEST(CoherenceCore, FreshBarrierEnterFromAnEnteredRankDetachesIt) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);
  h.step(Event::msg_received(
      1, make_msg(msg::MsgType::BarrierEnter, 1, 1, 0, fake_payload({}))));
  auto actions = h.step(Event::msg_received(
      1, make_msg(msg::MsgType::BarrierEnter, 1, 2, 0, fake_payload({}))));
  EXPECT_EQ(count_kind(actions, Action::Kind::Detach), 1);
  EXPECT_FALSE(h.core.peer_active(1));
  EXPECT_EQ(h.codec.apply_calls, 1);  // the second entry's diffs not applied

  // The episode still waits for the master and rank 2, not a double count.
  h.step(Event::master_barrier(0, {}));
  EXPECT_EQ(h.core.barrier_generation(0), 0u);
  actions = h.step(Event::msg_received(
      2, make_msg(msg::MsgType::BarrierEnter, 2, 1, 0, fake_payload({}))));
  EXPECT_EQ(h.core.barrier_generation(0), 1u);
  EXPECT_NE(find_send(actions, 2, msg::MsgType::BarrierRelease), nullptr);
  EXPECT_EQ(find_send(actions, 1, msg::MsgType::BarrierRelease), nullptr);
  h.expect_valid_trace();
}

// ---- barriers --------------------------------------------------------------

TEST(CoherenceCore, MidEpisodeAttachIsNotAParticipant) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);

  // Rank 1 opens the episode: participants freeze at {master, 1, 2}.
  h.step(Event::msg_received(
      1, make_msg(msg::MsgType::BarrierEnter, 1, 1, 0, fake_payload({}))));
  // Rank 3 attaches mid-episode: it neither blocks the episode nor
  // receives its release.
  h.attach(3);
  h.step(Event::master_barrier(0, {}));
  EXPECT_EQ(h.core.barrier_generation(0), 0u);  // still waiting on rank 2

  auto actions = h.step(Event::msg_received(
      2, make_msg(msg::MsgType::BarrierEnter, 2, 1, 0, fake_payload({}))));
  EXPECT_EQ(h.core.barrier_generation(0), 1u);
  EXPECT_NE(find_send(actions, 1, msg::MsgType::BarrierRelease), nullptr);
  EXPECT_NE(find_send(actions, 2, msg::MsgType::BarrierRelease), nullptr);
  EXPECT_EQ(find_send(actions, 3, msg::MsgType::BarrierRelease), nullptr);
  EXPECT_GE(count_kind(actions, Action::Kind::WakeMaster), 1);
  h.expect_valid_trace();
}

TEST(CoherenceCore, DetachOfLastStragglerReleasesBarrier) {
  CoreHarness h;
  h.attach(1);
  h.attach(2);
  h.step(Event::master_barrier(0, {}));
  h.step(Event::msg_received(
      1, make_msg(msg::MsgType::BarrierEnter, 1, 1, 0, fake_payload({}))));
  EXPECT_EQ(h.core.barrier_generation(0), 0u);

  // Rank 2 crashes instead of entering: the episode completes without it.
  auto actions = h.step(Event::peer_detached(2));
  EXPECT_EQ(h.core.barrier_generation(0), 1u);
  EXPECT_NE(find_send(actions, 1, msg::MsgType::BarrierRelease), nullptr);
  h.expect_valid_trace();
}

// ---- exhaustive small-schedule permutation drivers -------------------------

namespace {

/// Replays a lock/unlock workload under one interleaving: the master and
/// two remotes each do acquire-then-release of mutex 0, with the real
/// request/reply causality (an agent's next step fires only after its
/// previous one was answered).  Agent 0 is the master.
struct LockScheduleSim {
  CoreHarness h{4, 2};
  std::array<int, 3> pc{};       // 0 = acquire next, 1 = release next, 2 = done
  std::array<int, 3> replies{};  // replies seen per remote agent

  LockScheduleSim() {
    h.attach(1);
    h.attach(2);
  }

  void observe(const std::vector<Action>& actions) {
    for (const Action& a : actions) {
      if (a.kind == Action::Kind::Send &&
          (a.message.type == msg::MsgType::LockGrant ||
           a.message.type == msg::MsgType::UnlockAck)) {
        ++replies[a.rank];
      }
    }
  }

  bool enabled(int agent) const {
    if (pc[agent] >= 2) return false;
    if (agent == 0) {
      return pc[0] == 0 || h.core.master_holds(0);
    }
    return pc[agent] == 0 || replies[agent] >= 1;
  }

  void fire(int agent) {
    if (agent == 0) {
      observe(h.step(pc[0] == 0 ? Event::master_lock(0)
                                : Event::master_unlock(0, {})));
    } else {
      const auto rank = static_cast<std::uint32_t>(agent);
      msg::Message m =
          pc[agent] == 0
              ? make_msg(msg::MsgType::LockRequest, rank, 1)
              : make_msg(msg::MsgType::UnlockRequest, rank, 2, 0,
                         fake_payload({}));
      observe(h.step(Event::msg_received(rank, std::move(m))));
    }
    ++pc[agent];
  }

  bool done() const { return pc[0] == 2 && pc[1] == 2 && pc[2] == 2; }
};

void dfs_lock_schedules(std::vector<int>& path, int& schedules) {
  LockScheduleSim sim;
  for (const int agent : path) {
    ASSERT_TRUE(sim.enabled(agent));
    sim.fire(agent);
  }
  bool any = false;
  for (int agent = 0; agent < 3; ++agent) {
    if (!sim.enabled(agent)) continue;
    any = true;
    path.push_back(agent);
    dfs_lock_schedules(path, schedules);
    path.pop_back();
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (any) return;
  // A maximal schedule: nothing more can fire.  The workload must have run
  // to completion (no lost wakeup / stuck queue is representable here as an
  // agent that never became enabled).
  ASSERT_TRUE(sim.done()) << "schedule deadlocked after "
                          << path.size() << " steps";
  EXPECT_EQ(sim.h.core.lock_holder(0), -1);
  EXPECT_EQ(sim.replies[1], 2);
  EXPECT_EQ(sim.replies[2], 2);
  EXPECT_EQ(sim.h.stats.locks, 1u);
  const auto err = dsm::validate_trace(sim.h.log.snapshot());
  ASSERT_FALSE(err.has_value()) << *err;
  ++schedules;
}

}  // namespace

TEST(CoherenceCoreSchedules, AllLockInterleavingsConvergeAndValidate) {
  std::vector<int> path;
  int schedules = 0;
  dfs_lock_schedules(path, schedules);
  // 3 agents × 2 causally-ordered steps: dozens of distinct interleavings,
  // every single one replayed and validated.
  EXPECT_GE(schedules, 20);
}

TEST(CoherenceCoreSchedules, AllBarrierEntryOrdersRelease) {
  std::array<int, 3> order{0, 1, 2};  // 0 = master, 1..2 = remotes
  std::sort(order.begin(), order.end());
  int permutations = 0;
  do {
    CoreHarness h;
    h.attach(1);
    h.attach(2);
    std::vector<Action> last;
    for (const int agent : order) {
      if (agent == 0) {
        last = h.step(Event::master_barrier(0, {}));
      } else {
        const auto rank = static_cast<std::uint32_t>(agent);
        last = h.step(Event::msg_received(
            rank,
            make_msg(msg::MsgType::BarrierEnter, rank, 1, 0, fake_payload({}))));
      }
    }
    // Whatever the entry order, the LAST entry completes the episode and
    // releases exactly the two remotes.
    EXPECT_EQ(h.core.barrier_generation(0), 1u);
    EXPECT_NE(find_send(last, 1, msg::MsgType::BarrierRelease), nullptr);
    EXPECT_NE(find_send(last, 2, msg::MsgType::BarrierRelease), nullptr);
    const auto err = dsm::validate_trace(h.log.snapshot());
    ASSERT_FALSE(err.has_value()) << *err;
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 6);
}

// ---- object mode: scoped grants at every interleaving ----------------------

namespace {

std::vector<idx::UpdateRun> decode_runs(const std::vector<std::byte>& p) {
  std::vector<idx::UpdateRun> runs(p.size() / sizeof(idx::UpdateRun));
  if (!runs.empty()) std::memcpy(runs.data(), p.data(), p.size());
  return runs;
}

/// Strict entry consistency (docs/OBJECTS.md) on the one core: mutex 0 is
/// bound to row 0 and mutex 1 to row 1 — each row standing for one
/// (class, region) object stripe.  Remote 1 works objects guarded by
/// region 0, remote 2 objects guarded by region 1, and every rank starts
/// with both rows pending.  The DFS drives every interleaving and each one
/// must keep the scoping bars: a grant ships ONLY its bound row's pending
/// runs (never another region's objects), and region 0's initial pending
/// reaches remote 1 exactly once.
struct ObjectLockSim {
  CoreHarness h{2, 2};
  std::array<int, 2> pc{};       // per remote: 0 = lock, 1 = unlock, 2 = done
  std::array<int, 2> replies{};
  std::array<std::uint32_t, 2> seq{};
  std::vector<idx::UpdateRun> grant0_runs;  // pending delivered on mutex 0

  ObjectLockSim() {
    h.step(Event::bind_lock(0, 0));
    h.step(Event::bind_lock(1, 1));
    for (std::uint32_t rank : {1u, 2u}) {
      h.attach(rank, {{0, 0, 4}, {1, 0, 4}});
    }
  }

  void fire(int i) {
    const auto rank = static_cast<std::uint32_t>(i + 1);
    const auto mutex = static_cast<std::uint32_t>(i);
    msg::Message m =
        pc[i] == 0
            ? make_msg(msg::MsgType::LockRequest, rank, ++seq[i], mutex)
            : make_msg(msg::MsgType::UnlockRequest, rank, ++seq[i], mutex,
                       fake_payload({{mutex, 0, 2}}));
    for (const Action& a : h.step(Event::msg_received(rank, std::move(m)))) {
      if (a.kind != Action::Kind::Send) continue;
      ++replies[a.rank - 1];
      if (a.message.type != msg::MsgType::LockGrant) continue;
      // The scoping bar: nothing outside the granted region's bound row
      // may ride the grant.
      for (const idx::UpdateRun& run : decode_runs(a.message.payload)) {
        EXPECT_EQ(run.row, a.message.sync_id)
            << "grant of mutex " << a.message.sync_id << " shipped row "
            << run.row;
        if (a.message.sync_id == 0) grant0_runs.push_back(run);
      }
    }
    ++pc[i];
  }

  bool enabled(int i) const {
    if (pc[i] >= 2) return false;
    return pc[i] == 0 || replies[i] >= 1;
  }

  bool done() const { return pc[0] == 2 && pc[1] == 2; }
};

void dfs_object_schedules(std::vector<int>& path, int& schedules) {
  ObjectLockSim sim;
  for (const int agent : path) {
    ASSERT_TRUE(sim.enabled(agent));
    sim.fire(agent);
  }
  bool any = false;
  for (int agent = 0; agent < 2; ++agent) {
    if (!sim.enabled(agent)) continue;
    any = true;
    path.push_back(agent);
    dfs_object_schedules(path, schedules);
    path.pop_back();
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (any) return;
  ASSERT_TRUE(sim.done()) << "schedule deadlocked after " << path.size()
                          << " steps";
  EXPECT_EQ(sim.replies[0], 2);
  EXPECT_EQ(sim.replies[1], 2);
  EXPECT_EQ(sim.h.core.lock_holder(0), -1);
  EXPECT_EQ(sim.h.core.lock_holder(1), -1);
  // Remote 1's grant delivered region 0's initial pending exactly once.
  ASSERT_EQ(sim.grant0_runs.size(), 1u);
  EXPECT_EQ(sim.grant0_runs[0].row, 0u);
  EXPECT_EQ(sim.grant0_runs[0].first_elem, 0u);
  EXPECT_EQ(sim.grant0_runs[0].count, 4u);
  // Each unlock's runs applied exactly once.
  EXPECT_EQ(sim.h.codec.apply_calls, 2);
  sim.h.expect_valid_trace();
  ++schedules;
}

}  // namespace

TEST(CoherenceCoreSchedules, AllObjectModeInterleavingsStayScoped) {
  std::vector<int> path;
  int schedules = 0;
  dfs_object_schedules(path, schedules);
  // The two remotes touch disjoint regions, so every merge of their step
  // sequences (2 + 2 steps) is causally valid: 4! / (2! 2!) = 6 schedules,
  // each replayed and validated.
  EXPECT_EQ(schedules, 6);
}

// ---- replicated pair: primary crash at every causally-valid step -----------

namespace {

/// A primary/standby core pair under the synchronous log discipline of
/// docs/REPLICATION.md, with the wire modeled as in LockScheduleSim: the
/// master and two remotes acquire/release mutex 0.  Every event the
/// primary steps is replayed on the standby before its replies deliver
/// (log-before-reply); `crash_and_promote` kills the primary at the
/// current step — optionally losing the replies of the very last event,
/// the in-flight window a real crash exposes — resets the dead master's
/// state on the standby, re-delivers each remote's outstanding retransmit,
/// and the workload finishes against the promoted standby.
struct ReplicatedLockSim {
  CoreHarness primary{4, 2};
  CoreHarness standby{4, 2};
  bool crashed = false;
  std::array<int, 3> pc{};       // agent progress: 0 acquire, 1 release, 2 done
  std::array<int, 3> replies{};  // DELIVERED replies per remote agent
  std::array<std::optional<msg::Message>, 3> outstanding;  // unanswered reqs

  ReplicatedLockSim() {
    for (std::uint32_t r : {1u, 2u}) {
      primary.attach(r);
      standby.attach(r);  // the replicated attach events
    }
  }

  CoreHarness& serving() { return crashed ? standby : primary; }

  void deliver(const std::vector<Action>& actions) {
    for (const Action& a : actions) {
      if (a.kind == Action::Kind::Send &&
          (a.message.type == msg::MsgType::LockGrant ||
           a.message.type == msg::MsgType::UnlockAck)) {
        ++replies[a.rank];
        outstanding[a.rank].reset();
      }
    }
  }

  bool enabled(int agent) const {
    if (pc[agent] >= 2) return false;
    if (agent == 0) {
      return pc[0] == 0 ||
             (crashed ? standby.core.master_holds(0)
                      : primary.core.master_holds(0));
    }
    return pc[agent] == 0 || replies[agent] >= 1;
  }

  /// Fire one agent step on the serving core.  Pre-crash, the event also
  /// replays on the standby (the synchronous append); `lose_replies`
  /// models a crash right after the append, before the send flush.
  void fire(int agent, bool lose_replies = false) {
    std::vector<Action> actions;
    if (agent == 0) {
      const Event e = pc[0] == 0 ? Event::master_lock(0)
                                 : Event::master_unlock(0, {});
      actions = serving().step(e);
      if (!crashed) standby.step(e);
    } else {
      const auto rank = static_cast<std::uint32_t>(agent);
      msg::Message m =
          pc[agent] == 0
              ? make_msg(msg::MsgType::LockRequest, rank, 1)
              : make_msg(msg::MsgType::UnlockRequest, rank, 2, 0,
                         fake_payload({{0, 0, 1}}));
      outstanding[agent] = m;
      actions = serving().step(Event::msg_received(rank, msg::Message(m)));
      if (!crashed) {
        standby.step(Event::msg_received(rank, std::move(m)));
      }
    }
    ++pc[agent];
    if (!lose_replies) deliver(actions);
  }

  void crash_and_promote() {
    ASSERT_FALSE(crashed);
    crashed = true;
    // The dead primary's master does not survive: release its lock, drop
    // it from the waiter queue (its state machine restarts from scratch).
    std::vector<Action> actions;
    standby.core.reset_master(actions);
    for (const Action& a : actions) {
      if (a.kind == Action::Kind::Trace) {
        standby.log.append(a.trace.kind, a.trace.rank, a.trace.sync_id,
                           a.trace.blocks, a.trace.bytes, a.trace.req);
      }
    }
    pc[0] = 0;
    // Each remote's retry layer retransmits whatever it never saw answered;
    // the replicated reply cache (or waiter state) must answer each exactly
    // once.
    for (int agent : {1, 2}) {
      if (!outstanding[agent].has_value()) continue;
      const auto rank = static_cast<std::uint32_t>(agent);
      deliver(standby.step(
          Event::msg_received(rank, msg::Message(*outstanding[agent]))));
    }
  }

  bool done() const { return pc[0] == 2 && pc[1] == 2 && pc[2] == 2; }

  /// Drive the remaining steps round-robin on the promoted standby, then
  /// assert the takeover bar: workload complete, mutex free, each unlock's
  /// updates applied exactly once, and a seamless standby trace.
  void finish_and_check() {
    for (int guard = 0; guard < 64 && !done(); ++guard) {
      for (int agent : {1, 2, 0}) {
        if (enabled(agent)) fire(agent);
      }
    }
    ASSERT_TRUE(done()) << "takeover wedged the workload";
    EXPECT_EQ(standby.core.lock_holder(0), -1);
    EXPECT_EQ(replies[1], 2);
    EXPECT_EQ(replies[2], 2);
    // One apply per remote unlock, whether it replayed pre-crash or
    // executed post-promotion; a retransmitted unlock must hit the
    // replicated dedup horizon, never the codec.
    EXPECT_EQ(standby.codec.apply_calls, 2);
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> applied;
    for (const auto& ev : standby.log.snapshot()) {
      if (ev.kind != dsm::TraceEvent::Kind::UpdatesApplied || ev.req == 0) {
        continue;
      }
      const int times = ++applied[std::make_pair(ev.rank, ev.req)];
      EXPECT_EQ(times, 1) << "rank " << ev.rank << " request #" << ev.req
                          << " applied twice across the failover";
    }
    const auto err = dsm::validate_trace(standby.log.snapshot());
    ASSERT_FALSE(err.has_value()) << *err;
  }
};

/// Enumerate every causally-valid interleaving of the workload (the same
/// DFS as dfs_lock_schedules, against the replicated pair, no crash).
void collect_replicated_schedules(std::vector<int>& path,
                                  std::vector<std::vector<int>>& maximal) {
  ReplicatedLockSim sim;
  for (const int agent : path) {
    ASSERT_TRUE(sim.enabled(agent));
    sim.fire(agent);
  }
  bool any = false;
  for (int agent = 0; agent < 3; ++agent) {
    if (!sim.enabled(agent)) continue;
    any = true;
    path.push_back(agent);
    collect_replicated_schedules(path, maximal);
    path.pop_back();
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (!any) maximal.push_back(path);
}

}  // namespace

TEST(CoherenceCoreSchedules, PrimaryCrashAtEveryStepFailsOverExactlyOnce) {
  std::vector<int> path;
  std::vector<std::vector<int>> schedules;
  collect_replicated_schedules(path, schedules);
  ASSERT_GE(schedules.size(), 20u);

  int runs = 0;
  for (const std::vector<int>& schedule : schedules) {
    for (std::size_t crash_at = 0; crash_at <= schedule.size(); ++crash_at) {
      // lost = the crash window between the append and the send flush: the
      // last event IS in the standby's log but its replies never left.
      for (const bool lost : {false, true}) {
        ReplicatedLockSim sim;
        for (std::size_t i = 0; i < crash_at; ++i) {
          ASSERT_TRUE(sim.enabled(schedule[i]));
          sim.fire(schedule[i], lost && i + 1 == crash_at);
        }
        sim.crash_and_promote();
        sim.finish_and_check();
        if (::testing::Test::HasFatalFailure()) return;
        ++runs;
      }
    }
  }
  EXPECT_GE(runs, 250);
}

// ---- recovery-window bound (the granted_gen growth fix) --------------------

TEST(CoherenceCoreStress, RecoveryWindowsNeverOutgrowTheMutexCount) {
  constexpr std::uint32_t kLocks = 32;
  constexpr std::uint32_t kPeers = 4;
  CoreHarness h(kLocks, 2);
  for (std::uint32_t r = 1; r <= kPeers; ++r) h.attach(r);

  std::mt19937 rng(0x5eed);
  std::array<std::int64_t, kLocks> holder;
  holder.fill(-1);
  std::array<std::uint32_t, kPeers + 1> seq{};
  std::array<std::int32_t, kPeers + 1> held;
  held.fill(-1);

  const auto total_windows = [&] {
    std::size_t sum = 0;
    for (std::uint32_t r = 1; r <= kPeers; ++r) {
      sum += h.core.recovery_entries(r);
    }
    return sum;
  };

  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint32_t r = 1 + rng() % kPeers;
    if (held[r] >= 0) {
      const auto m = static_cast<std::uint32_t>(held[r]);
      if (rng() % 5 == 0) {
        // Crash while holding: the home reclaims, the recovery window for
        // the lost unlock stays open until someone regrants the mutex.
        h.step(Event::peer_detached(r));
        h.attach(r);
      } else {
        h.step(Event::msg_received(
            r, make_msg(msg::MsgType::UnlockRequest, r, ++seq[r], m,
                        fake_payload({}))));
      }
      holder[m] = -1;
      held[r] = -1;
    } else {
      const std::uint32_t m = rng() % kLocks;
      if (holder[m] != -1) continue;  // keep requests conflict-free
      h.step(Event::msg_received(
          r, make_msg(msg::MsgType::LockRequest, r, ++seq[r], m)));
      holder[m] = r;
      held[r] = static_cast<std::int32_t>(m);
    }
    // The invariant the fix establishes: per mutex, at most ONE rank holds
    // an open recovery window (the last grantee), so the total can never
    // exceed the mutex count — no matter how many crash/regrant cycles run.
    ASSERT_LE(total_windows(), kLocks) << "at iteration " << iter;
    for (std::uint32_t p = 1; p <= kPeers; ++p) {
      ASSERT_LE(h.core.recovery_entries(p), kLocks);
    }
  }
  const auto err = dsm::validate_trace(h.log.snapshot());
  ASSERT_FALSE(err.has_value()) << *err;
}

// ---- pending sets: the per-row store against a flat oracle -----------------

namespace {

/// Runs as an untrusted payload may list them: unsorted, overlapping,
/// strided, or empty, over a few short rows.
std::vector<idx::UpdateRun> random_runs(std::mt19937& rng) {
  std::vector<idx::UpdateRun> runs(rng() % 5);
  for (idx::UpdateRun& r : runs) {
    const std::uint32_t strides[] = {1, 1, 2, 3};
    r = idx::UpdateRun{static_cast<std::uint32_t>(rng() % 5), rng() % 40,
                       rng() % 7, strides[rng() % 4]};
  }
  return runs;
}

/// Drives the core through a random schedule of master and remote locks on
/// bound and unbound mutexes, barrier episodes, and detach/re-attach, and
/// keeps next to it each peer's pending set the way the core kept it as
/// one flat vector: merge_runs on every update, everything shipped by an
/// unbound grant or a release, and a bound grant filtering out its rows.
/// Every LockGrant and BarrierRelease must carry exactly the oracle's runs.
struct PendingOracleSim {
  static constexpr std::uint32_t kRemotes = 3;
  static constexpr std::uint32_t kLocks = 4;
  enum class State { Idle, Waiting, Holding, InBarrier, Detached };
  struct Agent {
    State state = State::Idle;
    std::uint32_t mutex = 0;
    std::uint32_t seq = 0;
  };

  CoreHarness h{kLocks, 1};
  std::mt19937 rng;
  std::array<Agent, kRemotes + 1> agents{};  ///< [0] is the master
  std::map<std::uint32_t, std::vector<std::uint32_t>> bound;
  std::map<std::uint32_t, std::vector<idx::UpdateRun>> flat;
  std::uint64_t barrier_gen = 0;
  int grants = 0;
  int bound_grants = 0;
  int releases = 0;

  explicit PendingOracleSim(std::uint32_t seed) : rng(seed) {
    // Mutex 0 guards rows 2 and 0 (bound out of order, and row 2 twice),
    // mutex 1 row 3; mutexes 2 and 3 are unbound.
    for (const auto& [m, row] : {std::pair{0u, 2u}, {0u, 0u}, {0u, 2u},
                                {1u, 3u}}) {
      h.step(Event::bind_lock(m, row));
      auto& rows = bound[m];
      if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
        rows.push_back(row);
      }
    }
    for (std::uint32_t r = 1; r <= kRemotes; ++r) attach(r);
  }

  void attach(std::uint32_t r) {
    // A multi-row seed, like a fresh peer's full image.
    std::vector<idx::UpdateRun> seed = random_runs(rng);
    seed.push_back({static_cast<std::uint32_t>(rng() % 5), 0, 16});
    flat[r].clear();
    dsm::merge_runs(flat[r], seed);
    agents[r] = Agent{State::Idle, 0, agents[r].seq};
    run(Event::peer_attached(r, seed));
  }

  void merge_into_others(std::uint32_t source,
                         const std::vector<idx::UpdateRun>& runs) {
    for (auto& [r, pending] : flat) {
      if (r != source && agents[r].state != State::Detached) {
        dsm::merge_runs(pending, runs);
      }
    }
  }

  /// Step the core, then check every shipped payload against the oracle
  /// and move the agents the replies address.
  void run(const Event& e) {
    const std::vector<Action> actions = h.step(e);
    ASSERT_EQ(count_kind(actions, Action::Kind::Detach), 0);
    std::optional<dsm::TraceEvent> shipped;
    for (const Action& a : actions) {
      if (a.kind == Action::Kind::Trace &&
          a.trace.kind == dsm::TraceEvent::Kind::UpdatesShipped) {
        shipped = a.trace;
      }
      if (a.kind != Action::Kind::Send) continue;
      Agent& agent = agents[a.rank];
      const msg::MsgType type = a.message.type;
      if (type == msg::MsgType::UnlockAck) {
        agent.state = State::Idle;
        continue;
      }
      ASSERT_TRUE(type == msg::MsgType::LockGrant ||
                  type == msg::MsgType::BarrierRelease);
      std::vector<idx::UpdateRun>& pending = flat[a.rank];
      std::vector<idx::UpdateRun> want;
      const auto it = bound.find(a.message.sync_id);
      if (type == msg::MsgType::LockGrant && it != bound.end()) {
        std::vector<idx::UpdateRun> rest;
        for (const idx::UpdateRun& run : pending) {
          const bool guarded = std::find(it->second.begin(), it->second.end(),
                                         run.row) != it->second.end();
          (guarded ? want : rest).push_back(run);
        }
        pending = std::move(rest);
        ++bound_grants;
      } else {
        want = std::move(pending);
        pending.clear();
      }
      EXPECT_EQ(a.message.payload, fake_payload(want))
          << msg::msg_type_name(type) << " " << a.message.sync_id
          << " to rank " << a.rank;
      ASSERT_TRUE(shipped.has_value());
      EXPECT_EQ(shipped->rank, a.rank);
      EXPECT_EQ(shipped->blocks, want.size());
      EXPECT_EQ(shipped->bytes, a.message.payload.size());
      shipped.reset();
      if (type == msg::MsgType::LockGrant) {
        agent.state = State::Holding;
        ++grants;
      } else {
        agent.state = State::Idle;
        ++releases;
      }
    }
    Agent& master = agents[0];
    if (master.state == State::Waiting && h.core.master_holds(master.mutex)) {
      master.state = State::Holding;
    }
    if (master.state == State::InBarrier &&
        h.core.barrier_generation(0) != barrier_gen) {
      barrier_gen = h.core.barrier_generation(0);
      master.state = State::Idle;
    }
  }

  void remote_step(std::uint32_t r) {
    Agent& agent = agents[r];
    const auto request = [&](msg::MsgType type, std::uint32_t sync_id,
                             std::vector<idx::UpdateRun> runs) {
      return Event::msg_received(
          r, make_msg(type, r, ++agent.seq, sync_id, fake_payload(runs)));
    };
    if (agent.state == State::Detached) {
      attach(r);
      return;
    }
    // Detach a remote outside a barrier episode, whatever else it does.
    if (agent.state != State::InBarrier && rng() % 16 == 0) {
      agent.state = State::Detached;
      flat[r].clear();
      run(Event::peer_detached(r));
      return;
    }
    switch (agent.state) {
      case State::Idle:
        if (rng() % 4 == 0) {
          const std::vector<idx::UpdateRun> runs = random_runs(rng);
          merge_into_others(r, runs);
          agent.state = State::InBarrier;
          run(request(msg::MsgType::BarrierEnter, 0, runs));
        } else {
          agent.mutex = rng() % kLocks;
          agent.state = State::Waiting;
          run(request(msg::MsgType::LockRequest, agent.mutex, {}));
        }
        return;
      case State::Holding: {
        const std::vector<idx::UpdateRun> runs = random_runs(rng);
        merge_into_others(r, runs);
        run(request(msg::MsgType::UnlockRequest, agent.mutex, runs));
        return;
      }
      default:
        return;  // blocked on a reply
    }
  }

  void master_step() {
    Agent& master = agents[0];
    if (master.state == State::Idle) {
      if (rng() % 4 == 0) {
        const std::vector<idx::UpdateRun> runs = random_runs(rng);
        merge_into_others(0, runs);
        master.state = State::InBarrier;
        run(Event::master_barrier(0, runs));
      } else {
        master.mutex = rng() % kLocks;
        master.state = State::Waiting;
        run(Event::master_lock(master.mutex));
      }
    } else if (master.state == State::Holding) {
      const std::vector<idx::UpdateRun> runs = random_runs(rng);
      merge_into_others(0, runs);
      master.state = State::Idle;
      run(Event::master_unlock(master.mutex, runs));
    }
  }
};

}  // namespace

TEST(PendingSets, RandomScheduleMatchesAFlatOracle) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    PendingOracleSim sim(seed);
    for (int i = 0; i < 1500; ++i) {
      const auto agent = static_cast<std::uint32_t>(
          sim.rng() % (PendingOracleSim::kRemotes + 1));
      if (agent == 0) {
        sim.master_step();
      } else {
        sim.remote_step(agent);
      }
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "seed " << seed << ", step " << i;
    }
    // The schedule reached every kind of shipment many times over.
    EXPECT_GE(sim.grants, 100) << "seed " << seed;
    EXPECT_GE(sim.bound_grants, 30) << "seed " << seed;
    EXPECT_GE(sim.releases, 10) << "seed " << seed;
    sim.h.expect_valid_trace();
  }
}

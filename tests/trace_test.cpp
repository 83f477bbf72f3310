// Tests for the protocol trace log and validator, including end-to-end
// traces captured from live lock/barrier/join traffic.
#include <gtest/gtest.h>

#include <thread>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
using dsm::TraceEvent;
using Kind = dsm::TraceEvent::Kind;

namespace {

tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), 32)}});
}

std::vector<TraceEvent> make_events(
    std::initializer_list<std::tuple<Kind, std::uint32_t, std::uint32_t>>
        list) {
  std::vector<TraceEvent> out;
  std::uint64_t seq = 1;
  for (const auto& [kind, rank, sync] : list) {
    TraceEvent e;
    e.seq = seq++;
    e.kind = kind;
    e.rank = rank;
    e.sync_id = sync;
    out.push_back(e);
  }
  return out;
}

}  // namespace

TEST(TraceLog, AppendsWithMonotonicSeq) {
  dsm::TraceLog log;
  log.append(Kind::LockGranted, 1, 0);
  log.append(Kind::LockReleased, 1, 0, 3, 120);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].blocks, 3u);
  EXPECT_EQ(events[1].bytes, 120u);
  EXPECT_EQ(log.size(), 2u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLog, RendersReadably) {
  dsm::TraceLog log;
  log.append(Kind::BarrierEntered, 2, 5);
  log.append(Kind::UpdatesShipped, 2, 5, 7, 999);
  const std::string s = log.to_string();
  EXPECT_NE(s.find("#1 BarrierEntered rank=2 sync=5"), std::string::npos);
  EXPECT_NE(s.find("blocks=7 bytes=999"), std::string::npos);
}

TEST(Validator, CleanLockSequencePasses) {
  const auto events = make_events({{Kind::LockRequested, 1, 0},
                                   {Kind::LockGranted, 1, 0},
                                   {Kind::LockReleased, 1, 0},
                                   {Kind::LockGranted, 2, 0},
                                   {Kind::LockReleased, 2, 0}});
  EXPECT_FALSE(dsm::validate_trace(events).has_value());
}

TEST(Validator, DoubleGrantCaught) {
  const auto events = make_events({{Kind::LockGranted, 1, 0},
                                   {Kind::LockGranted, 2, 0}});
  const auto err = dsm::validate_trace(events);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("granted while held"), std::string::npos);
}

TEST(Validator, ReleaseByNonHolderCaught) {
  const auto events = make_events({{Kind::LockGranted, 1, 0},
                                   {Kind::LockReleased, 2, 0}});
  ASSERT_TRUE(dsm::validate_trace(events).has_value());
}

TEST(Validator, ReleaseWhileFreeCaught) {
  const auto events = make_events({{Kind::LockReleased, 1, 0}});
  ASSERT_TRUE(dsm::validate_trace(events).has_value());
}

TEST(Validator, IndependentMutexesDoNotInterfere) {
  const auto events = make_events({{Kind::LockGranted, 1, 0},
                                   {Kind::LockGranted, 2, 1},
                                   {Kind::LockReleased, 2, 1},
                                   {Kind::LockReleased, 1, 0}});
  EXPECT_FALSE(dsm::validate_trace(events).has_value());
}

TEST(Validator, BarrierEpisodeRules) {
  // Clean episode.
  auto ok = make_events({{Kind::BarrierEntered, 0, 0},
                         {Kind::BarrierEntered, 1, 0},
                         {Kind::BarrierReleased, 0, 0},
                         {Kind::BarrierEntered, 1, 0},  // next episode
                         {Kind::BarrierEntered, 0, 0},
                         {Kind::BarrierReleased, 0, 0}});
  EXPECT_FALSE(dsm::validate_trace(ok).has_value());

  // Double entry in one episode.
  auto dup = make_events({{Kind::BarrierEntered, 1, 0},
                          {Kind::BarrierEntered, 1, 0}});
  ASSERT_TRUE(dsm::validate_trace(dup).has_value());

  // Release without the master.
  auto no_master = make_events({{Kind::BarrierEntered, 1, 0},
                                {Kind::BarrierReleased, 0, 0}});
  ASSERT_TRUE(dsm::validate_trace(no_master).has_value());

  // Release of an empty episode.
  auto empty = make_events({{Kind::BarrierReleased, 0, 0}});
  ASSERT_TRUE(dsm::validate_trace(empty).has_value());
}

TEST(Validator, ActivityAfterJoinCaught) {
  const auto events = make_events({{Kind::Joined, 1, 0},
                                   {Kind::LockRequested, 1, 0}});
  const auto err = dsm::validate_trace(events);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("joined/detached"), std::string::npos);
}

TEST(Validator, ReattachClearsGoneState) {
  const auto events = make_events({{Kind::Attached, 1, 0},
                                   {Kind::Joined, 1, 0},
                                   {Kind::Attached, 1, 0},
                                   {Kind::LockGranted, 1, 0},
                                   {Kind::LockReleased, 1, 0}});
  EXPECT_FALSE(dsm::validate_trace(events).has_value());
}

TEST(Validator, RetryStormValidates) {
  // A lossy network: the request is retransmitted three times, the home
  // drops two late copies and re-sends its reply once.  All of that is
  // legitimate reliability bookkeeping — the episode must validate.
  const auto events = make_events({{Kind::Attached, 1, 0},
                                   {Kind::LockRequested, 1, 0},
                                   {Kind::RetrySent, 1, 0},
                                   {Kind::RetrySent, 1, 0},
                                   {Kind::RetrySent, 1, 0},
                                   {Kind::DuplicateDropped, 1, 0},
                                   {Kind::DuplicateDropped, 1, 0},
                                   {Kind::LockGranted, 1, 0},
                                   {Kind::ReplyResent, 1, 0},
                                   {Kind::LockReleased, 1, 0},
                                   {Kind::Joined, 1, 0},
                                   // Straggler retransmits arriving after the
                                   // join are still only bookkeeping.
                                   {Kind::DuplicateDropped, 1, 0},
                                   {Kind::ReplyResent, 1, 0}});
  EXPECT_FALSE(dsm::validate_trace(events).has_value());
}

TEST(Validator, DuplicateApplicationCaught) {
  // Idempotency invariant: the same sequenced request must never be applied
  // twice.  Forge a trace where request #5 lands two UpdatesApplied events.
  auto events = make_events({{Kind::UpdatesApplied, 1, 0},
                             {Kind::UpdatesApplied, 1, 0}});
  events[0].req = 5;
  events[1].req = 5;
  const auto err = dsm::validate_trace(events);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("applied twice"), std::string::npos);

  // A lower req after a higher one is equally a replay.
  events[1].req = 4;
  ASSERT_TRUE(dsm::validate_trace(events).has_value());

  // Unsequenced (req=0) events are exempt — legacy traffic carries no seq.
  events[0].req = 0;
  events[1].req = 0;
  EXPECT_FALSE(dsm::validate_trace(events).has_value());
}

TEST(Validator, TimeoutDetachEpisodeRules) {
  // A remote that times out while holding a mutex: TimeoutDetached marks it
  // gone and implicitly releases its mutexes (home-side reclamation), so a
  // later grant to another rank is clean...
  const auto ok = make_events({{Kind::LockGranted, 1, 0},
                               {Kind::TimeoutDetached, 1, 0},
                               {Kind::LockGranted, 2, 0},
                               {Kind::LockReleased, 2, 0}});
  EXPECT_FALSE(dsm::validate_trace(ok).has_value());

  // ...but real protocol activity from the detached rank is a violation.
  const auto bad = make_events({{Kind::TimeoutDetached, 1, 0},
                                {Kind::LockRequested, 1, 0}});
  const auto err = dsm::validate_trace(bad);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("joined/detached"), std::string::npos);
}

TEST(Validator, ReattachResetsIdempotencyHorizon) {
  // A new incarnation of a rank restarts request numbering at #1; after an
  // Attached event the lower req is not a replay.
  auto events = make_events({{Kind::UpdatesApplied, 1, 0},
                             {Kind::Joined, 1, 0},
                             {Kind::Attached, 1, 0},
                             {Kind::UpdatesApplied, 1, 0}});
  events[0].req = 3;
  events[3].req = 1;
  EXPECT_FALSE(dsm::validate_trace(events).has_value());

  // Without the re-attach the same pair fails.
  auto replay = make_events({{Kind::UpdatesApplied, 1, 0},
                             {Kind::UpdatesApplied, 1, 0}});
  replay[0].req = 3;
  replay[1].req = 1;
  EXPECT_TRUE(dsm::validate_trace(replay).has_value());
}

TEST(TraceLog, RendersReqWhenSequenced) {
  dsm::TraceLog log;
  log.append(Kind::UpdatesApplied, 1, 0, 2, 64, 9);
  log.append(Kind::RetrySent, 1, 0, 0, 0, 9);
  const std::string s = log.to_string();
  EXPECT_NE(s.find("UpdatesApplied rank=1 sync=0 blocks=2 bytes=64 req=9"),
            std::string::npos);
  EXPECT_NE(s.find("RetrySent rank=1 sync=0 req=9"), std::string::npos);
}

TEST(TraceEndToEnd, LiveLockTrafficValidates) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::solaris_sparc32(), opts);
  msg::EndpointPtr e1 = home.attach(1);
  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r1(gthv(), plat::linux_ia32(), 1, std::move(e1));
  dsm::ShardedRemote r2(gthv(), plat::linux_ia32(), 2, std::move(e2));
  home.start();

  std::thread t1([&] {
    for (int i = 0; i < 10; ++i) {
      r1.lock(0);
      auto a = r1.space().view<std::int32_t>("A");
      a.set(0, a.get(0) + 1);
      r1.unlock(0);
    }
    r1.barrier(0);
    r1.join();
  });
  std::thread t2([&] {
    for (int i = 0; i < 10; ++i) {
      r2.lock(1);
      auto a = r2.space().view<std::int32_t>("A");
      a.set(1, a.get(1) + 1);
      r2.unlock(1);
    }
    r2.barrier(0);
    r2.join();
  });
  home.barrier(0);
  t1.join();
  t2.join();
  home.wait_all_joined();
  home.stop();

  const auto events = log.snapshot();
  EXPECT_GT(events.size(), 40u);
  const auto err = dsm::validate_trace(events);
  EXPECT_FALSE(err.has_value()) << *err << "\n" << log.to_string();

  // The expected event mix is present.
  std::size_t grants = 0, joins = 0, barrier_releases = 0;
  for (const TraceEvent& e : events) {
    grants += e.kind == Kind::LockGranted;
    joins += e.kind == Kind::Joined;
    barrier_releases += e.kind == Kind::BarrierReleased;
  }
  EXPECT_EQ(grants, 20u);
  EXPECT_EQ(joins, 2u);
  EXPECT_EQ(barrier_releases, 1u);
}

TEST(TraceEndToEnd, TamperedTraceFails) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.trace = &log;
  dsm::ShardedHome home(gthv(), plat::linux_ia32(), opts);
  home.start();
  home.lock(0);
  home.unlock(0);
  home.stop();
  auto events = log.snapshot();
  ASSERT_FALSE(dsm::validate_trace(events).has_value());
  // Drop the release: the next grant (appended manually) must now fail.
  TraceEvent grant;
  grant.seq = events.back().seq + 1;
  grant.kind = Kind::LockGranted;
  grant.rank = 7;
  grant.sync_id = 0;
  auto tampered = events;
  tampered.erase(
      std::remove_if(tampered.begin(), tampered.end(),
                     [](const TraceEvent& e) {
                       return e.kind == Kind::LockReleased;
                     }),
      tampered.end());
  tampered.push_back(grant);
  EXPECT_TRUE(dsm::validate_trace(tampered).has_value());
}

// ---- adaptive decision events (invariant 5) ---------------------------------

TEST(Validator, StrategySwitchRequiresAProbeSample) {
  // A decision event with no probe sample at all: invalid.
  auto events = make_events({{Kind::StrategySwitched, 1, 7}});
  EXPECT_TRUE(dsm::validate_trace(events).has_value());

  // A probe from an *earlier* episode does not license a later switch.
  events = make_events(
      {{Kind::ProbeSampled, 1, 6}, {Kind::StrategySwitched, 1, 7}});
  EXPECT_TRUE(dsm::validate_trace(events).has_value());

  // Another rank's probe of the right episode does not count either:
  // tuners are per-node.
  events = make_events(
      {{Kind::ProbeSampled, 2, 7}, {Kind::StrategySwitched, 1, 7}});
  EXPECT_TRUE(dsm::validate_trace(events).has_value());
}

TEST(Validator, ProbeThenDecisionsOfTheSameEpisodeValidate) {
  const auto events = make_events({{Kind::ProbeSampled, 1, 7},
                                   {Kind::StrategySwitched, 1, 7},
                                   {Kind::RunsCoalesced, 1, 7},
                                   {Kind::ProbeSampled, 1, 8},
                                   {Kind::RunsCoalesced, 1, 8}});
  const auto err = dsm::validate_trace(events);
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(Validator, AdaptiveEventsAreLifecycleExempt) {
  // Probe/decision events interleave freely with protocol traffic without
  // counting as lock/barrier lifecycle steps.
  const auto events = make_events({{Kind::LockGranted, 1, 0},
                                   {Kind::ProbeSampled, 1, 3},
                                   {Kind::StrategySwitched, 1, 3},
                                   {Kind::LockReleased, 1, 0}});
  const auto err = dsm::validate_trace(events);
  EXPECT_FALSE(err.has_value()) << *err;
}

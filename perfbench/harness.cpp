#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include "msg/throttle.hpp"

namespace perfbench {

dsm::ShardedCluster::WrapFn Sessions::wrap_fn() {
  return [this](std::uint32_t rank, std::uint32_t,
                msg::EndpointPtr ep) -> msg::EndpointPtr {
    if (link_bytes_per_s != 0) {
      ep = msg::make_throttled(std::move(ep), link_bytes_per_s);
    }
    auto counted = std::make_unique<CountingEndpoint>(std::move(ep));
    by_rank.at(rank).push_back(counted.get());
    return counted;
  };
}

void Sessions::close(std::uint32_t rank) {
  for (CountingEndpoint* ep : by_rank.at(rank)) ep->close();
}

Tally tally(dsm::ShardedHome& home) {
  Tally t;
  t.stats = home.stats();
  if (home.telemetry() != nullptr) t.metrics = home.telemetry()->metrics();
  return t;
}

Tally tally(dsm::ShardedRemote& remote, const Sessions& sessions) {
  Tally t;
  t.stats = remote.stats();
  for (const CountingEndpoint* ep : sessions.by_rank.at(remote.rank())) {
    t.frames += ep->frames();
    t.bytes_sent += ep->bytes_sent();
    t.bytes_received += ep->bytes_received();
  }
  if (remote.telemetry() != nullptr) t.metrics = remote.telemetry()->metrics();
  return t;
}

void pin_thread(std::uint32_t slot) {
  // The CPUs this process may use, read once before any thread is pinned.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.size() <= kIoSlot) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void tighten_timers() { prctl(PR_SET_TIMERSLACK, 1UL); }

void master_rank(dsm::ShardedHome& home, RepResult& rep,
                 Clock::time_point setup_start, std::uint64_t timed,
                 const std::function<void()>& warm_up,
                 const std::function<void(std::uint64_t)>& episode) {
  RankLog& log = rep.ranks.at(0);
  tighten_timers();
  guarded(log, [&] {
    warm_up();
    home.barrier(kWindowBarrier);
    const Clock::time_point open = Clock::now();
    rep.window_open_ns = now_ns();
    rep.setup_s = std::chrono::duration<double>(open - setup_start).count();
    log.open = tally(home);
    log.episodes.reserve(timed);
    for (std::uint64_t i = 0; i < timed; ++i) episode(i);
    home.barrier(kWindowBarrier);
    rep.window = Clock::now() - open;
    rep.window_close_ns = now_ns();
    log.close = tally(home);
    home.wait_all_joined();
  });
}

void remote_rank(dsm::ShardedRemote& remote, RepResult& rep,
                 Sessions& sessions, std::uint64_t timed,
                 const std::function<void()>& warm_up,
                 const std::function<void(std::uint64_t)>& episode) {
  RankLog& log = rep.ranks.at(remote.rank());
  pin_thread(remote.rank());
  tighten_timers();
  // The library labels a remote's lane on the thread that constructed it;
  // name this thread's lane so its spans and the benchmark's line up.
  if (remote.telemetry() != nullptr) {
    remote.telemetry()->set_thread_label("client");
  }
  guarded(log, [&] {
    warm_up();
    remote.barrier(kWindowBarrier);
    log.open = tally(remote, sessions);
    log.episodes.reserve(timed);
    for (std::uint64_t i = 0; i < timed; ++i) episode(i);
    remote.barrier(kWindowBarrier);
    log.close = tally(remote, sessions);
    remote.join();
  });
  if (!log.error.empty()) sessions.close(remote.rank());
}

void collect_spans(RepResult& rep, dsm::ShardedHome& home,
                   const std::function<dsm::ShardedRemote&(std::uint32_t)>&
                       remote) {
  if (!rep.traced) return;
  if (home.telemetry() != nullptr) {
    rep.ranks[0].spans = home.telemetry()->spans();
  }
  for (std::uint32_t r = 1; r < rep.ranks.size(); ++r) {
    if (remote(r).telemetry() != nullptr) {
      rep.ranks[r].spans = remote(r).telemetry()->spans();
    }
  }
}

namespace {

/// Span slots per thread lane in traced reps: enough to keep a whole
/// window's library spans, so self times cover every traced episode.
constexpr std::size_t kTraceRing = std::size_t{1} << 16;

obs::ObsOptions obs_options(bool traced) {
  obs::ObsOptions o;
  o.enabled = traced;
  o.ring_capacity = kTraceRing;
  return o;
}

}  // namespace

dsm::ShardedHomeOptions home_options(bool traced) {
  dsm::ShardedHomeOptions o;
  o.obs = obs_options(traced);
  // One data-plane lane per node: with three ranks and the reactor thread
  // a worker pool would take a workload past the 4-thread budget.
  o.dsd.conv_threads = 1;
  return o;
}

dsm::ShardedRemoteOptions remote_options(bool traced) {
  dsm::ShardedRemoteOptions o;
  o.obs = obs_options(traced);
  return o;
}

}  // namespace perfbench

// The benchmark's measurement harness: what one repetition ("rep") of a
// workload records, and the helpers every workload uses to record it.
//
// A rep builds a fresh cluster, warms it up, opens the timed window with an
// all-rank barrier, runs a fixed number of episodes per client, closes the
// window with a second all-rank barrier, joins, and verifies the master
// image against an offline reference.  Everything is measured from outside
// the library: steady_clock around the benchmark's own calls, plus counters
// the library already publishes (ShareStats, endpoint byte counts, obs
// histograms and spans), each read on the thread that owns it.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/endpoint.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace perfbench {

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace obs = hdsm::obs;

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() { return obs::ScopedTimer::now_ns(); }

/// Barrier index that opens and closes every timed window.
inline constexpr std::uint32_t kWindowBarrier = 0;

/// Decorates one remote shard session and counts the frames through it.
/// Bytes come from the wrapped endpoint's own counters.  Every call runs on
/// the remote's thread, and so does every read until that thread joined.
class CountingEndpoint final : public msg::Endpoint {
 public:
  explicit CountingEndpoint(msg::EndpointPtr inner)
      : inner_(std::move(inner)) {}

  void send(const msg::Message& m) override {
    inner_->send(m);
    ++frames_;
  }
  msg::Message recv() override {
    msg::Message m = inner_->recv();
    ++frames_;
    return m;
  }
  bool recv_for(msg::Message& out, std::chrono::milliseconds t) override {
    if (!inner_->recv_for(out, t)) return false;
    ++frames_;
    return true;
  }
  void close() override { inner_->close(); }
  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  std::uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }

  std::uint64_t frames() const noexcept { return frames_; }

 private:
  msg::EndpointPtr inner_;
  std::uint64_t frames_ = 0;
};

/// The counting endpoints of every remote, indexed [rank][shard].  Filled by
/// wrap_fn while the cluster is constructed.
struct Sessions {
  std::vector<std::vector<CountingEndpoint*>> by_rank;
  /// Link rate of the throttled remote→home direction; 0 = unthrottled.
  std::uint64_t link_bytes_per_s = 0;

  explicit Sessions(std::size_t remotes, std::uint64_t link_rate = 0)
      : by_rank(remotes + 1), link_bytes_per_s(link_rate) {}

  /// The WrapFn handed to ShardedCluster / ObjectCluster.
  dsm::ShardedCluster::WrapFn wrap_fn();
  void close(std::uint32_t rank);
};

/// One node's counters at one instant, read on the thread that owns them.
struct Tally {
  dsm::ShareStats stats;
  std::uint64_t frames = 0;      ///< remote session frames, both directions
  std::uint64_t bytes_sent = 0;  ///< remote → home frame bytes
  std::uint64_t bytes_received = 0;
  obs::MetricsSnapshot metrics;  ///< empty unless the rep is traced
};

Tally tally(dsm::ShardedHome& home);
Tally tally(dsm::ShardedRemote& remote, const Sessions& sessions);

/// Timestamps (steady-clock ns) of one episode.  Lock workloads:
/// lock() call, lock() return, unlock() call, unlock() return.  Barrier
/// workloads: sweep start, sweep start, barrier() call, barrier() return.
struct EpisodeTimes {
  std::uint64_t start = 0;
  std::uint64_t acquired = 0;
  std::uint64_t releasing = 0;
  std::uint64_t end = 0;
};

/// What one rank's thread recorded in one rep.  Rank 0 is the master.
struct RankLog {
  std::vector<EpisodeTimes> episodes;  ///< timed window only
  std::uint64_t planned = 0;  ///< episodes this rank set out to run
  std::uint64_t done = 0;     ///< episodes it completed (warm-up included)
  Tally open, close;          ///< counters at window open / close
  std::string error;          ///< what escaped the rank's thread, if any
  std::uint64_t engage_episodes = 0;  ///< warm-up episodes until the codec
                                      ///  engaged (field_slowlink only)
  obs::RecorderSnapshot spans;  ///< the node's obs spans (traced reps)
};

/// Everything one rep measured.
struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  Clock::duration window{};
  std::uint64_t window_open_ns = 0;   ///< master's view, steady-clock ns
  std::uint64_t window_close_ns = 0;
  std::vector<RankLog> ranks;  ///< [rank]
  bool lock_sync = true;       ///< episodes are lock/unlock (else barrier)
  std::uint64_t link_bytes_per_s = 0;
  std::string verify_error;  ///< empty = the image matched the reference

  std::uint64_t window_episodes() const {
    std::uint64_t n = 0;
    for (const RankLog& r : ranks) n += r.episodes.size();
    return n;
  }
};

/// CPU placement.  A workload runs at most four busy threads: the master,
/// up to two remotes, and the home's reactor io thread.  Each gets its own
/// CPU (slot 0 = master, r = remote r, kIoSlot = io thread), so a rep never
/// depends on where the scheduler happened to put its threads.  The io
/// thread starts inside the cluster constructor and inherits the calling
/// thread's CPU, so a rep pins itself to kIoSlot while it constructs the
/// cluster and to slot 0 after.  With fewer than four usable CPUs nothing
/// is pinned.
inline constexpr std::uint32_t kIoSlot = 3;
void pin_thread(std::uint32_t slot);

/// Set the calling thread's timer slack to its minimum.  The throttled link
/// models each frame's serialization time with a sleep; the default 50 µs
/// slack would add to every frame and make the modelled link slower and
/// noisier than its rate.
void tighten_timers();

/// Run `body`; an exception is caught on this thread and recorded in `log`.
template <typename Body>
void guarded(RankLog& log, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    log.error = e.what();
  } catch (...) {
    log.error = "unknown exception";
  }
}

/// One timed lock episode: lock → write → unlock, timestamped.
template <typename Lock, typename Write, typename Unlock>
void lock_episode(RankLog& log, Lock&& lock, Write&& write, Unlock&& unlock) {
  EpisodeTimes t;
  t.start = now_ns();
  lock();
  t.acquired = now_ns();
  write();
  t.releasing = now_ns();
  unlock();
  t.end = now_ns();
  log.episodes.push_back(t);
  ++log.done;
}

/// One timed barrier episode: compute → barrier, timestamped.
template <typename Compute, typename Barrier>
void barrier_episode(RankLog& log, Compute&& compute, Barrier&& barrier) {
  EpisodeTimes t;
  t.start = now_ns();
  t.acquired = t.start;
  compute();
  t.releasing = now_ns();
  barrier();
  t.end = now_ns();
  log.episodes.push_back(t);
  ++log.done;
}

/// The master's half of a rep: warm-up, open the window (ends setup_s),
/// run `timed` episodes, close the window, wait for every remote to join.
/// `setup_start` is when the rep began constructing its cluster.
void master_rank(dsm::ShardedHome& home, RepResult& rep,
                 Clock::time_point setup_start, std::uint64_t timed,
                 const std::function<void()>& warm_up,
                 const std::function<void(std::uint64_t)>& episode);

/// A remote's half of a rep.  On an exception the remote's sessions are
/// closed so the home detaches it and the other ranks finish the rep.
void remote_rank(dsm::ShardedRemote& remote, RepResult& rep,
                 Sessions& sessions, std::uint64_t timed,
                 const std::function<void()>& warm_up,
                 const std::function<void(std::uint64_t)>& episode);

/// Snapshot every node's obs spans after the run (traced reps only).
void collect_spans(RepResult& rep, dsm::ShardedHome& home,
                   const std::function<dsm::ShardedRemote&(std::uint32_t)>&
                       remote);

/// Home and remote options for a rep: library defaults, one shard, one
/// data-plane lane (conv_threads = 1), obs on when traced.  Cluster
/// constructors copy the home's data-plane options to every remote.
dsm::ShardedHomeOptions home_options(bool traced);
dsm::ShardedRemoteOptions remote_options(bool traced);

/// One workload: inputs generated from the seed at construction, then any
/// number of reps, each on a fresh cluster.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual RepResult run_rep(bool traced) = 0;
};

/// Construct a workload by name (lock_small, sor_barrier, kv_zipf,
/// field_slowlink); null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench

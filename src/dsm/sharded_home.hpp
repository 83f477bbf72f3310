// The home directory (docs/PROTOCOL.md): the paper's home node (§3.1, §4)
// as one sans-I/O `CoherenceCore` behind one state mutex.  The home is the
// handler of its own `msg::Reactor` (docs/TRANSPORT.md): the reactor's one
// io thread runs every callback inline, each callback steps the core under
// the state lock, and every resulting action — sends included — executes
// under that same lock.  One directory serves every lock, barrier and
// pending-update set, so every coherence frame carries aux == 0.  The type
// keeps its historical name; docs/SHARDING.md records why the multi-shard
// directory was retired.
//
// The shell runs only the protocol.  The data plane is one GlobalSpace
// image and one SyncEngine, which is the core's codec and alone finds the
// master's writes and arms write tracking; every engine call (the core's
// pack/apply and the master's collect) holds the state lock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsm/coherence_core.hpp"
#include "dsm/global_space.hpp"
#include "dsm/replication.hpp"
#include "dsm/stats.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/trace.hpp"
#include "msg/endpoint.hpp"
#include "msg/reactor.hpp"

namespace hdsm::dsm {

struct ShardedHomeOptions {
  std::uint32_t num_locks = 16;
  std::uint32_t num_barriers = 16;
  SyncOptions dsd;
  /// Optional protocol trace sink (null = no tracing); not owned.
  TraceLog* trace = nullptr;
  /// Telemetry (docs/OBSERVABILITY.md).
  obs::ObsOptions obs;
  /// Primary/standby replication link (docs/REPLICATION.md); not owned.
  /// When set, every event the core applies is appended to the standby's
  /// log — synchronously, before the event's sends externalize — and a
  /// Deposed append fences this home (outgoing sends are suppressed).
  /// Null keeps the unreplicated path byte-identical.
  ReplicationSender* replication = nullptr;
};

class ShardedHome : private msg::ReactorHandler {
 public:
  static constexpr std::uint32_t kMasterRank = CoherenceCore::kMasterRank;

  ShardedHome(tags::TypePtr gthv, const plat::PlatformDesc& platform,
              ShardedHomeOptions opts = {});
  ~ShardedHome() override;

  ShardedHome(const ShardedHome&) = delete;
  ShardedHome& operator=(const ShardedHome&) = delete;

  /// Attach remote `rank` over an in-process channel and return the
  /// remote's end.  The rank's pending set starts as the full image.
  msg::EndpointPtr attach(std::uint32_t rank);

  /// Attach `rank`'s session over an external endpoint.
  void attach_endpoint(std::uint32_t rank, msg::EndpointPtr ep);

  /// Failover re-attach (docs/REPLICATION.md): install a new transport for
  /// a rank whose peer state is still active — a promoted standby replayed
  /// the rank mid-session and never observed its transport die, so no
  /// PeerAttached event fires (detaching first would reclaim its locks and
  /// open recovery races that lose updates).  Falls back to the normal
  /// attach_endpoint when the rank is not active here.
  void resume_endpoint(std::uint32_t rank, msg::EndpointPtr ep);

  // -- Standby-side replication service (docs/REPLICATION.md) --

  /// Session rank reserved for the primary→standby replication link (never
  /// a valid remote rank; its close is a no-op detach).
  static constexpr std::uint32_t kReplSessionRank = 0xffffffffu;

  /// Install the replication link as a session: ReplAppend frames arrive
  /// through it, replay through the core, and are acked back.  The
  /// standby stays passive (start() not called) until promote().
  void attach_replication(msg::EndpointPtr ep);

  /// Promote this standby to primary: fence every older-epoch primary
  /// (appends from epochs below `fence_epoch` are rejected), reset the dead
  /// primary's master state in the core, and start serving.  After
  /// this, remotes re-attach via resume_endpoint and their retransmitted
  /// in-flight requests are answered from the replicated reply caches.
  void promote(std::uint32_t fence_epoch);

  /// True once a Deposed append fenced this home (split-brain safety: all
  /// outgoing sends are suppressed).
  bool fenced() const noexcept { return fenced_.load(); }
  /// Fence this home by hand: every send from now on is dropped.  This is
  /// the first step of modelling a primary crash — a dead coordinator's
  /// replies must not escape, and its teardown must not externalize
  /// anything the standby did not log.
  void fence() noexcept { fenced_.store(true); }
  /// Highest log index replayed by this standby.
  std::uint32_t replicated_log_index() const noexcept {
    return repl_last_index_.load();
  }

  void start();
  void stop();

  // -- Master-thread synchronization API (the rank-0 side of MTh_*) --
  void lock(std::uint32_t index);
  void unlock(std::uint32_t index);
  void barrier(std::uint32_t index);
  void wait_all_joined();

  GlobalSpace& space() noexcept { return space_; }
  const GlobalSpace& space() const noexcept { return space_; }
  std::uint32_t num_locks() const noexcept { return opts_.num_locks; }

  /// The data plane's Eq.-1 buckets and the core's protocol counters.
  ShareStats stats() const;

  obs::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  /// Transport counters.
  msg::ReactorStats transport_stats() const { return reactor_->stats(); }
  /// Cluster view: the home's rank-0 row (telemetry plus stats()) and the
  /// remote snapshots the core collected from MetricsPull scrapes.
  obs::ClusterTelemetry cluster_telemetry() const;

  std::vector<std::uint32_t> active_ranks() const;
  bool quiesced() const;
  /// Open reset-recovery windows for `rank` (see
  /// CoherenceCore::recovery_entries) — bounded by the number of
  /// mutexes whose last grant went to `rank`; exposed for the stress tests.
  std::size_t recovery_entries(std::uint32_t rank) const;
  void set_barrier_count(std::uint32_t index, std::uint32_t count);
  void bind_lock(std::uint32_t index, const std::string& field);

 private:
  /// One remote's (or the replication link's) connection to the home.
  /// Every attach installs a new incarnation: `gen` bumps and the
  /// transport joins the reactor as peer (gen << 32) | rank, so a send or
  /// closed event aimed at an older incarnation never touches the new one.
  struct Session {
    std::uint32_t gen = 0;
    /// Highest generation whose closed event has been delivered.
    std::uint32_t closed_gen = 0;
  };

  // -- msg::ReactorHandler: called on the io thread, which takes the state
  //    lock for each callback. --
  void on_message(msg::PeerId peer, msg::Message&& m) override;
  void on_peer_closed(msg::PeerId peer) override;

  /// Retire `rank`'s live incarnation (close it and wait, releasing the
  /// state lock, until its closed event was delivered), then make `ep` the
  /// rank's new incarnation.  Call with the state lock held and the caller
  /// off the io thread.
  void install_session(std::unique_lock<std::mutex>& lock, std::uint32_t rank,
                       msg::EndpointPtr ep);

  /// Step the core with `e` (replicating it when a standby is attached)
  /// and execute the resulting actions via drain().  Call with the state
  /// lock held, like every private member below.
  void process_event(CoherenceEvent e);
  /// Execute `actions` in list order under the held state lock.  Sends are
  /// asynchronous (queued on the reactor); a dead transport arrives later
  /// as on_peer_closed.
  void drain(std::vector<CoherenceAction> actions);
  /// Wait on the core's condition variable until `done()` holds; throws
  /// when stop() ends the wait first.
  template <typename Pred>
  void wait_master(std::unique_lock<std::mutex>& lock, const char* what,
                   std::uint32_t index, Pred done);

  /// Append one event to the replication log (docs/REPLICATION.md): called
  /// under the state lock right after the core stepped it, so the record is
  /// durable at the standby before any of the event's sends are queued.
  /// Master events additionally pack their runs' image bytes into the
  /// record.
  void replicate(const CoherenceEvent& e);
  /// Standby side: dedup by log index, replay, ack (reject with the fence
  /// epoch once promoted).
  void handle_repl_append(msg::Message m);
  /// Rebuild the record's runs (see LogRecord) and step the event.
  void replay_record(LogRecord r);

  ShardedHomeOptions opts_;
  GlobalSpace space_;
  /// The home's one set of counters: the engine's Eq.-1 buckets and the
  /// core's protocol counters.  Every writer holds mutex_.
  ShareStats stats_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  /// The data plane, and the core's codec.
  SyncEngine engine_;

  /// The state lock, the home's only lock: guards core_, engine_, stats_,
  /// sessions_ and the waits on cv_ (the master's and retiring attaches').
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  CoherenceCore core_;
  std::map<std::uint32_t, Session> sessions_;  ///< by rank

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // -- Replication state (docs/REPLICATION.md) --
  /// Highest log index replayed (standby side; one link, so one counter).
  std::atomic<std::uint32_t> repl_last_index_{0};
  /// Appends carrying an epoch below this are rejected (set by promote()).
  std::atomic<std::uint32_t> repl_fence_epoch_{0};
  /// Set when an append came back Deposed: suppress every outgoing send.
  std::atomic<bool> fenced_{false};

  /// Declared last: its io thread calls back into the state above, and
  /// stop() must stop it before anything else unwinds.
  std::unique_ptr<msg::Reactor> reactor_;
};

}  // namespace hdsm::dsm

// The sharded home directory (docs/SHARDING.md): the home node's coherence
// duties partitioned across N independent shards, each a full sans-I/O
// `CoherenceCore` behind its own state mutex, served by the shared
// transport shell (`SessionShell`, docs/TRANSPORT.md — an epoll reactor
// whose one io thread runs every shard's handlers inline, so event
// delivery is serialized per shard and across shards).  A region (mutex
// index i + barrier index i) is owned by exactly one shard at a time; the
// authoritative region→shard map is a `ShardMap` whose epoch
// travels in every frame header, so remotes revalidate lazily — a request
// routed by a stale map is bounced with `WrongShard` (carrying the fresh
// map) instead of executing at the wrong shard.
//
// The data plane stays whole: one GlobalSpace image and one SyncEngine,
// shared by every shard through a mutex-wrapped codec.  Pending update
// sets, however, live in the core that applied the diffs — so a grant or
// barrier release from shard S ships S's pending bytes and flags every
// *other* shard holding pending for that rank in the reply's `aux` bitmask;
// the remote drains those shards with `PendingPull` before its acquire
// completes.  With num_shards == 1 (the default) this *is* the paper's home
// node (§3.1, §4): the mask is always 0, nothing is ever redirected or
// pulled, and every frame carries aux == 0 and map_epoch == 1.
//
// Regions migrate online between shards (migrate_region): the source shard
// exports the region's coherence state + in-flight reply cache under its
// state lock, the map epoch bumps, and the destination imports — requests
// landing in the handoff window bounce and are re-issued at the new owner,
// which answers redirected re-issues from the migrated reply cache so no
// grant or ack is ever lost.  `sched::plan_shard_moves` turns per-shard
// busy telemetry into migration decisions for this API.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "dsm/coherence_core.hpp"
#include "dsm/global_space.hpp"
#include "dsm/replication.hpp"
#include "dsm/session_shell.hpp"
#include "dsm/shard_map.hpp"
#include "dsm/stats.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/trace.hpp"
#include "msg/endpoint.hpp"

namespace hdsm::dsm {

struct ShardedHomeOptions {
  std::uint32_t num_locks = 16;
  std::uint32_t num_barriers = 16;
  /// Home shards (1..ShardMap::kMaxShards).  1 = a single directory shard:
  /// the paper's home node, with no masks, redirects, or pulls.
  std::uint32_t num_shards = 1;
  SyncOptions dsd;
  /// Optional per-shard protocol trace sinks: entry s traces shard s (a
  /// shorter vector, or a null entry, disables tracing for that shard).
  /// Keep the logs separate — each shard's log validates on its own, with
  /// migrations closing episodes via RegionExported and the importer
  /// re-opening them synthetically.
  std::vector<TraceLog*> shard_traces;
  /// Telemetry (docs/OBSERVABILITY.md); the scrape anchor is shard 0.
  obs::ObsOptions obs;
  /// Primary/standby replication client (docs/REPLICATION.md); not owned.
  /// When set, every event each shard applies is appended to the standby's
  /// log — synchronously, before the event's sends externalize — and a
  /// Deposed append fences this home (outgoing sends are suppressed).
  /// Null keeps the unreplicated path byte-identical.
  ReplicationClient* replication = nullptr;

  // -- Object-granularity sharing mode (hdsm::obj, docs/OBJECTS.md) --

  /// When set, the master's unlock/barrier episodes collect their update
  /// runs from this source instead of diffing the tracked region: unlock
  /// passes the released region, barrier passes kAllRegions.  Page-twin
  /// tracking is never armed (no mprotect, no SIGSEGV, no page diffing) and
  /// every shard core runs with scoped_pending so pending sets migrate with
  /// their regions.  Null = the page-mode path, byte-identical to before.
  std::function<ObjectRuns(std::uint32_t region)> run_source;
  /// Object mode only: maps an index-table row to the region whose mutex
  /// guards it (kAllRegions = unguarded).  Used to scope each shard's
  /// initial full-image seed to the rows its regions guard — under strict
  /// entry consistency a row's pending must only ever live at the shard
  /// owning its guarding region.  Unguarded rows seed at shard 0.
  std::function<std::uint32_t(std::uint32_t row)> row_region;
  /// Opt a *page-mode* home into the scoped-pending regime (requires
  /// row_region and locks bound to every guarded row, like object mode
  /// does implicitly).  Under scoping, every master-image access for a
  /// region serializes through its DSM lock or its owning shard — the
  /// only data-race-free configuration when concurrent ranks write
  /// overlapping rows (e.g. the Zipfian KV workload, docs/OBJECTS.md).
  /// Ignored when run_source is set (object mode is always scoped).
  bool scoped_pending = false;
};

class ShardedHome {
 public:
  static constexpr std::uint32_t kMasterRank = CoherenceCore::kMasterRank;
  /// Ranks >= this share one conservative all-shards pending mask instead
  /// of a tracked per-rank bitmask.
  static constexpr std::uint32_t kMaxTrackedRanks = 64;

  ShardedHome(tags::TypePtr gthv, const plat::PlatformDesc& platform,
              ShardedHomeOptions opts = {});
  ~ShardedHome();

  ShardedHome(const ShardedHome&) = delete;
  ShardedHome& operator=(const ShardedHome&) = delete;

  /// Attach remote `rank` over in-process channels: one endpoint per
  /// shard, element s connected to shard s.  Shard 0 seeds the rank's
  /// full-image pending set; the others start empty (the image is shared,
  /// so one full-image grant suffices).
  std::vector<msg::EndpointPtr> attach(std::uint32_t rank);

  /// Attach `rank`'s session to shard `shard` over an external endpoint.
  void attach_endpoint(std::uint32_t rank, std::uint32_t shard,
                       msg::EndpointPtr ep);

  /// Failover re-attach (docs/REPLICATION.md): install a new transport for
  /// a rank whose peer state is still active — a promoted standby replayed
  /// the rank mid-session and never observed its transport die, so no
  /// PeerAttached event fires (detaching first would reclaim its locks and
  /// open recovery races that lose updates).  Falls back to the normal
  /// attach_endpoint when the rank is not active here.
  void resume_endpoint(std::uint32_t rank, std::uint32_t shard,
                       msg::EndpointPtr ep);

  // -- Standby-side replication service (docs/REPLICATION.md) --

  /// Session rank reserved for the primary→standby replication link (never
  /// a valid remote rank; its close is a no-op detach).
  static constexpr std::uint32_t kReplSessionRank = 0xffffffffu;

  /// Install the replication link into the shell: ReplAppend frames arrive
  /// through it, replay through the shard cores, and are acked back.  The
  /// standby stays passive (start() not called) until promote().
  void attach_replication(msg::EndpointPtr ep);

  /// Promote this standby to primary: fence every older-epoch primary
  /// (appends from epochs below `fence_epoch` are rejected), reset the dead
  /// primary's master state in every shard core, and start serving.  After
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

  // -- Master-thread synchronization API (the rank-0 side of MTh_*).  The
  //    waits poll across migrations: each iteration re-routes to the
  //    region's current owner shard. --
  void lock(std::uint32_t index);
  void unlock(std::uint32_t index);
  void barrier(std::uint32_t index);
  void wait_all_joined();

  GlobalSpace& space() noexcept { return space_; }
  const GlobalSpace& space() const noexcept { return space_; }
  std::uint32_t num_locks() const noexcept { return opts_.num_locks; }
  std::uint32_t num_shards() const noexcept { return opts_.num_shards; }

  /// Aggregate stats: the shared data plane's Eq.-1 buckets plus every
  /// shard's protocol counters.
  ShareStats stats() const;
  /// One shard's protocol counters (its data-plane buckets are zero — the
  /// engine accounts those once, in the shared stats).
  ShareStats shard_stats(std::uint32_t shard) const;
  /// Wall nanoseconds shard `shard` spent inside the shared data plane
  /// (pack/apply under the engine mutex) — the per-shard busy signal
  /// `sched::plan_shard_moves` balances on.
  std::uint64_t shard_busy_ns(std::uint32_t shard) const;

  obs::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  /// Transport counters.
  msg::ReactorStats transport_stats() const { return shell_->reactor_stats(); }
  /// Cluster view: one rank-0 row folding every shard's counters plus the
  /// remote snapshots collected by shard 0 (the scrape anchor).
  obs::ClusterTelemetry cluster_telemetry() const;

  std::vector<std::uint32_t> active_ranks() const;
  bool quiesced() const;
  /// Open reset-recovery windows for `rank` summed over the shard cores
  /// (see CoherenceCore::recovery_entries) — bounded by the number of
  /// mutexes whose last grant went to `rank`; exposed for the stress tests.
  std::size_t recovery_entries(std::uint32_t rank) const;
  void set_barrier_count(std::uint32_t index, std::uint32_t count);
  void bind_lock(std::uint32_t index, const std::string& field);

  /// Snapshot of the authoritative region→shard map (epoch included).
  ShardMap shard_map() const;
  std::uint32_t shard_of(std::uint32_t region) const;

  /// Migrate ownership of `region` to `dst_shard` while the cluster runs:
  /// bounce window opens → source exports under its state lock → map epoch
  /// bumps → destination imports → window closes.  Returns the handoff
  /// pause (the window during which requests for this region bounce).
  /// No-op returning 0 when `dst_shard` already owns the region.
  std::chrono::nanoseconds migrate_region(std::uint32_t region,
                                          std::uint32_t dst_shard);

 private:
  /// The shared data plane behind a mutex: every shard's core packs and
  /// applies through the one SyncEngine, serialized by `engine_mutex`.
  /// Each shard owns one instance so the wall time it spends in the data
  /// plane (its busy signal for rebalancing) is attributed per shard.
  struct LockingCodec final : UpdateCodec {
    LockingCodec(SyncEngine& e, std::mutex& m,
                 std::atomic<std::uint64_t>& busy)
        : engine(e), engine_mutex(m), busy_ns(busy) {}
    std::vector<std::byte> pack(
        const std::vector<idx::UpdateRun>& runs) override;
    std::vector<idx::UpdateRun> apply(
        const std::vector<std::byte>& payload,
        const msg::PlatformSummary& sender) override;
    SyncEngine& engine;
    std::mutex& engine_mutex;
    std::atomic<std::uint64_t>& busy_ns;
  };

  struct Shard {
    Shard(std::uint32_t index, ShardedHome& owner);

    const std::uint32_t index;
    ShareStats stats;  ///< protocol counters only (see shard_stats())
    std::atomic<std::uint64_t> busy_ns{0};
    LockingCodec codec;
    CoherenceCore core;
    TraceLog* trace = nullptr;
    mutable std::mutex mutex;
    std::condition_variable cv;
    /// Ranks that ever attached a session to this shard (transport state
    /// itself lives in the SessionShell, keyed by (shard, rank)).
    std::set<std::uint32_t> ranks;
  };

  /// Step `sh.core` with `e` (replicating it first when a standby is
  /// attached) and execute the resulting actions via drain().
  void process_event(Shard& sh, std::unique_lock<std::mutex>& lock,
                     CoherenceEvent e);
  /// Execute `actions`: Trace/WakeMaster/Detach under the held shard lock,
  /// then — after refreshing this shard's pending-flag bits and stamping
  /// map_epoch/aux on every outgoing frame — Sends outside it.  Returns with
  /// the lock re-held.
  void drain(Shard& sh, std::unique_lock<std::mutex>& lock,
             std::vector<CoherenceAction> actions);

  /// True when `shard` owns `region` and no migration handoff is open for
  /// it.  Call with the shard's state lock held (takes map_mutex_ inside;
  /// lock order is always shard mutex → map mutex).
  bool owns(std::uint32_t shard, std::uint32_t region) const;
  std::uint32_t owner_of(std::uint32_t region) const;
  /// Bounce a request routed by a stale map: shell-level WrongShard reply
  /// carrying the authoritative map (never touches any core).  Call with
  /// the shard lock held; it is released for the send and stays released.
  void bounce(Shard& sh, std::unique_lock<std::mutex>& lock,
              std::uint32_t rank, const msg::Message& m);

  /// Append one event to the replication log (docs/REPLICATION.md): called
  /// under the shard lock right after the core stepped it, so the record is
  /// durable at the standby before any of the event's sends flush.  Master
  /// events additionally pack their runs' image bytes into the record.
  void replicate(Shard& sh, const CoherenceEvent& e);
  /// Ship a non-event record (config transition / bounce horizon).
  void replicate_record(const LogRecord& r);
  void dispatch_append(const LogRecord& r);
  /// Standby side: dedup by log index, replay, ack (reject with the fence
  /// epoch once promoted).
  void handle_repl_append(msg::Message m);
  void replay_record(const LogRecord& r);

  /// The full-image pending runs shard `shard` seeds a fresh rank with.
  /// Page mode: shard 0 seeds everything, the rest seed empty.  Object mode
  /// (row_region set): each shard seeds exactly the rows guarded by the
  /// regions it currently owns — under strict entry consistency a row's
  /// pending may only live at its guarding region's owner.  Takes
  /// map_mutex_ inside; call with at most the shard's own mutex held.
  std::vector<idx::UpdateRun> initial_seed(std::uint32_t shard) const;

  /// Recompute this shard's bit in every session rank's pending mask.
  /// Call under the shard lock after a batch of state transitions.
  void refresh_flags(Shard& sh);
  /// The pending-shards bitmask shipped in grant/release aux fields.
  /// Always 0 with one shard (single-home parity).
  std::uint32_t mask_for(std::uint32_t rank) const;
  /// True when this home runs the scoped-pending regime — object mode, or
  /// a page-mode home that opted in via ShardedHomeOptions::scoped_pending.
  /// Mirrors the shard cores' CoherenceConfig::scoped_pending.
  bool scoped() const {
    return opts_.run_source != nullptr ||
           (opts_.scoped_pending && opts_.row_region != nullptr);
  }

  ShardedHomeOptions opts_;
  GlobalSpace space_;
  /// Data-plane stats (Eq.-1 buckets), owned by the shared engine.
  ShareStats data_stats_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  mutable std::mutex engine_mutex_;
  SyncEngine engine_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Region→shard map + migration handoff windows.  Nested inside any one
  /// shard mutex; never the reverse, and never two shard mutexes at once.
  mutable std::mutex map_mutex_;
  ShardMap map_;
  std::set<std::uint32_t> importing_;  ///< regions mid-handoff (bounce)
  std::condition_variable importing_cv_;
  /// Mirror of map_.epoch() readable without map_mutex_ (frame stamping).
  std::atomic<std::uint32_t> epoch_mirror_{1};
  /// Bit s set ⇔ shard s holds pending updates for the rank.
  std::array<std::atomic<std::uint32_t>, kMaxTrackedRanks> pending_flags_{};

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // -- Replication state (docs/REPLICATION.md) --
  /// Highest log index replayed (standby side; one link, so one counter).
  std::atomic<std::uint32_t> repl_last_index_{0};
  /// Appends carrying an epoch below this are rejected (set by promote()).
  std::atomic<std::uint32_t> repl_fence_epoch_{0};
  /// Set when an append came back Deposed: suppress every outgoing send.
  std::atomic<bool> fenced_{false};

  /// Declared last: its threads call back into the shards above, and
  /// stop() must quiesce it before anything else unwinds.
  std::unique_ptr<SessionShell> shell_;
};

}  // namespace hdsm::dsm

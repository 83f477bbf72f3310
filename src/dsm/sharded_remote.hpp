// The remote-thread side of the sharded home directory
// (docs/SHARDING.md): one retry-driven session per home shard, a cached
// region→shard map for routing, and the two client halves of the sharding
// protocol —
//
//   * **Lazy map revalidation.**  Requests carry the cached map's epoch;
//     a request that lands at a shard which no longer owns the region is
//     bounced with WrongShard + the authoritative map.  The remote
//     installs the newer map and re-issues at the new owner with `aux` =
//     the first bounced attempt's seq, so the owner can answer from the
//     reply cache that migrated with the region (no grant or ack is lost,
//     and none is executed twice).
//
//   * **Cross-shard pending drains.**  A LockGrant / BarrierRelease ships
//     only the granting shard's pending bytes; its `aux` bitmask names
//     the other shards still holding pending updates for this rank.  The
//     remote drains each with PendingPull before the acquire returns —
//     release consistency holds cluster-wide, not just per shard.
//
// With one shard (the default) this is the plain remote thread of the
// paper: no masks (always 0), no redirects, one session.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsm/global_space.hpp"
#include "dsm/retry_core.hpp"
#include "dsm/shard_map.hpp"
#include "dsm/stats.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/trace.hpp"
#include "msg/endpoint.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::dsm {

/// Thrown by a remote's synchronization calls when the home node stopped
/// answering: every retry timed out (and every permitted reconnect failed).
/// The remote has already detached itself — tracking is stopped and the
/// endpoints closed — so the application thread can terminate cleanly.
/// Derives from msg::ChannelClosed: to the application this *is* a dead
/// channel, just diagnosed at the protocol layer instead of the transport.
class HomeUnreachable : public msg::ChannelClosed {
 public:
  explicit HomeUnreachable(const std::string& what)
      : msg::ChannelClosed(what) {}
};

struct ShardedRemoteOptions {
  SyncOptions dsd;
  RetryPolicy retry;
  /// Optional reliability trace sink; not owned.  Keep it separate from
  /// the home shards' logs.
  TraceLog* trace = nullptr;
  /// Re-dial hook per shard session (null = a dead session is fatal after
  /// the retry budget).
  std::function<msg::EndpointPtr(std::uint32_t shard)> reconnect;
  std::uint32_t max_reconnects = 3;  ///< reconnect budget per session
  obs::ObsOptions obs;

  /// Object-granularity sharing mode (hdsm::obj, docs/OBJECTS.md): when
  /// set, unlock/barrier/join collect their update runs from this source
  /// instead of diffing the page-twin machinery — unlock passes the
  /// released region, barrier and join pass kAllRegions — and write
  /// tracking is never armed (no mprotect, no faults, no page diffs).
  /// Null = the page-mode path, byte-identical to before.
  std::function<ObjectRuns(std::uint32_t region)> run_source;
};

class ShardedRemote {
 public:
  /// `endpoints[s]` must be connected to shard s of a ShardedHome that
  /// attached `rank` (the vector ShardedHome::attach returns).
  ShardedRemote(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                std::uint32_t rank, std::vector<msg::EndpointPtr> endpoints,
                ShardedRemoteOptions opts);
  ShardedRemote(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                std::uint32_t rank, std::vector<msg::EndpointPtr> endpoints,
                SyncOptions opts = {});
  ~ShardedRemote();

  ShardedRemote(const ShardedRemote&) = delete;
  ShardedRemote& operator=(const ShardedRemote&) = delete;

  // -- MTh_* API (paper §4) --
  void lock(std::uint32_t index);
  void unlock(std::uint32_t index);
  void barrier(std::uint32_t index);
  /// Ships final writes to shard 0, then detaches from every shard.
  void join();

  GlobalSpace& space() noexcept { return space_; }
  const ShareStats& stats() const noexcept { return stats_; }
  std::uint32_t rank() const noexcept { return rank_; }
  std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(sessions_.size());
  }
  bool joined() const noexcept { return joined_; }
  bool detached() const noexcept { return detached_; }

  /// This remote's cached region→shard map (updated on WrongShard).
  const ShardMap& shard_map() const noexcept { return map_; }

  obs::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  /// Scrape via shard 0, the directory's telemetry anchor.
  obs::ClusterTelemetry pull_cluster_metrics();

 private:
  struct Session {
    msg::EndpointPtr endpoint;
    RetryCore retry;
  };

  /// Bounded-hop routed request: route by the cached map, intercept
  /// WrongShard, install the fresher map, re-issue at the new owner.
  msg::Message routed_rpc(msg::Message req, msg::MsgType want);
  /// One request/reply exchange on shard `shard`: send, then wait,
  /// retransmitting and reconnecting as the session's RetryCore decides.
  /// When `allow_redirect`, a WrongShard echoing this request's seq is
  /// returned to the caller instead of raising ProtocolError.
  msg::Message rpc(std::uint32_t shard, msg::Message req, msg::MsgType want,
                   bool allow_redirect);
  /// Drain every shard flagged in `mask` (and any shard a PendingReply
  /// flags in turn) via PendingPull — part of the acquire.
  void drain_pending(std::uint32_t mask);
  /// One release episode's payload: page mode diffs the tracked region,
  /// object mode packs the run_source's dirty-object runs for `region`.
  std::vector<std::byte> collect_episode(std::uint32_t region);
  void send_hello(std::uint32_t shard, bool resume);
  bool try_reconnect(std::uint32_t shard);
  void detach_self();
  void trace(TraceEvent::Kind kind, std::uint32_t sync_id, std::uint64_t req);

  GlobalSpace space_;
  ShareStats stats_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  SyncEngine engine_;
  std::uint32_t rank_;
  /// One incarnation epoch for all sessions: to the home this is one
  /// logical rank, whichever shard a request reaches.
  std::uint32_t epoch_;
  ShardedRemoteOptions opts_;
  std::vector<Session> sessions_;
  ShardMap map_;
  /// One request sequence across every session: each shard sees a gapped
  /// but strictly increasing stream, and — crucial for redirect replay —
  /// the seqs a migrating region's reply cache is keyed by are totally
  /// ordered with the re-issued attempts' seqs (docs/SHARDING.md).
  std::uint32_t send_seq_ = 0;
  bool joined_ = false;
  bool detached_ = false;
};

}  // namespace hdsm::dsm

// The remote-thread side of the home directory: one retry-driven session
// to the home (docs/RELIABILITY.md), the paper's remote thread (§4).  The
// type keeps its historical name (docs/SHARDING.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsm/global_space.hpp"
#include "dsm/retry_core.hpp"
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
  RetryPolicy retry{};
  /// Optional reliability trace sink; not owned.  Keep it separate from
  /// the home's log.
  TraceLog* trace = nullptr;
  /// Re-dial hook (null = a dead session is fatal after the retry budget).
  std::function<msg::EndpointPtr()> reconnect{};
  std::uint32_t max_reconnects = 3;  ///< reconnect budget of the session
  obs::ObsOptions obs{};
};

class ShardedRemote {
 public:
  /// `endpoint` must be connected to a ShardedHome that attached `rank`
  /// (the endpoint ShardedHome::attach returns).  The constructor sends
  /// the session's Hello through the same reconnect path as every request:
  /// a dead endpoint is redialed, or the constructor throws
  /// HomeUnreachable.
  ShardedRemote(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                std::uint32_t rank, msg::EndpointPtr endpoint,
                ShardedRemoteOptions opts);
  ShardedRemote(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                std::uint32_t rank, msg::EndpointPtr endpoint,
                SyncOptions opts = {});
  ~ShardedRemote();

  ShardedRemote(const ShardedRemote&) = delete;
  ShardedRemote& operator=(const ShardedRemote&) = delete;

  // -- MTh_* API (paper §4) --
  void lock(std::uint32_t index);
  void unlock(std::uint32_t index);
  void barrier(std::uint32_t index);
  /// Ships final writes home, then detaches.
  void join();

  GlobalSpace& space() noexcept { return space_; }
  const ShareStats& stats() const noexcept { return stats_; }
  std::uint32_t rank() const noexcept { return rank_; }
  bool joined() const noexcept { return joined_; }
  bool detached() const noexcept { return detached_; }

  obs::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  /// Push this remote's snapshot home and return the cluster view.
  obs::ClusterTelemetry pull_cluster_metrics();

 private:
  /// One request/reply exchange: send, then wait, retransmitting and
  /// reconnecting as the RetryCore decides.
  msg::Message rpc(msg::Message req, msg::MsgType want);
  void send_hello(bool resume);
  /// Redial through the reconnect hook until a fresh transport takes a
  /// resume Hello; false when the reconnect budget is spent.
  bool try_reconnect();
  void detach_self();
  void trace(TraceEvent::Kind kind, std::uint32_t sync_id, std::uint64_t req);

  GlobalSpace space_;
  ShareStats stats_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  SyncEngine engine_;
  std::uint32_t rank_;
  /// Nonzero incarnation nonce carried by every Hello.
  std::uint32_t epoch_;
  ShardedRemoteOptions opts_;
  msg::EndpointPtr endpoint_;
  RetryCore retry_;
  /// Request sequence: strictly increasing across the session's life, so
  /// the home's dedup horizon survives reconnects.
  std::uint32_t send_seq_ = 0;
  bool joined_ = false;
  bool detached_ = false;
};

}  // namespace hdsm::dsm

// Simulated heterogeneous cluster, standing in for the paper's testbed
// (Sun Fire V440 + Pentium 4 over a LAN): a ShardedHome plus remote threads
// on their own virtual platforms, each connected to the home over an
// in-process channel.  The optional `wrap` hook interposes on each
// remote's channel before the remote sees it — the fault suites wrap the
// sessions in msg::FaultyEndpoint to drop, duplicate, and reset frames.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"

namespace hdsm::dsm {

class ShardedCluster {
 public:
  /// Interposer for a remote's session: receives the endpoint connected to
  /// `rank` and returns the endpoint the remote will actually use.  `shard`
  /// is always 0; the parameter stays for existing interposers.
  using WrapFn = std::function<msg::EndpointPtr(
      std::uint32_t rank, std::uint32_t shard, msg::EndpointPtr ep)>;

  /// Remote ranks are 1..remote_platforms.size(), in order.
  ShardedCluster(tags::TypePtr gthv, const plat::PlatformDesc& home_platform,
                 const std::vector<const plat::PlatformDesc*>& remote_platforms,
                 ShardedHomeOptions opts = {}, WrapFn wrap = nullptr,
                 ShardedRemoteOptions remote_opts = {});

  ShardedHome& home() noexcept { return *home_; }
  ShardedRemote& remote(std::uint32_t rank) { return *remotes_.at(rank - 1); }
  std::size_t remote_count() const noexcept { return remotes_.size(); }

  /// Start the home, run `remote_fn(remote)` on one thread per remote and
  /// `master_fn(home)` on the calling thread, then join everything.
  /// `master_fn` should end with wait_all_joined(); `remote_fn` with
  /// join().  An exception on any thread is rethrown here after the join,
  /// naming its rank (see run_ranks).
  void run(const std::function<void(ShardedHome&)>& master_fn,
           const std::function<void(ShardedRemote&)>& remote_fn);

  /// Sum of every node's Eq.-1 stats.
  ShareStats total_stats() const;

  /// Cluster-wide telemetry: scrape every live remote, then the home's
  /// merged view (see ShardedHome::cluster_telemetry).
  obs::ClusterTelemetry telemetry();

 private:
  std::unique_ptr<ShardedHome> home_;
  std::vector<std::unique_ptr<ShardedRemote>> remotes_;
};

}  // namespace hdsm::dsm

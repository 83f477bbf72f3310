// Simulated heterogeneous cluster assembly.
//
// A Cluster stands in for the paper's testbed (Sun Fire V440 + Pentium 4
// over a LAN): the home node and each remote thread live on their own
// virtual platform, connected by in-process channels.  run() drives the
// paper's execution shape — a master thread at the home node plus migrated
// remote threads computing concurrently.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsm/home.hpp"
#include "dsm/remote.hpp"

namespace hdsm::dsm {

class Cluster {
 public:
  /// Remote ranks are 1..remote_platforms.size(), in order.
  Cluster(tags::TypePtr gthv, const plat::PlatformDesc& home_platform,
          const std::vector<const plat::PlatformDesc*>& remote_platforms,
          HomeOptions opts = {});

  HomeNode& home() noexcept { return *home_; }
  RemoteThread& remote(std::uint32_t rank) { return *remotes_.at(rank - 1); }
  std::size_t remote_count() const noexcept { return remotes_.size(); }

  /// Start the home node, run `remote_fn(remote)` on one thread per remote
  /// and `master_fn(home)` on the calling thread, then join everything.
  /// `master_fn` should end with wait_all_joined(); `remote_fn` with
  /// join().  An exception on any thread is rethrown here after the join,
  /// naming its rank (see run_ranks).
  void run(const std::function<void(HomeNode&)>& master_fn,
           const std::function<void(RemoteThread&)>& remote_fn);

  /// Sum of all nodes' Eq.-1 stats — the total data-sharing penalty
  /// C_share for the pair/group, as plotted in Figures 6-11.
  ShareStats total_stats() const;
  ShareStats home_stats() const { return home_->stats(); }
  ShareStats remote_stats(std::uint32_t rank) const {
    return remotes_.at(rank - 1)->stats();
  }

  /// Cluster-wide telemetry: scrape every live (attached, not detached)
  /// remote via MetricsPull, then return the home's aggregated view — one
  /// merged MetricsSnapshot plus the per-rank breakdown.  Call between
  /// episodes or after run(); scraping drives each remote's RPC path, so
  /// it must not race that remote's own synchronization calls.
  obs::ClusterTelemetry telemetry();

 private:
  std::unique_ptr<HomeNode> home_;
  std::vector<std::unique_ptr<RemoteThread>> remotes_;
};

}  // namespace hdsm::dsm

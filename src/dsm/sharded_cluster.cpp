#include "dsm/sharded_cluster.hpp"

#include <utility>

#include "dsm/run_ranks.hpp"

namespace hdsm::dsm {

ShardedCluster::ShardedCluster(
    tags::TypePtr gthv, const plat::PlatformDesc& home_platform,
    const std::vector<const plat::PlatformDesc*>& remote_platforms,
    ShardedHomeOptions opts, WrapFn wrap, ShardedRemoteOptions remote_opts) {
  home_ = std::make_unique<ShardedHome>(gthv, home_platform, opts);
  remote_opts.dsd = opts.dsd;
  if (remote_opts.obs.enabled == false) remote_opts.obs = opts.obs;
  for (std::size_t i = 0; i < remote_platforms.size(); ++i) {
    const std::uint32_t rank = static_cast<std::uint32_t>(i + 1);
    msg::EndpointPtr ep = home_->attach(rank);
    if (wrap) ep = wrap(rank, /*shard=*/0, std::move(ep));
    remotes_.push_back(std::make_unique<ShardedRemote>(
        gthv, *remote_platforms[i], rank, std::move(ep), remote_opts));
  }
}

void ShardedCluster::run(
    const std::function<void(ShardedHome&)>& master_fn,
    const std::function<void(ShardedRemote&)>& remote_fn) {
  home_->start();
  run_ranks(
      remotes_.size(), [&](std::size_t i) { remote_fn(*remotes_[i]); },
      [&] { master_fn(*home_); }, [&] { home_->stop(); });
}

obs::ClusterTelemetry ShardedCluster::telemetry() {
  for (auto& remote : remotes_) {
    if (remote->detached() || remote->joined()) continue;
    remote->pull_cluster_metrics();
  }
  return home_->cluster_telemetry();
}

ShareStats ShardedCluster::total_stats() const {
  ShareStats total = home_->stats();
  for (const auto& remote : remotes_) {
    total += remote->stats();
  }
  return total;
}

}  // namespace hdsm::dsm

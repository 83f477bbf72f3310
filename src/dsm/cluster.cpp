#include "dsm/cluster.hpp"

#include "dsm/run_ranks.hpp"

namespace hdsm::dsm {

Cluster::Cluster(tags::TypePtr gthv, const plat::PlatformDesc& home_platform,
                 const std::vector<const plat::PlatformDesc*>& remote_platforms,
                 HomeOptions opts) {
  home_ = std::make_unique<HomeNode>(gthv, home_platform, opts);
  // Remotes share the home's trace sink (TraceLog is internally mutexed;
  // probe/decision and reliability events are lifecycle-exempt in the
  // validator, so one combined log stays valid).
  RemoteOptions ropts;
  ropts.dsd = opts.dsd;
  ropts.trace = opts.trace;
  ropts.obs = opts.obs;
  for (std::size_t i = 0; i < remote_platforms.size(); ++i) {
    const std::uint32_t rank = static_cast<std::uint32_t>(i + 1);
    msg::EndpointPtr ep = home_->attach(rank);
    remotes_.push_back(std::make_unique<RemoteThread>(
        gthv, *remote_platforms[i], rank, std::move(ep), ropts));
  }
}

void Cluster::run(const std::function<void(HomeNode&)>& master_fn,
                  const std::function<void(RemoteThread&)>& remote_fn) {
  home_->start();
  run_ranks(
      remotes_.size(), [&](std::size_t i) { remote_fn(*remotes_[i]); },
      [&] { master_fn(*home_); }, [&] { home_->stop(); });
}

obs::ClusterTelemetry Cluster::telemetry() {
  for (auto& remote : remotes_) {
    if (remote->detached()) continue;
    // A joined remote's last pre-join pull is already aggregated; pulling
    // again would throw (the home dropped its peer state), so skip it.
    if (remote->joined()) continue;
    remote->pull_cluster_metrics();
  }
  return home_->cluster_telemetry();
}

ShareStats Cluster::total_stats() const {
  ShareStats total = home_->stats();
  for (const auto& remote : remotes_) {
    total += remote->stats();
  }
  return total;
}

}  // namespace hdsm::dsm

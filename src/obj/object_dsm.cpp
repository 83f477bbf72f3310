#include "obj/object_dsm.hpp"

#include <utility>

#include "dsm/run_ranks.hpp"

namespace hdsm::obj {

namespace {

// Bind every region's lock to that region's stripe fields so grants ship
// only the acquired region's guarded rows (bind_lock appends, dedup-checked
// — multi-class regions accumulate all their stripes on one lock).
void bind_regions(dsm::ShardedHome& home, const ObjectLayout& layout) {
  for (std::uint32_t r = 0; r < layout.num_regions(); ++r) {
    for (std::uint32_t c = 0; c < layout.num_classes(); ++c) {
      home.bind_lock(r, layout.field_name(c, r));
    }
  }
}

}  // namespace

ObjectHome::ObjectHome(ObjectLayoutPtr layout,
                       const plat::PlatformDesc& platform,
                       dsm::ShardedHomeOptions opts)
    : layout_(std::move(layout)) {
  opts.num_locks = layout_->num_regions();
  opts.num_barriers = layout_->num_regions();
  // Safe to capture `this` before objects_ exists: run_source only fires
  // inside unlock/barrier episodes, long after construction completes.
  opts.dsd.run_source = [this](std::uint32_t region) {
    return objects_->take_dirty(region);
  };
  home_ = std::make_unique<dsm::ShardedHome>(layout_->gthv(), platform,
                                             std::move(opts));
  objects_ = std::make_unique<ObjectSpace>(home_->space(), layout_);
  bind_regions(*home_, *layout_);
}

ObjectRemote::ObjectRemote(ObjectLayoutPtr layout,
                           const plat::PlatformDesc& platform,
                           std::uint32_t rank,
                           msg::EndpointPtr endpoint,
                           dsm::ShardedRemoteOptions opts)
    : layout_(std::move(layout)) {
  opts.dsd.run_source = [this](std::uint32_t region) {
    return objects_->take_dirty(region);
  };
  remote_ = std::make_unique<dsm::ShardedRemote>(
      layout_->gthv(), platform, rank, std::move(endpoint), std::move(opts));
  objects_ = std::make_unique<ObjectSpace>(remote_->space(), layout_);
}

ObjectCluster::ObjectCluster(
    ObjectLayoutPtr layout, const plat::PlatformDesc& home_platform,
    const std::vector<const plat::PlatformDesc*>& remote_platforms,
    dsm::ShardedHomeOptions opts, WrapFn wrap,
    dsm::ShardedRemoteOptions remote_opts)
    : layout_(std::move(layout)) {
  remote_opts.dsd = opts.dsd;
  if (!remote_opts.obs.enabled) remote_opts.obs = opts.obs;
  home_ = std::make_unique<ObjectHome>(layout_, home_platform, std::move(opts));
  for (std::size_t i = 0; i < remote_platforms.size(); ++i) {
    const std::uint32_t rank = static_cast<std::uint32_t>(i + 1);
    msg::EndpointPtr ep = home_->node().attach(rank);
    if (wrap) ep = wrap(rank, /*shard=*/0, std::move(ep));
    remotes_.push_back(std::make_unique<ObjectRemote>(
        layout_, *remote_platforms[i], rank, std::move(ep), remote_opts));
  }
}

void ObjectCluster::run(const std::function<void(ObjectHome&)>& master_fn,
                        const std::function<void(ObjectRemote&)>& remote_fn) {
  home_->node().start();
  dsm::run_ranks(
      remotes_.size(), [&](std::size_t i) { remote_fn(*remotes_[i]); },
      [&] { master_fn(*home_); }, [&] { home_->node().stop(); });
}

dsm::ShareStats ObjectCluster::total_stats() const {
  dsm::ShareStats total = home_->node().stats();
  for (const auto& remote : remotes_) {
    total += remote->node().stats();
  }
  return total;
}

}  // namespace hdsm::obj

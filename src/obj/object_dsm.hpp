// Object-granularity DSM nodes (docs/OBJECTS.md): thin shells pairing the
// coherence machinery with an ObjectSpace per node.
//
// Each node's ObjectSpace is wired in as its engine's run_source — release
// episodes ship exactly the dirty objects' element runs through the
// unchanged zero-copy pack_payload + plan-cache pipeline, and write
// tracking (mprotect twins, page diffing) is never armed.  Every coherence
// region's lock is bound to that region's stripe fields, so the grant path
// ships only the acquired region's guarded rows (strict entry
// consistency).  The control plane — retries, reconnects, thread
// migration, replication — is the ordinary ShardedHome/ShardedRemote
// protocol, completely unchanged.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "obj/object_space.hpp"

namespace hdsm::obj {

/// The home (master) node in object mode: a ShardedHome whose episodes
/// collect from the master's ObjectSpace.  `opts.num_locks`/`num_barriers`
/// are overridden to the layout's region count, and every lock is bound to
/// its region's stripe fields.
class ObjectHome {
 public:
  ObjectHome(ObjectLayoutPtr layout, const plat::PlatformDesc& platform,
             dsm::ShardedHomeOptions opts = {});

  ObjectHome(const ObjectHome&) = delete;
  ObjectHome& operator=(const ObjectHome&) = delete;

  const ObjectLayout& layout() const noexcept { return *layout_; }
  dsm::ShardedHome& node() noexcept { return *home_; }
  const dsm::ShardedHome& node() const noexcept { return *home_; }
  ObjectSpace& objects() noexcept { return *objects_; }

  template <typename T>
  ObjectAccessor<T> accessor(std::uint32_t cls) {
    return objects_->accessor<T>(cls);
  }

  /// Acquire/release the mutex guarding object (cls, index)'s region.
  void lock(std::uint32_t region) { home_->lock(region); }
  void unlock(std::uint32_t region) { home_->unlock(region); }
  void barrier(std::uint32_t index) { home_->barrier(index); }
  void wait_all_joined() { home_->wait_all_joined(); }

 private:
  ObjectLayoutPtr layout_;
  std::unique_ptr<dsm::ShardedHome> home_;
  std::unique_ptr<ObjectSpace> objects_;
};

/// A remote node in object mode: a ShardedRemote collecting from its own
/// ObjectSpace (unlock ships the released region's dirty objects; barrier
/// and join flush everything dirty).
class ObjectRemote {
 public:
  ObjectRemote(ObjectLayoutPtr layout, const plat::PlatformDesc& platform,
               std::uint32_t rank, msg::EndpointPtr endpoint,
               dsm::ShardedRemoteOptions opts = {});

  ObjectRemote(const ObjectRemote&) = delete;
  ObjectRemote& operator=(const ObjectRemote&) = delete;

  const ObjectLayout& layout() const noexcept { return *layout_; }
  dsm::ShardedRemote& node() noexcept { return *remote_; }
  const dsm::ShardedRemote& node() const noexcept { return *remote_; }
  ObjectSpace& objects() noexcept { return *objects_; }

  template <typename T>
  ObjectAccessor<T> accessor(std::uint32_t cls) {
    return objects_->accessor<T>(cls);
  }

  void lock(std::uint32_t region) { remote_->lock(region); }
  void unlock(std::uint32_t region) { remote_->unlock(region); }
  void barrier(std::uint32_t index) { remote_->barrier(index); }
  void join() { remote_->join(); }
  std::uint32_t rank() const noexcept { return remote_->rank(); }

 private:
  ObjectLayoutPtr layout_;
  std::unique_ptr<dsm::ShardedRemote> remote_;
  std::unique_ptr<ObjectSpace> objects_;
};

/// Simulated object-mode cluster, the hdsm::obj twin of ShardedCluster:
/// an ObjectHome plus one ObjectRemote per virtual platform, each remote
/// connected to the home over an in-process channel.  The `wrap` hook
/// interposes per rank — the fault suites inject msg::FaultyEndpoint here
/// exactly as they do in page mode.
class ObjectCluster {
 public:
  using WrapFn = dsm::ShardedCluster::WrapFn;

  ObjectCluster(ObjectLayoutPtr layout,
                const plat::PlatformDesc& home_platform,
                const std::vector<const plat::PlatformDesc*>& remote_platforms,
                dsm::ShardedHomeOptions opts = {}, WrapFn wrap = nullptr,
                dsm::ShardedRemoteOptions remote_opts = {});

  const ObjectLayout& layout() const noexcept { return *layout_; }
  ObjectHome& home() noexcept { return *home_; }
  ObjectRemote& remote(std::uint32_t rank) { return *remotes_.at(rank - 1); }
  std::size_t remote_count() const noexcept { return remotes_.size(); }

  /// Start the home, run `remote_fn` on one thread per remote and
  /// `master_fn` on the calling thread, then join everything.  `master_fn`
  /// should end with wait_all_joined(); `remote_fn` with join().  An
  /// exception on any thread is rethrown here after the join, naming its
  /// rank (see dsm::run_ranks).
  void run(const std::function<void(ObjectHome&)>& master_fn,
           const std::function<void(ObjectRemote&)>& remote_fn);

  /// Sum of every node's Eq.-1 stats.
  dsm::ShareStats total_stats() const;

 private:
  ObjectLayoutPtr layout_;
  std::unique_ptr<ObjectHome> home_;
  std::vector<std::unique_ptr<ObjectRemote>> remotes_;
};

}  // namespace hdsm::obj

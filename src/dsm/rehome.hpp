// Master migration / re-homing (paper §3.1):
//
// "If the master thread moves to a default thread at a remote node, the
//  latter will become the new home node.  Previous local threads become
//  remote threads, and some slave threads at the new home node are
//  activated to work as stub threads for new and old remote threads."
//
// rehome() transplants a quiesced home node onto a (possibly
// heterogeneous) new platform: the authoritative GThV image is converted
// with CGT-RMR into the new representation and a fresh ShardedHome takes
// over.  Threads then re-attach to the new home (each pulls the full image
// on its first synchronization, so no per-thread state is lost), and the
// role bookkeeping on top (mig::RoleTracker::migrate of slot 0) flips the
// local/remote designations.
#pragma once

#include <memory>

#include "dsm/sharded_home.hpp"

namespace hdsm::dsm {

/// Create the successor home node on `platform` from `old_home`.
///
/// `old_home` must be quiesced: every remote joined or detached and no
/// lock held by the master (throws std::logic_error otherwise).  The old
/// node is stopped; its master image is converted into the new node's
/// representation.  The new node is started and ready for attach().
std::unique_ptr<ShardedHome> rehome(ShardedHome& old_home,
                                    const plat::PlatformDesc& platform,
                                    ShardedHomeOptions opts = {});

}  // namespace hdsm::dsm

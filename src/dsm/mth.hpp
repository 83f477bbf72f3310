// The paper's §4 API surface, verbatim:
//
//   "Our basic solution consists of four major functions:
//      MTh_lock(index, rank)   ...
//      MTh_unlock(index, rank) ...
//      MTh_barrier(index, rank) ...
//      MTh_join() ..."
//
// These free functions dispatch through a process-wide participant
// registry: register the home node (as rank 0) and each ShardedRemote under
// its rank, then call the primitives exactly as the paper writes them.
// Ported Pthreads code keeps its call shape:
//   pthread_mutex_lock(&m)    ->  MTh_lock(0, my_rank)
//   pthread_mutex_unlock(&m)  ->  MTh_unlock(0, my_rank)
//   pthread_barrier_wait(&b)  ->  MTh_barrier(0, my_rank)
//   (before pthread_exit)     ->  MTh_join(my_rank)
#pragma once

#include <cstdint>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"

namespace hdsm::dsm {

/// Process-wide rank -> participant registry backing the MTh_* functions.
/// Registration is not thread-safe against concurrent MTh_* calls for the
/// *same* rank (a rank is owned by one thread, as in the paper); distinct
/// ranks may register and run concurrently.
class MthRegistry {
 public:
  /// Register the home node's master thread as rank 0.
  static void register_master(ShardedHome& home);
  /// Register a remote thread under its rank.
  static void register_remote(ShardedRemote& remote);
  /// Remove one rank (idempotent).
  static void unregister(std::uint32_t rank);
  /// Remove everything (test isolation).
  static void reset();
  static bool registered(std::uint32_t rank);
};

/// "Thread rank requests mutex index.  Upon acquiring the lock, any
///  outstanding updates are transferred to thread rank before MTh_lock()
///  completes."
void MTh_lock(std::uint32_t index, std::uint32_t rank);

/// "Thread rank informs the base thread that mutex index should be
///  released.  Updates made by the remote thread (rank) are propagated
///  back to the base thread at this time."
void MTh_unlock(std::uint32_t index, std::uint32_t rank);

/// "Thread rank enters into barrier index."
void MTh_barrier(std::uint32_t index, std::uint32_t rank);

/// "Each remote thread calls MTh_join() immediately prior to thread
///  termination."  For rank 0 this waits for all remotes instead (the
///  master's pthread_join side of the contract).
void MTh_join(std::uint32_t rank);

}  // namespace hdsm::dsm

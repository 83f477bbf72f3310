// The thread runner behind every cluster harness's run() (ShardedCluster,
// obj::ObjectCluster): remotes on their own threads, the
// master on the caller's, and a failure on any of them surfaced to the
// caller as an exception instead of std::terminate.
#pragma once

#include <cstddef>
#include <functional>

namespace hdsm::dsm {

/// Run `remote(i)` as rank i + 1 on its own thread for every i below
/// `remotes`, and `master` as rank 0 on the calling thread; then join every
/// thread, also when `master` throws.  Each rank's exceptions are caught on
/// its own thread, which then calls `on_failure` — the clusters pass their
/// home's stop(), so ranks still blocked on the dead one (the master in a
/// fixed-count barrier, remotes in an RPC) fail instead of waiting forever.
/// After the join, the first exception caught is rethrown as a
/// std::runtime_error "rank R: <what>" with the original nested inside it
/// (std::rethrow_if_nested recovers e.g. a HomeUnreachable).
void run_ranks(std::size_t remotes,
               const std::function<void(std::size_t)>& remote,
               const std::function<void()>& master,
               const std::function<void()>& on_failure);

}  // namespace hdsm::dsm

// The replicated home directory (docs/REPLICATION.md): a primary
// ShardedHome whose every coherence event is appended — synchronously,
// before the event's replies externalize — to a standby ShardedHome's
// replicated log, plus the failover machinery that promotes the standby
// when the primary dies.
//
// This class wires the pair together in one process (the unit the tests
// and benches drive):
//
//   * the primary runs with `ShardedHomeOptions::replication` pointing at
//     a `ReplicationSender` whose link terminates in the standby's shell
//     (`attach_replication`), so the standby replays the primary's event
//     log record by record and converges on its protocol state, reply
//     caches, and image bytes;
//
//   * `kill_primary()` models the crash: the primary stops (remote
//     transports die, so every remote's RetryCore starts burning
//     reconnect credits) and the log link drops;
//
//   * `promote_standby()` fences the dead primary's epoch, resets its
//     master state in the replayed core (`CoherenceCore::reset_master`),
//     and starts the standby serving;
//
//   * `redial(rank)` is the remotes' reconnect hook: it blocks out
//     the handover window, then resumes the rank's session at whichever
//     home is serving (`ShardedHome::resume_endpoint` — no peer event, the
//     replayed peer state answers retransmits from the reply cache).
//
// The master thread dies with the primary; after failover the *standby's*
// master is a fresh master (the promoted cores released the dead master's
// locks and withdrew it from open barriers).  Master-side calls route to
// the serving home, and `space()` must be re-fetched after a failover —
// the standby holds its own image.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "dsm/replication.hpp"
#include "dsm/sharded_home.hpp"

namespace hdsm::dsm {

struct ReplicatedHomeOptions {
  /// Options applied to both homes (the standby's `replication` and
  /// `trace` fields are overridden; see `standby_trace`).
  ShardedHomeOptions home;
  ReplicationOptions repl;
  /// The standby's own trace sink.  Keep it separate from the primary's:
  /// a replayed event traces again, and one shared log would double every
  /// episode.
  TraceLog* standby_trace = nullptr;
};

class ReplicatedHome {
 public:
  ReplicatedHome(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                 ReplicatedHomeOptions opts = {});

  ReplicatedHome(const ReplicatedHome&) = delete;
  ReplicatedHome& operator=(const ReplicatedHome&) = delete;

  /// Attach remote `rank` to the (current) primary, as
  /// ShardedHome::attach.  Wire the same rank's reconnect hook to `redial`
  /// so the remote survives the failover.
  msg::EndpointPtr attach(std::uint32_t rank);
  void attach_endpoint(std::uint32_t rank, msg::EndpointPtr ep);

  /// The remotes' re-dial hook: waits out an in-progress handover, then
  /// resumes the rank's session at the serving home over a fresh channel
  /// pair and returns the remote half.
  msg::EndpointPtr redial(std::uint32_t rank);

  void start();
  void stop();

  // -- Failover --

  /// Crash the primary: its shell stops (remote transports die) and the
  /// log link drops.  Remotes block in `redial` until promote_standby().
  void kill_primary();
  /// Fence + reset_master + start the standby; unblocks redial.  Returns
  /// the promotion pause (fence to serving).
  std::chrono::nanoseconds promote_standby();
  /// kill_primary() + promote_standby(); returns the full failover pause.
  std::chrono::nanoseconds fail_over();
  bool failed_over() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return serving_ == standby_.get();
  }

  // -- Master-thread API, routed to the serving home --
  void lock(std::uint32_t index) { serving().lock(index); }
  void unlock(std::uint32_t index) { serving().unlock(index); }
  void barrier(std::uint32_t index) { serving().barrier(index); }
  void wait_all_joined() { serving().wait_all_joined(); }
  void set_barrier_count(std::uint32_t index, std::uint32_t count) {
    serving().set_barrier_count(index, count);
  }
  void bind_lock(std::uint32_t index, const std::string& field) {
    serving().bind_lock(index, field);
  }

  /// The serving home's image.  Re-fetch after a failover: the standby
  /// holds its own (replicated) image, not the primary's.
  GlobalSpace& space() { return serving().space(); }

  /// The home currently answering requests (primary until fail_over()).
  ShardedHome& serving();
  ShardedHome& primary() { return *primary_; }
  ShardedHome& standby() { return *standby_; }
  ReplicationSender& sender() { return *sender_; }

 private:
  ReplicatedHomeOptions opts_;
  /// Declaration order is teardown order reversed: the primary destructs
  /// first (its drains may still append through the sender), the sender
  /// second, the standby last.
  std::unique_ptr<ShardedHome> standby_;
  std::unique_ptr<ReplicationSender> sender_;
  std::unique_ptr<ShardedHome> primary_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  ShardedHome* serving_ = nullptr;
  bool failing_over_ = false;
};

}  // namespace hdsm::dsm

// The transport-free coherence core of the home node: a sans-I/O protocol
// engine in the tradition of DRust's split protocol layer and the
// compositionally-verified DSMs — the entire lock/barrier/recovery state
// machine lives here as a pure, deterministic function
//
//   step : Event -> [Action]
//
// with zero threads, mutexes, or endpoints inside.  Every decision the home
// node makes — grant queueing, pending-set batching, entry-consistency
// filtering, request dedup + reply caching, incarnation-epoch resets, and
// the generation-guarded unlock reset-recovery rules — is a transition of
// this class, steppable from a unit test without spawning a thread or
// opening an endpoint.  `ShardedHome` (sharded_home.{hpp,cpp}) is only the
// I/O shell around the one core: it feeds events from the reactor's io
// thread and executes the returned actions, all under one state lock.
//
// The one dependency is `UpdateCodec` (dsm/update.hpp), a narrow data-plane
// interface (pack runs -> payload bytes, apply payload -> runs): the home's
// SyncEngine itself in production, a trivial in-memory fake in tests.  The
// codec carries no protocol knowledge; the core never touches image bytes.
//
// Normative event -> action tables: docs/PROTOCOL.md §6.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsm/stats.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"
#include "index/index_table.hpp"
#include "msg/message.hpp"
#include "obs/telemetry.hpp"
#include "tags/layout.hpp"

namespace hdsm::dsm {

/// One input to the protocol engine, and the only way the home's protocol
/// state changes — configuration included, so the event stream is the
/// whole replicated log (docs/REPLICATION.md).  Master events carry the
/// runs the master's SyncEngine collected (finding writes is data-plane
/// work); PeerAttached carries the fresh peer's initial pending set (the
/// full image).
struct CoherenceEvent {
  enum class Kind : std::uint8_t {
    PeerAttached,     ///< rank connected; `runs` = initial pending set
    MsgReceived,      ///< `message` arrived from `rank`
    MasterLock,       ///< master requests mutex `index`
    MasterUnlock,     ///< master releases mutex `index`; `runs` = its diffs
    MasterBarrier,    ///< master enters barrier `index`; `runs` = its diffs
    PeerDetached,     ///< rank's transport died (recv or send failure)
    SetBarrierCount,  ///< barrier `index` closes at `value` entries
    BindLock,         ///< mutex `index` also guards row `value`
  };

  Kind kind = Kind::PeerAttached;
  std::uint32_t rank = 0;
  std::uint32_t index = 0;
  /// SetBarrierCount: the episode size (0 = inferred); BindLock: the row.
  std::uint32_t value = 0;
  msg::Message message;
  std::vector<idx::UpdateRun> runs;

  static CoherenceEvent peer_attached(std::uint32_t rank,
                                      std::vector<idx::UpdateRun> runs);
  static CoherenceEvent msg_received(std::uint32_t rank, msg::Message m);
  static CoherenceEvent master_lock(std::uint32_t index);
  static CoherenceEvent master_unlock(std::uint32_t index,
                                      std::vector<idx::UpdateRun> runs);
  static CoherenceEvent master_barrier(std::uint32_t index,
                                       std::vector<idx::UpdateRun> runs);
  static CoherenceEvent peer_detached(std::uint32_t rank);
  static CoherenceEvent set_barrier_count(std::uint32_t index,
                                          std::uint32_t count);
  static CoherenceEvent bind_lock(std::uint32_t index, std::uint32_t row);
};

/// One output of the protocol engine.  The home executes actions in list
/// order under its state lock.  Sends are asynchronous: a dead transport
/// comes back later as a PeerDetached event.
struct CoherenceAction {
  enum class Kind : std::uint8_t {
    Send,        ///< transmit `message` to `rank`
    WakeMaster,  ///< a master-visible predicate changed; wake its waits
    Detach,      ///< protocol violation by `rank`: close its endpoint
    Trace,       ///< append `trace` to the protocol trace log
  };

  Kind kind = Kind::Trace;
  std::uint32_t rank = 0;
  msg::Message message;
  std::string reason;
  TraceEvent trace;  ///< seq is assigned by the TraceLog on append

  static CoherenceAction send(std::uint32_t rank, msg::Message m);
  static CoherenceAction wake_master();
  static CoherenceAction detach(std::uint32_t rank, std::string reason);
};

struct CoherenceConfig {
  std::uint32_t num_locks = 16;
  std::uint32_t num_barriers = 16;
  /// Stamped as the sender platform on every reply the core builds.
  msg::PlatformSummary self;
  /// This node's image tag text (Hello mismatch diagnostics).
  std::string image_tag_text;
  /// Local layout runs for Hello shape negotiation; empty skips the check
  /// (unit-test harnesses that never exchange real tags).
  std::vector<tags::FlatRun> layout_runs;
  /// Borrowed telemetry for the home node itself (may be null).  The
  /// MetricsPull handler folds it — together with the ShareStats mirror —
  /// into the cluster view as rank 0, so scrape replies include the home
  /// even when obs recording is off.
  obs::Telemetry* telemetry = nullptr;
};

class CoherenceCore {
 public:
  static constexpr std::uint32_t kMasterRank = 0;

  /// `codec` and `stats` are borrowed and must outlive the core.
  CoherenceCore(CoherenceConfig cfg, UpdateCodec& codec, ShareStats& stats);

  /// Process one event, mutating protocol state and returning the actions
  /// the shell must execute, in order.  Never throws for remote-originated
  /// events (a misbehaving peer yields a Detach action); master and
  /// configuration events throw std::out_of_range / std::logic_error on API
  /// misuse, before any state changes.
  std::vector<CoherenceAction> step(const CoherenceEvent& e);

  // -- Validation queries (throw exactly as the legacy master API did;
  //    const, so the shell can check before collecting diffs) --
  void check_lock_index(std::uint32_t index) const;
  void check_barrier_index(std::uint32_t index) const;
  void check_master_unlock(std::uint32_t index) const;

  // -- Pure predicates for the shell's condition-variable waits --
  bool master_holds(std::uint32_t index) const;
  std::uint64_t barrier_generation(std::uint32_t index) const;
  bool peer_active(std::uint32_t rank) const;
  bool all_inactive() const;  ///< wait_all_joined(): no active peer left
  bool quiesced() const;      ///< no active peer, no lock held or queued

  /// Deactivate every peer without protocol side effects (lock reclaim,
  /// barrier re-evaluation, traces): shutdown semantics, shell stop() only.
  void shutdown();

  /// Failover promotion (docs/REPLICATION.md): the master thread of the
  /// crashed primary does not survive into this replica, so release every
  /// master-held mutex and withdraw the master from any open barrier
  /// episode (its merged updates stay — they were really written before
  /// the crash).  Peer state is untouched: the remotes are alive and will
  /// resume their sessions here.  Call under the same exclusion as step();
  /// execute the actions like step() results.
  void reset_master(std::vector<CoherenceAction>& out);

  // -- Introspection (tests, stats surfaces) --
  std::vector<std::uint32_t> active_ranks() const;
  std::int64_t lock_holder(std::uint32_t index) const;
  /// Open reset-recovery windows for `rank` (granted_gen entries).  The
  /// protocol bounds this by the number of mutexes whose *last* grant went
  /// to `rank`: every grant closes all other ranks' windows for that mutex,
  /// and honored/denied recovery closes the sender's.
  std::size_t recovery_entries(std::uint32_t rank) const;
  std::uint32_t num_locks() const noexcept { return cfg_.num_locks; }

  /// Cluster-wide telemetry view: the home's own snapshot (obs registry, if
  /// attached, plus the ShareStats mirror) as rank 0 merged with every
  /// snapshot remotes have reported via MetricsPull.  Call under the same
  /// exclusion as step() — it reads the ShareStats the shell mutates.
  obs::ClusterTelemetry telemetry() const;

 private:
  /// Runs other ranks wrote since a peer last received them, keyed by row:
  /// one run list per row, in row order, each sorted and span-disjoint
  /// (merge_runs keeps it so).  merge_runs never joins runs of different
  /// rows, so the rows laid end to end are exactly the flat merged set: an
  /// unlock merges only into the rows it wrote, and a bound grant takes
  /// only its own rows.  A row a grant empties keeps its slot and capacity,
  /// so a steady-state merge allocates nothing.
  class PendingSet {
   public:
    /// Merge `add`, sorted by run_before, into the rows it touches.
    void merge(std::span<const idx::UpdateRun> add, MergeBuffers& buf);
    /// Append the runs of `rows` (sorted; empty = every row) to `out` in
    /// row order, and drop them from the set.
    void take(const std::vector<std::uint32_t>& rows,
              std::vector<idx::UpdateRun>& out);
    void clear();

   private:
    struct Row {
      std::uint32_t row = 0;
      std::vector<idx::UpdateRun> runs;
    };
    std::vector<Row> rows_;  ///< sorted by row
  };

  struct PeerState {
    bool active = false;
    PendingSet pending;
    // Reliability state — persists across detach/re-attach so a remote
    // that reconnects after a reset can retransmit its outstanding request
    // and be answered from the cache instead of re-executed.
    std::uint32_t last_seq = 0;  ///< highest request seq handled
    std::optional<msg::Message> last_reply;  ///< reply sent for last_seq
    /// Incarnation epoch from the last fresh-incarnation Hello (its
    /// sync_id field); dedup state resets only when a Hello carries a
    /// *different* epoch, so duplicated or reordered copies of the same
    /// Hello cannot reset it mid-session.  0 = none seen yet.
    std::uint32_t hello_epoch = 0;
    /// Lock generation under which this peer was granted each mutex (see
    /// LockState::generation); consulted by the unlock reset-recovery path
    /// to prove nobody re-acquired the mutex since.  Entries are erased
    /// when the recovery window closes: on honored or denied recovery and
    /// on any regrant of the mutex, so the map never outgrows the set of
    /// mutexes last granted to this rank.
    std::map<std::uint32_t, std::uint64_t> granted_gen;
  };

  struct LockState {
    std::int64_t holder = -1;  // rank, or -1 when free
    std::deque<std::uint32_t> waiters;
    /// Bumped on every grant.  A reset-recovery unlock (holder already
    /// reclaimed) is only safe while the generation still matches the one
    /// recorded at the sender's grant: a changed generation means another
    /// thread held the mutex in between and the stale diffs must not
    /// overwrite its writes.
    std::uint64_t generation = 0;
    /// Entry consistency: rows this mutex guards, sorted (empty = guards
    /// all).
    std::vector<std::uint32_t> bound_rows;
  };

  struct BarrierState {
    std::vector<std::uint32_t> entered;
    /// Frozen at the episode's first entry: the ranks this episode waits
    /// for.  A node that attaches mid-episode is not a participant (it
    /// neither blocks the episode nor receives its release); one that
    /// enters anyway joins the episode.
    std::vector<std::uint32_t> participants;
    /// Explicit episode size (pthread_barrier_init count); 0 = inferred.
    std::uint32_t expected = 0;
    std::uint64_t generation = 0;
  };

  using Actions = std::vector<CoherenceAction>;

  void handle_message(std::uint32_t rank, const msg::Message& m,
                      Actions& out);
  /// Duplicate detection for sequenced requests.  Returns true when the
  /// message was fully handled (dropped, or answered from the reply cache)
  /// and must not reach the normal handler.
  bool handle_duplicate(std::uint32_t rank, PeerState& peer,
                        const msg::Message& m, Actions& out);
  /// Protocol violation by `rank`: emit a Detach action and run the detach
  /// transition (the sans-I/O equivalent of the legacy throw-and-catch).
  void violation(std::uint32_t rank, std::string reason, Actions& out);
  void hello(std::uint32_t rank, const msg::Message& m, Actions& out);
  /// Apply a request's update payload to the home image, trace it under
  /// `sync_id` and queue its runs for the other peers.  A payload that
  /// fails to apply is a violation named "bad <what> payload"; returns
  /// false then.
  bool apply_updates(std::uint32_t rank, const msg::Message& m,
                     std::uint32_t sync_id, const char* what, Actions& out);
  /// Stamp `reply` with the peer's outstanding request seq, cache it for
  /// retransmits, and emit the Send.
  void send_reply(std::uint32_t rank, PeerState& peer, msg::Message reply,
                  Actions& out);
  void grant(std::uint32_t index, std::uint32_t rank, Actions& out);
  /// `runs` in run_before order: `runs` itself, or a sorted copy.
  std::span<const idx::UpdateRun> sorted_runs(
      const std::vector<idx::UpdateRun>& runs);
  /// Take `peer`'s pending runs of `rows` (empty = every row) into ship_
  /// and pack them.
  std::vector<std::byte> pack_pending(PeerState& peer,
                                      const std::vector<std::uint32_t>& rows);
  void release(std::uint32_t index, Actions& out);
  void merge_pending(std::uint32_t source_rank,
                     const std::vector<idx::UpdateRun>& runs);
  void enter_barrier(BarrierState& b, std::uint32_t rank);
  void maybe_release_barrier(std::uint32_t index, Actions& out);
  bool barrier_complete(const BarrierState& b) const;
  void detach(std::uint32_t rank, bool trace_detach, Actions& out);
  void master_lock(std::uint32_t index, Actions& out);
  void master_unlock(std::uint32_t index,
                     const std::vector<idx::UpdateRun>& runs, Actions& out);
  void master_barrier(std::uint32_t index,
                      const std::vector<idx::UpdateRun>& runs, Actions& out);
  // Configuration transitions (SetBarrierCount / BindLock events).
  void set_barrier_count(std::uint32_t index, std::uint32_t count);
  void bind_lock(std::uint32_t index, std::uint32_t row);
  void trace(Actions& out, TraceEvent::Kind kind, std::uint32_t rank,
             std::uint32_t sync_id, std::uint64_t blocks = 0,
             std::uint64_t bytes = 0, std::uint64_t req = 0);

  CoherenceConfig cfg_;
  UpdateCodec& codec_;
  ShareStats& stats_;
  obs::ClusterAggregator aggregator_;
  std::map<std::uint32_t, PeerState> peers_;
  std::vector<LockState> locks_;
  std::vector<BarrierState> barriers_;
  // Scratch reused across steps, so steady-state merges and packs do not
  // allocate.
  MergeBuffers merge_buf_;
  std::vector<idx::UpdateRun> sorted_;  ///< sorted_runs' copy
  std::vector<idx::UpdateRun> ship_;    ///< the runs a grant or release packs
};

}  // namespace hdsm::dsm

// Protocol tracing and invariant validation.
//
// Debugging a distributed-consistency protocol from printf output is
// hopeless; the home node can instead record every protocol transition
// (grants, releases, barrier episodes, update applications) into a
// TraceLog.  TraceValidator replays a log against the protocol's
// invariants — mutual exclusion per mutex, complete barrier episodes,
// no activity from joined threads — which the tests run after every
// stress scenario, and which users can run on traces captured in situ.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace hdsm::dsm {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    LockRequested,
    LockGranted,
    LockReleased,
    BarrierEntered,
    BarrierReleased,  ///< one per episode, after all participants entered
    UpdatesApplied,   ///< home applied a thread's update blocks
    UpdatesShipped,   ///< home shipped pending updates to a thread
    Joined,
    Attached,
    Detached,
    // Reliability-layer events (see docs/RELIABILITY.md):
    RetrySent,         ///< a request was retransmitted after a timeout
    DuplicateDropped,  ///< a sequenced duplicate was discarded, not re-run
    ReplyResent,       ///< home re-sent the cached reply for a duplicate
    Reconnected,       ///< a remote re-established its transport
    TimeoutDetached,   ///< a remote detached after exhausting its retries
    // Adaptive policy engine events (see docs/ADAPTIVITY.md).  sync_id
    // carries the tuner's episode number; decision events must follow a
    // ProbeSampled from the same rank in the same episode (invariant 5).
    ProbeSampled,      ///< the tuner folded one episode's signal in
    StrategySwitched,  ///< the codec (compress) decision changed
    // Telemetry events (see docs/OBSERVABILITY.md).  Bookkeeping like the
    // reliability events: lifecycle-exempt, no protocol invariants.
    MetricsScraped,    ///< home folded a MetricsPull snapshot (bytes = size)
  };

  std::uint64_t seq = 0;  ///< global order at the home node
  Kind kind = Kind::LockRequested;
  std::uint32_t rank = 0;
  std::uint32_t sync_id = 0;
  std::uint64_t blocks = 0;  ///< update blocks involved
  std::uint64_t bytes = 0;   ///< payload bytes involved
  /// Request sequence number the event concerns (0 = none, e.g. a master
  /// event).  Lets the validator prove each request was applied at most
  /// once.
  std::uint64_t req = 0;

  bool operator==(const TraceEvent&) const = default;
};

const char* trace_kind_name(TraceEvent::Kind k) noexcept;

/// Thread-safe append-only event log.
class TraceLog {
 public:
  void append(TraceEvent::Kind kind, std::uint32_t rank,
              std::uint32_t sync_id, std::uint64_t blocks = 0,
              std::uint64_t bytes = 0, std::uint64_t req = 0);

  std::vector<TraceEvent> snapshot() const;
  std::size_t size() const;
  void clear();

  /// One line per event, e.g. "#12 LockGranted rank=2 sync=0 blocks=3".
  std::string to_string() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::uint64_t next_seq_ = 1;
};

/// Checks a trace against the DSD protocol invariants; returns a
/// description of the first violation, or nullopt for a clean trace.
///
/// Invariants:
///   1. Mutual exclusion: a mutex is granted only when free, released only
///      by its holder.
///   2. Barrier episodes: a BarrierReleased is preceded by a BarrierEntered
///      from every rank that participates in the episode, and no rank
///      enters twice in one episode.
///   3. Lifecycle: no protocol activity from a rank after it Joined,
///      Detached, or TimeoutDetached (until re-Attached).  Reliability
///      bookkeeping (RetrySent / DuplicateDropped / ReplyResent) is exempt:
///      retransmits of a joined rank's last request legitimately arrive
///      after its Join and are dropped or re-answered from the cache.
///   4. Idempotency: UpdatesApplied events carrying a request sequence
///      number (req != 0) are strictly increasing per rank — the same
///      request's payload is never applied twice.
///   5. Adaptive causality: a decision event (StrategySwitched, the codec's
///      compress knob) is always preceded by a ProbeSampled from the same
///      rank carrying the same episode number (sync_id) — the tuner never
///      moves its knob without having sampled first.
///      Adaptive events are lifecycle-exempt like reliability bookkeeping:
///      a detached remote's final collect may still sample its tuner.
std::optional<std::string> validate_trace(
    const std::vector<TraceEvent>& events);

}  // namespace hdsm::dsm

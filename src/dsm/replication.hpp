// Primary/standby state-machine replication of the home directory
// (docs/REPLICATION.md).
//
// `CoherenceCore::step(Event) -> [Action]` is a deterministic pure state
// machine, so replicating the home is replicating its event log: the
// primary serializes every event it applies into a LogRecord, ships it to
// the standby over a `ReplAppend`/`ReplAck` exchange, and only then lets
// the event's Send actions externalize — the **log-before-reply** rule.
// The standby replays each record through its own core and codec, so its
// protocol state (locks, barriers, dedup horizons, cached replies) and its
// image bytes converge on the primary's, record by record.
//
// Master events are the one place event bytes are not self-contained: a
// MasterUnlock/MasterBarrier event names update *runs* whose bytes live
// only in the primary's image.  The primary packs those runs at append
// time (`master_payload`); the standby applies the bytes and takes the
// runs the apply returns — the event itself travels without its runs.
//
// Failover epochs: every append carries the sender's primaryship epoch in
// `aux`.  A promoted standby fences itself at a higher epoch and answers
// appends from the deposed primary with a rejection ack — the deposed
// primary stops externalizing actions (split-brain safety), while the
// remotes re-attach to the new primary and retransmit their in-flight
// requests, which the replicated reply cache answers exactly once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dsm/coherence_core.hpp"
#include "msg/endpoint.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::dsm {

/// One entry of the replicated event log: the event the primary stepped,
/// plus the bytes of a master event's runs.  Every change to the home's
/// protocol state is a CoherenceEvent, configuration included, so the log
/// is exactly the event stream.  The event's runs stay off the wire: the
/// standby rebuilds a master event's runs from `master_payload` (one run
/// per packed block) and a PeerAttached's as its own full image.
struct LogRecord {
  CoherenceEvent event;
  /// MasterUnlock / MasterBarrier only: the event's runs packed from the
  /// primary's image (bytes exist nowhere else).  Empty for every other
  /// record.
  std::vector<std::byte> master_payload;
  /// Sender platform for decoding `master_payload` at the standby.
  msg::PlatformSummary master_sender;
};

/// True for the events whose runs travel as a master payload.
bool is_master_update(CoherenceEvent::Kind kind);

/// Serialize a record into the ReplAppend payload.
std::vector<std::byte> encode_record(const LogRecord& r);
/// Bounds-checked decode; throws std::runtime_error on malformed input.
LogRecord decode_record(const std::vector<std::byte>& payload);

struct ReplicationOptions {
  /// One ack wait; the append retries `max_retries` times before the link
  /// is declared dead.
  std::chrono::milliseconds ack_timeout{250};
  std::uint32_t max_retries = 4;
  /// Link dead (standby stopped acking): true = log once and continue
  /// serving unreplicated (availability over durability), false = treat it
  /// like a deposition and fence.
  bool allow_degraded = true;
  /// This primary's primaryship epoch; a promoted standby fences at
  /// epoch + 1.
  std::uint32_t epoch = 1;
};

/// The primary's append client: one endpoint to the standby, one append
/// at a time (a mutex serializes concurrent callers), each append a
/// synchronous ReplAppend -> ReplAck round trip with bounded retry.  The
/// shell calls it under its state lock, after the core stepped the event
/// and before any of its Send actions externalize (log-before-reply).
class ReplicationSender {
 public:
  enum class Result : std::uint8_t {
    Ok,        ///< the standby holds the record
    Degraded,  ///< link dead; serving continues unreplicated
    Deposed,   ///< a newer epoch was promoted: stop externalizing actions
  };

  ReplicationSender(msg::EndpointPtr link, ReplicationOptions opts,
                    obs::Telemetry* telemetry = nullptr);
  ~ReplicationSender();

  Result append(const LogRecord& r);

  /// Drop the link (crash simulation / teardown); subsequent appends
  /// degrade or fence per `allow_degraded`.
  void close();

  bool degraded() const;
  bool deposed() const;
  std::uint64_t appends() const;

 private:
  mutable std::mutex mutex_;
  msg::EndpointPtr link_;
  ReplicationOptions opts_;
  obs::Telemetry* telemetry_;
  std::uint32_t next_index_ = 1;
  std::uint64_t appends_ = 0;
  bool degraded_ = false;
  bool deposed_ = false;
};

}  // namespace hdsm::dsm

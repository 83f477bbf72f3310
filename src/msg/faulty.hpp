// Deterministic fault injection for transport endpoints.
//
// FaultyEndpoint decorates any Endpoint and injects seeded, reproducible
// faults — message drop, fixed delay, duplication, reordering within a
// bounded window, and connection reset — configurable per direction (the
// wrapper's send path vs its recv path) and per message kind.  The same
// seed always yields the same fault schedule, so a failing fault-injection
// test replays exactly.
//
// Faults model the *network*, not the peer: a dropped send still returns
// normally (the bytes vanished on the wire), a reset behaves like a peer
// RST (this endpoint throws ChannelClosed and the underlying transport is
// closed so the peer sees EOF too).
//
// See docs/RELIABILITY.md for the fault model and how the DSD reliability
// protocol recovers from each mode.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "msg/endpoint.hpp"

namespace hdsm::msg {

/// Fault configuration for one direction of a FaultyEndpoint.
/// Probabilities are per message in [0,1]; independent draws are made in
/// the order drop, duplicate, delay, reorder, so a fixed seed gives a fixed
/// schedule regardless of which faults are enabled.
struct FaultSpec {
  double drop = 0.0;       ///< P(message silently discarded)
  double duplicate = 0.0;  ///< P(message delivered twice)
  double delay = 0.0;      ///< P(message delayed by `delay_ms`)
  std::chrono::milliseconds delay_ms{5};
  /// P(message held back and delivered after up to `reorder_window` later
  /// messages) — send direction only; the recv path stays FIFO.  A held
  /// message leaves once later sends have aged it by `reorder_window`, or
  /// at close(); no clock is involved, so the schedule depends only on the
  /// seed and the message order.  The DSD protocol stays live under it:
  /// every request is retransmitted until answered and every reply is
  /// re-sent with it, so a held message is always followed by more sends.
  double reorder = 0.0;
  std::uint32_t reorder_window = 2;
  /// Reset the connection after this many messages have passed through this
  /// direction (0 = never): the Nth+1 operation throws ChannelClosed and
  /// closes the inner endpoint, so the peer observes EOF.
  std::uint64_t reset_after = 0;
  /// P(payload bit-flip): `corrupt_bits` random bits of a non-empty payload
  /// are flipped in transit.  Framing and header fields stay intact — this
  /// models data corruption that checksums/validation must catch, not a
  /// broken stream.  Corruption draws come from a dedicated RNG stream, so
  /// enabling it does not reshuffle the drop/dup/delay/reorder schedule of
  /// an existing seed.
  double corrupt = 0.0;
  std::uint32_t corrupt_bits = 1;
  /// Restrict faults to these message kinds (empty = all kinds eligible).
  /// Reset ignores this filter: a connection dies under whatever traffic.
  std::vector<MsgType> only;
};

struct FaultOptions {
  std::uint64_t seed = 1;  ///< drives both directions' schedules
  FaultSpec send;          ///< faults injected on this wrapper's send()
  FaultSpec recv;          ///< faults injected on this wrapper's recv()
};

/// Counts of injected faults, queryable mid-run from tests.
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t resets = 0;
  std::uint64_t corrupted = 0;

  std::uint64_t total() const noexcept {
    return dropped + duplicated + delayed + reordered + resets + corrupted;
  }
};

class FaultyEndpoint : public Endpoint {
 public:
  virtual FaultCounters counters() const = 0;
  /// The wrapped transport (for byte counters etc.).
  virtual Endpoint& inner() noexcept = 0;
};

/// Wrap `inner` with fault injection.  The wrapper owns the inner endpoint.
std::unique_ptr<FaultyEndpoint> make_faulty(EndpointPtr inner,
                                            const FaultOptions& opts);

}  // namespace hdsm::msg

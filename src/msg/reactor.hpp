// msg::Reactor — the event-driven transport shell (docs/TRANSPORT.md).
//
// One io thread multiplexes every remote connection: fd-backed endpoints
// (TCP) sit in an epoll set, queue-backed endpoints (in-process channels)
// signal readiness through a callback that funnels into the thread's one
// wake eventfd — so a thousand simulated remotes cost one descriptor, not
// a thousand.  An idle io thread spins briefly on a work flag before it
// parks in epoll_wait, and posters write the eventfd only while it is
// parked, so a request that lands inside the spin costs no wakeup (spin,
// then park; TRANSPORT.md §2.1).  Each wakeup drains *every* decodable
// frame from a ready endpoint (frame batching) and runs the handler (the
// DSM shell's protocol step) inline on the io thread.  Replies the handler
// sends land straight on the peer's write queue; at the end of each loop
// iteration every queued FIFO goes out as one gathered send (write
// coalescing).  Closed events are deferred to the top of the loop, so an
// eviction triggered by a handler-issued send never re-enters the handler.
//
// Backpressure: per-peer outbound queues are bounded by
// `max_write_queue_bytes`; a peer that stops draining (dead TCP window)
// is closed when its queue would exceed the bound — the protocol already
// treats a closed peer as a crashed cluster member, so eviction degrades
// to the tested detach/reconnect path and every other peer keeps
// progressing.
//
// Delivery guarantees: handler calls are serialized (one thread runs them
// all); per peer, on_message calls preserve transport receive order, and
// on_peer_closed is delivered at most once, after that peer's last
// on_message.  Messages queued by a peer before close are still delivered
// first (matching the blocking endpoints' drain-then-throw semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "msg/endpoint.hpp"

namespace hdsm::obs {
class Telemetry;
}

namespace hdsm::msg {

/// Opaque peer handle chosen by the caller at add_peer (the DSM shells
/// encode (attach generation, rank) so stale completions filter).
using PeerId = std::uint64_t;

struct ReactorOptions {
  /// Bound on a peer's queued outbound bytes before it is evicted
  /// (closed) as a slow consumer.
  std::size_t max_write_queue_bytes = std::size_t{64} << 20;
  /// Optional telemetry: reactor spans + counters (docs/OBSERVABILITY.md).
  obs::Telemetry* telemetry = nullptr;
};

/// Handler invoked on the io thread.  Calls are serialized, and calls for
/// one peer are in order.  The handler may call Reactor::send from inside
/// a callback (the common case: protocol replies), from which it returns
/// immediately — transmission is asynchronous.
class ReactorHandler {
 public:
  virtual ~ReactorHandler() = default;
  virtual void on_message(PeerId peer, Message&& m) = 0;
  /// The peer's transport is gone: EOF, send failure, backpressure
  /// eviction, or remove_peer.  Always the peer's last callback.
  virtual void on_peer_closed(PeerId peer) = 0;
};

/// Monotonic counters for tests/benches (also mirrored into telemetry
/// counters when ReactorOptions::telemetry is set).
struct ReactorStats {
  std::uint64_t frames_in = 0;      ///< messages decoded off endpoints
  std::uint64_t frames_out = 0;     ///< messages handed to send_some
  std::uint64_t wakeups = 0;        ///< io-loop iterations
  /// Iterations that blocked in epoll_wait because the spin budget ran
  /// out; wakeups - parks came straight out of the spin.
  std::uint64_t parks = 0;
  std::uint64_t flush_batches = 0;  ///< send_some calls with >= 1 message
  std::uint64_t backpressure_closes = 0;  ///< slow consumers evicted
};

class Reactor {
 public:
  Reactor(const ReactorOptions& opts, ReactorHandler& handler);
  ~Reactor();  // stop()s

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Register `ep` under `id` and start serving it.  The endpoint must be
  /// reactor-capable (Endpoint::reactor_hook); throws
  /// std::invalid_argument otherwise.  `id` must not currently be
  /// registered.
  void add_peer(PeerId id, std::shared_ptr<Endpoint> ep);

  /// Close `id`'s endpoint and retire it: already-received messages still
  /// deliver, then on_peer_closed fires.  No-op for unknown ids.
  void remove_peer(PeerId id);

  /// Queue a message for `id`; returns immediately.  Any thread.  Unknown
  /// or already-closed ids drop silently — the closed peer's
  /// on_peer_closed is the authoritative failure signal, exactly like the
  /// blocking shells' ChannelClosed.
  void send(PeerId id, Message m);

  /// Settlement barrier: blocks until every add/remove/send posted before
  /// this call has executed, queued writes were attempted, and all
  /// resulting handler callbacks — messages and closed events — have
  /// returned.  Frames that reach an endpoint after the call are not
  /// covered.  Must not be called from inside a handler; returns early if
  /// the reactor is stopping.
  void flush();

  /// Stop the io thread (idempotent).  In-flight inbound messages and
  /// closed events are still delivered to the handler before it exits;
  /// endpoints are closed.
  void stop();

  ReactorStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hdsm::msg

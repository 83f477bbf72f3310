// Transport endpoints.
//
// The DSD protocol is strictly request/reply over a star topology (every
// remote thread talks only to the home node), so an endpoint is a simple
// blocking duplex message pipe.  Two implementations:
//   - in-process channel pairs (the simulated cluster used by tests and
//    benches: each node is a thread, the "LAN" is a queue), and
//   - loopback TCP with the same framing (demonstrates the protocol really
//     is wire-ready; exercised by integration tests).
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <utility>

#include "msg/message.hpp"

namespace hdsm::msg {

/// How an endpoint signals readiness once it has joined a `msg::Reactor`
/// (reactor.hpp, docs/TRANSPORT.md).  Exactly one of the two mechanisms is
/// active: fd-backed transports report a pollable descriptor, queue-backed
/// transports invoke the registered callback.
struct ReactorHook {
  /// Descriptor for epoll (the endpoint has switched to nonblocking mode);
  /// -1 for transports with no kernel object behind them.
  int fd = -1;
  /// True when arrival/close is signaled by invoking the `on_ready`
  /// callback passed to reactor_hook() instead of via the fd.
  bool uses_callback = false;

  bool reactor_capable() const noexcept { return fd >= 0 || uses_callback; }
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Send one message; throws ChannelClosed if the peer is gone.
  virtual void send(const Message& m) = 0;
  /// Block until a message arrives; throws ChannelClosed on shutdown.
  virtual Message recv() = 0;
  /// Wait up to `timeout`; returns false on timeout.
  virtual bool recv_for(Message& out, std::chrono::milliseconds timeout) = 0;
  /// Close this side; unblocks the peer with ChannelClosed.
  virtual void close() = 0;

  /// Total bytes pushed through send() (frame-encoded size).
  virtual std::uint64_t bytes_sent() const = 0;
  virtual std::uint64_t bytes_received() const = 0;

  // -- Reactor integration (reactor.hpp).  An endpoint joins a reactor at
  //    most once; from then on the reactor's io thread is the only caller
  //    of try_recv/send_some/flush_writes on it.  close() may still race
  //    in from any thread, exactly as with the blocking API. --

  /// Prepare for reactor service and describe how readiness is signaled.
  /// `on_ready` must be cheap, non-blocking, and safe to invoke from any
  /// thread; it may fire spuriously.  The default marks the endpoint not
  /// reactor-capable (fd -1, no callback).
  virtual ReactorHook reactor_hook(std::function<void()> on_ready) {
    (void)on_ready;
    return {};
  }
  /// Nonblocking receive: true = one message produced, false = nothing
  /// decodable right now; throws ChannelClosed once closed *and* drained
  /// (queued messages are still delivered after close, matching recv()).
  virtual bool try_recv(Message& out) {
    return recv_for(out, std::chrono::milliseconds(0));
  }
  /// Transmit up to `n` messages without blocking on a full transport;
  /// returns how many were consumed.  A consumed message is on the wire or
  /// buffered inside the endpoint (see wants_write()) and must not be
  /// resubmitted.  Stream transports gather consecutive frames into one
  /// writev, which is where the reactor's write coalescing lands on the
  /// wire.  The default loops over blocking send().
  virtual std::size_t send_some(const Message* msgs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) send(msgs[i]);
    return n;
  }
  /// True while a partially-written frame sits in the endpoint's internal
  /// buffer; the reactor polls writability and calls flush_writes() until
  /// it drains before submitting more messages.
  virtual bool wants_write() const { return false; }
  /// Push buffered write bytes; true = fully drained.
  virtual bool flush_writes() { return true; }
};

using EndpointPtr = std::unique_ptr<Endpoint>;

/// A connected pair of in-process endpoints.
std::pair<EndpointPtr, EndpointPtr> make_channel_pair();

}  // namespace hdsm::msg

// SessionShell: the home directory's transport shell.
//
// It owns the session machinery — the three-phase re-attach discipline
// (wait out the active window, reap the old incarnation, install the new
// one) and attach-generation filtering of stale transport events — keyed by
// rank: one session is one remote's connection to the home.
//
// Sessions are peers of one shared `msg::Reactor` (docs/TRANSPORT.md): one
// io thread multiplexes every endpoint and runs the callbacks inline, and
// sends are asynchronous (failures surface as the session's closed
// callback, never as a send error).  One thread running every callback
// serializes them.
//
// Callback contract: on_message / on_closed are invoked with NO shell lock
// held; implementations take their own state locks and may call handle(),
// send(), and close_session() from inside.  They must NOT call
// retire_session(), install_session(), start_session(), or stop() (those
// wait on the very thread the callbacks run on).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "msg/endpoint.hpp"
#include "msg/reactor.hpp"

namespace hdsm::obs {
class Telemetry;
}

namespace hdsm::dsm {

class SessionShell {
 public:
  struct Callbacks {
    std::function<void(std::uint32_t rank, msg::Message&&)> on_message;
    /// The session's transport is gone (close, EOF, send failure, slow-
    /// consumer eviction).  Delivered once per installed incarnation, after
    /// its last on_message.
    std::function<void(std::uint32_t rank)> on_closed;
  };

  /// A send target captured under the caller's state lock, used after it is
  /// released: pins the exact session incarnation, so a message routed to a
  /// rank that re-attaches mid-flight still goes to (or dies with) the old
  /// transport instead of leaking into the new one.
  struct SendHandle {
    bool valid = false;
    msg::PeerId peer = 0;  ///< carries the incarnation's generation
  };

  /// `telemetry` may be null; it must outlive the shell.
  SessionShell(Callbacks cbs, obs::Telemetry* telemetry);
  ~SessionShell();  // stop()s

  SessionShell(const SessionShell&) = delete;
  SessionShell& operator=(const SessionShell&) = delete;

  // -- The three-phase attach discipline.  Caller holds its state lock for
  //    install/start (so no message precedes its peer_attached transition)
  //    but NOT for retire (which waits on the callback thread). --

  /// Phase 2: close the previous incarnation's transport (if any) and wait
  /// until its closed event was fully delivered.
  void retire_session(std::uint32_t rank);
  /// Phase 3a: adopt `ep` as the session's new transport (generation
  /// bumps); nothing is received until start_session.
  void install_session(std::uint32_t rank,
                       std::shared_ptr<msg::Endpoint> ep);
  /// Phase 3b: begin receiving (register the reactor peer).
  void start_session(std::uint32_t rank);

  /// Capture the current incarnation as a send target (invalid handle if
  /// the session is unknown).  Cheap; callable under the caller's lock.
  SendHandle handle(std::uint32_t rank) const;

  /// Send on a captured handle, outside the caller's state lock.  Sends
  /// are asynchronous: failures arrive as on_closed.  Invalid handles drop
  /// silently.
  void send(const SendHandle& h, msg::Message m);

  /// Close the session's transport (Detach action).  Asynchronous; safe
  /// under the caller's state lock.
  void close_session(std::uint32_t rank);

  /// Close every session and stop all shell threads (idempotent).  Pending
  /// received messages and closed events still deliver first.  Do not call
  /// while holding a lock the callbacks take.
  void stop();

  /// Settle in-flight transport events: asynchronous sends attempted and
  /// any resulting closed callbacks delivered.  Call before answering
  /// liveness queries; never from inside a callback or under a lock the
  /// callbacks take.
  void quiesce();

  /// Reactor transport counters.
  msg::ReactorStats reactor_stats() const;

 private:
  struct Session {
    std::uint32_t rank = 0;
    std::shared_ptr<msg::Endpoint> endpoint;
    /// Bumped per install; stale-incarnation filter for sends and closes.
    std::uint32_t gen = 0;
    /// Highest generation whose closed event has fully delivered
    /// (bookkeeping for retire_session).
    std::uint32_t closed_gen = 0;
    bool started = false;
  };

  struct ReactorBridge final : msg::ReactorHandler {
    SessionShell* shell = nullptr;
    void on_message(msg::PeerId peer, msg::Message&& m) override;
    void on_peer_closed(msg::PeerId peer) override;
  };

  void reactor_closed(std::uint32_t gen, std::uint32_t rank);
  /// Close a session's transport; call with mu_ held.
  void close_locked(Session& s);

  Callbacks cbs_;
  ReactorBridge bridge_;
  std::unique_ptr<msg::Reactor> reactor_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint32_t, std::shared_ptr<Session>> sessions_;  ///< by rank
  bool stopped_ = false;
};

}  // namespace hdsm::dsm

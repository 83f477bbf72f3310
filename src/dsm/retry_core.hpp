// The client-side counterpart of the coherence core: the retry/backoff
// policy of a remote thread's request/reply loop as a pure, unit-steppable
// decision machine.  `ShardedRemote::rpc` (sharded_remote.cpp) is only the
// driver — it sends, receives, sleeps, and dials; every *decision* (deliver,
// drop a stale reply, retransmit and with what window, reconnect, give up)
// is a transition of this class, reachable from a test without a clock or
// an endpoint.  The jitter RNG lives here and is seeded deterministically, so
// a policy's full timeout schedule can be asserted exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>

namespace hdsm::dsm {

/// Per-request timeout/backoff schedule.  Attempt k waits
/// `min(timeout * backoff^k, max_timeout)`, each wait scaled by a seeded
/// uniform jitter in [0.9, 1.1] so a cluster of remotes does not retry in
/// lockstep.  Defaults give ~1+2+4+8+8+8+8 s ≈ 39 s of patience.
struct RetryPolicy {
  std::chrono::milliseconds timeout{1000};  ///< first reply wait
  double backoff = 2.0;                     ///< wait growth per retry
  std::chrono::milliseconds max_timeout{8000};  ///< wait ceiling
  std::uint32_t max_retries = 6;  ///< retransmissions before giving up
  std::uint64_t seed = 0;         ///< jitter seed (0 = derive from rank)
};

class RetryCore {
 public:
  enum class Op : std::uint8_t {
    Wait,           ///< receive until `wait` elapses from now
    Deliver,        ///< the reply matches: hand it to the caller
    Drop,           ///< stale duplicate reply: discard, keep the deadline
    ProtocolError,  ///< reply type mismatch: the session is broken
    Retransmit,     ///< resend the identical request; new window = `wait`
    Reconnect,      ///< transport died: dial again (one credit burned)
    GiveUp,         ///< budget exhausted: detach and raise HomeUnreachable
  };

  struct Decision {
    Op op = Op::Wait;
    /// Receive window for Wait/Retransmit (already jittered); zero for the
    /// other ops.
    std::chrono::milliseconds wait{0};
  };

  /// `can_reconnect` mirrors whether the shell has a reconnect hook; a
  /// core without one answers every channel death with GiveUp.
  RetryCore(RetryPolicy policy, std::uint32_t rank, bool can_reconnect,
            std::uint32_t max_reconnects);

  /// Start a request numbered `seq`; resets the attempt counter and the
  /// backoff window (the reconnect budget persists across requests, as the
  /// transport does).  Returns Wait with the first receive window.
  Decision begin(std::uint32_t seq);

  /// A reply arrived inside the window.  `reply_seq` is its echoed request
  /// number, `type_matches` whether its MsgType is the one awaited.
  /// Returns Deliver, Drop (stale — keep receiving against the same
  /// deadline), or ProtocolError.
  Decision classify_reply(std::uint32_t reply_seq, bool type_matches) const;

  /// The receive window elapsed with no deliverable reply.  Returns
  /// Retransmit with the next (backed-off, jittered) window, or GiveUp
  /// when the retry budget is spent.
  Decision on_timeout();

  /// The transport raised ChannelClosed (send or receive).  Returns
  /// Reconnect (burning one credit) or GiveUp.
  Decision on_channel_closed();

  /// The shell's dial attempt failed.  Returns Reconnect to try again
  /// (burning another credit) or GiveUp.
  Decision on_reconnect_failed();

  /// The shell dialed successfully (and resumed the session).  Returns
  /// Retransmit: the outstanding request goes out again on the fresh
  /// transport, with the current (not reset) backoff window.
  Decision on_reconnected();

  std::uint32_t attempts() const noexcept { return attempt_ + 1; }
  std::uint32_t reconnects_used() const noexcept { return reconnects_used_; }
  std::uint32_t seq() const noexcept { return seq_; }

 private:
  std::chrono::milliseconds jittered_window();

  RetryPolicy policy_;
  bool can_reconnect_;
  std::uint32_t max_reconnects_;
  std::mt19937_64 jitter_rng_;
  std::uint32_t seq_ = 0;
  std::uint32_t attempt_ = 0;
  std::chrono::milliseconds wait_{0};
  std::uint32_t reconnects_used_ = 0;
};

}  // namespace hdsm::dsm

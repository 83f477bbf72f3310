#include "dsm/retry_core.hpp"

#include <algorithm>

namespace hdsm::dsm {

namespace {

/// ± fraction applied to each wait.
constexpr double kJitter = 0.1;

std::uint64_t jitter_seed(const RetryPolicy& p, std::uint32_t rank) {
  // Distinct per-rank default so a cluster constructed with identical
  // options still desynchronizes its retry schedules.
  return p.seed != 0 ? p.seed : 0x726574727921ull + rank;
}

}  // namespace

RetryCore::RetryCore(RetryPolicy policy, std::uint32_t rank,
                     bool can_reconnect, std::uint32_t max_reconnects)
    : policy_(policy),
      can_reconnect_(can_reconnect),
      max_reconnects_(max_reconnects),
      jitter_rng_(jitter_seed(policy, rank)) {}

std::chrono::milliseconds RetryCore::jittered_window() {
  std::uniform_real_distribution<double> jitter(1.0 - kJitter, 1.0 + kJitter);
  return std::chrono::milliseconds(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(wait_.count()) *
                                   jitter(jitter_rng_))));
}

RetryCore::Decision RetryCore::begin(std::uint32_t seq) {
  seq_ = seq;
  attempt_ = 0;
  wait_ = policy_.timeout;
  return {Op::Wait, jittered_window()};
}

RetryCore::Decision RetryCore::classify_reply(std::uint32_t reply_seq,
                                              bool type_matches) const {
  if (reply_seq != 0 && reply_seq < seq_) {
    // Stale reply to a retransmitted earlier request.
    return {Op::Drop, {}};
  }
  if (!type_matches) return {Op::ProtocolError, {}};
  return {Op::Deliver, {}};
}

RetryCore::Decision RetryCore::on_timeout() {
  if (attempt_ >= policy_.max_retries) return {Op::GiveUp, {}};
  ++attempt_;
  wait_ = std::min(
      std::chrono::milliseconds(static_cast<std::int64_t>(
          static_cast<double>(wait_.count()) * policy_.backoff)),
      policy_.max_timeout);
  return {Op::Retransmit, jittered_window()};
}

RetryCore::Decision RetryCore::on_channel_closed() {
  if (!can_reconnect_ || reconnects_used_ >= max_reconnects_) {
    return {Op::GiveUp, {}};
  }
  ++reconnects_used_;
  return {Op::Reconnect, {}};
}

RetryCore::Decision RetryCore::on_reconnect_failed() {
  if (reconnects_used_ >= max_reconnects_) return {Op::GiveUp, {}};
  ++reconnects_used_;
  return {Op::Reconnect, {}};
}

RetryCore::Decision RetryCore::on_reconnected() {
  // The outstanding request is retransmitted on the fresh transport with
  // the current backoff window — the attempt counter is not reset (the
  // home may be the thing that is sick, not just the wire).
  return {Op::Retransmit, jittered_window()};
}

}  // namespace hdsm::dsm

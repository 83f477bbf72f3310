#include "dsm/sharded_remote.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "msg/message.hpp"

namespace hdsm::dsm {

namespace {

std::uint32_t incarnation_epoch(std::uint32_t rank) {
  // Nonzero nonce distinguishing this incarnation of `rank` from any
  // earlier one (thread churn, migration): clock + process-wide counter,
  // mixed so successive incarnations never repeat an epoch.
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t h = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  h += (static_cast<std::uint64_t>(rank) << 20) +
       counter.fetch_add(1, std::memory_order_relaxed);
  h *= 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
  const auto epoch = static_cast<std::uint32_t>(h);
  return epoch == 0 ? 1u : epoch;
}

}  // namespace

ShardedRemote::ShardedRemote(tags::TypePtr gthv,
                             const plat::PlatformDesc& platform,
                             std::uint32_t rank, msg::EndpointPtr endpoint,
                             ShardedRemoteOptions opts)
    : space_(gthv, platform),
      telemetry_(opts.obs.enabled ? std::make_unique<obs::Telemetry>(opts.obs)
                                  : nullptr),
      engine_(space_, opts.dsd, stats_),
      rank_(rank),
      epoch_(incarnation_epoch(rank)),
      opts_(std::move(opts)),
      endpoint_(std::move(endpoint)),
      retry_(opts_.retry, rank_, opts_.reconnect != nullptr,
             opts_.max_reconnects) {
  if (!endpoint_) {
    throw std::invalid_argument("remote needs an endpoint to the home");
  }
  engine_.set_trace(opts_.trace, rank_);
  engine_.set_obs(telemetry_.get());
  if (telemetry_) {
    telemetry_->set_thread_label("rank" + std::to_string(rank_));
  }
  try {
    send_hello(/*resume=*/false);
  } catch (const msg::ChannelClosed&) {
    // Nothing was sent yet (send_seq_ == 0), so the resume Hello a redial
    // sends still announces a fresh incarnation.
    if (!try_reconnect()) {
      detach_self();
      throw HomeUnreachable("remote rank " + std::to_string(rank_) +
                            ": transport closed before the Hello and "
                            "reconnect exhausted");
    }
  }
  engine_.start_tracking();
}

ShardedRemote::ShardedRemote(tags::TypePtr gthv,
                             const plat::PlatformDesc& platform,
                             std::uint32_t rank, msg::EndpointPtr endpoint,
                             SyncOptions opts)
    : ShardedRemote(gthv, platform, rank, std::move(endpoint),
                    ShardedRemoteOptions{.dsd = opts}) {}

ShardedRemote::~ShardedRemote() {
  engine_.stop_tracking();
  if (endpoint_) endpoint_->close();
}

void ShardedRemote::send_hello(bool resume) {
  msg::Message hello;
  hello.type = msg::MsgType::Hello;
  hello.rank = rank_;
  // seq 0 announces a fresh incarnation; a reconnect Hello echoes the
  // current seq so the home keeps this rank's dedup state.
  hello.seq = resume ? send_seq_ : 0;
  hello.sync_id = epoch_;
  hello.sender = msg::PlatformSummary::of(space_.platform());
  hello.tag = space_.image_tag_text();
  endpoint_->send(hello);
}

void ShardedRemote::trace(TraceEvent::Kind kind, std::uint32_t sync_id,
                          std::uint64_t req) {
  if (opts_.trace) opts_.trace->append(kind, rank_, sync_id, 0, 0, req);
}

void ShardedRemote::detach_self() {
  detached_ = true;
  engine_.stop_tracking();
  if (endpoint_) endpoint_->close();
  trace(TraceEvent::Kind::TimeoutDetached, 0, send_seq_);
}

bool ShardedRemote::try_reconnect() {
  RetryCore::Decision d = retry_.on_channel_closed();
  while (d.op == RetryCore::Op::Reconnect) {
    try {
      msg::EndpointPtr fresh = opts_.reconnect();
      if (fresh) {
        if (endpoint_) endpoint_->close();
        endpoint_ = std::move(fresh);
        ++stats_.reconnects;
        trace(TraceEvent::Kind::Reconnected, 0, send_seq_);
        if (telemetry_) telemetry_->event(obs::SpanKind::Reconnect, send_seq_);
        send_hello(/*resume=*/true);
        return true;
      }
    } catch (const std::exception&) {
      // Dial failed; the credit is burned, the core decides what remains.
    }
    d = retry_.on_reconnect_failed();
  }
  return false;
}

msg::Message ShardedRemote::rpc(msg::Message req, msg::MsgType want) {
  if (detached_) {
    throw HomeUnreachable("remote rank " + std::to_string(rank_) +
                          ": already detached");
  }
  req.seq = ++send_seq_;
  req.rank = rank_;
  req.sender = msg::PlatformSummary::of(space_.platform());
  obs::SpanScope reply_wait(telemetry_.get(), obs::SpanKind::ReplyWait,
                            req.seq);

  RetryCore::Decision d = retry_.begin(req.seq);
  bool need_send = true;
  for (;;) {
    bool channel_died = false;
    std::optional<msg::Message> delivered;
    try {
      if (need_send) {
        // Payload-bearing sends double as bandwidth probes for the codec
        // cost model; small control messages are too noisy to be useful.
        if (req.payload.size() >= SyncEngine::kWireProbeMinBytes) {
          const std::uint64_t t0 = obs::ScopedTimer::now_ns();
          endpoint_->send(req);
          engine_.note_wire(req.wire_size(),
                            obs::ScopedTimer::now_ns() - t0);
        } else {
          endpoint_->send(req);
        }
        need_send = false;
      }
      const auto deadline = std::chrono::steady_clock::now() + d.wait;
      for (;;) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        msg::Message m;
        if (!endpoint_->recv_for(
                m, std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - now))) {
          break;
        }
        const RetryCore::Decision r =
            retry_.classify_reply(m.seq, m.type == want);
        if (r.op == RetryCore::Op::Drop) {
          ++stats_.duplicates_dropped;
          trace(TraceEvent::Kind::DuplicateDropped, m.sync_id, m.seq);
          continue;
        }
        if (r.op == RetryCore::Op::ProtocolError) {
          throw std::logic_error(std::string("remote: expected ") +
                                 msg::msg_type_name(want) + ", got " +
                                 msg::msg_type_name(m.type));
        }
        delivered = std::move(m);
        break;
      }
    } catch (const msg::ChannelClosed&) {
      channel_died = true;
    }
    if (delivered) return *std::move(delivered);
    if (channel_died) {
      if (!try_reconnect()) {
        detach_self();
        throw HomeUnreachable("remote rank " + std::to_string(rank_) +
                              ": transport closed and reconnect exhausted");
      }
      d = retry_.on_reconnected();
      need_send = true;
      continue;
    }
    ++stats_.timeouts;
    d = retry_.on_timeout();
    if (d.op == RetryCore::Op::GiveUp) {
      detach_self();
      throw HomeUnreachable(
          "remote rank " + std::to_string(rank_) + ": no reply to " +
          msg::msg_type_name(req.type) + " #" + std::to_string(req.seq) +
          " after " + std::to_string(retry_.attempts()) + " attempts");
    }
    ++stats_.retries;
    trace(TraceEvent::Kind::RetrySent, req.sync_id, req.seq);
    if (telemetry_) telemetry_->event(obs::SpanKind::Retry, req.seq);
    need_send = true;
  }
}

void ShardedRemote::lock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  msg::Message req;
  req.type = msg::MsgType::LockRequest;
  req.sync_id = index;
  const msg::Message grant = rpc(std::move(req), msg::MsgType::LockGrant);
  engine_.apply_payload(grant.payload, grant.sender);
  ++stats_.locks;
}

void ShardedRemote::unlock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  msg::Message req;
  req.type = msg::MsgType::UnlockRequest;
  req.sync_id = index;
  // Collect exactly once: retransmits must carry the same payload, not a
  // fresh (empty) one.
  req.payload = engine_.pack_payload(engine_.collect_runs(index));
  rpc(std::move(req), msg::MsgType::UnlockAck);
  ++stats_.unlocks;
}

void ShardedRemote::barrier(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  msg::Message enter;
  enter.type = msg::MsgType::BarrierEnter;
  enter.sync_id = index;
  enter.payload = engine_.pack_payload(engine_.collect_runs(kAllRegions));
  const msg::Message release =
      rpc(std::move(enter), msg::MsgType::BarrierRelease);
  engine_.apply_payload(release.payload, release.sender);
  ++stats_.barriers;
}

void ShardedRemote::join() {
  if (joined_ || detached_) return;
  if (telemetry_) pull_cluster_metrics();
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode);
  msg::Message req;
  req.type = msg::MsgType::JoinRequest;
  req.payload = engine_.pack_payload(engine_.collect_runs(kAllRegions));
  rpc(std::move(req), msg::MsgType::JoinAck);
  engine_.stop_tracking();
  joined_ = true;
}

obs::ClusterTelemetry ShardedRemote::pull_cluster_metrics() {
  obs::SpanScope scrape(telemetry_.get(), obs::SpanKind::Scrape);
  obs::NodeSnapshot snap;
  snap.rank = rank_;
  snap.epoch = epoch_;
  if (telemetry_) snap.metrics = telemetry_->metrics();
  append_share_stats(snap.metrics, stats_);

  msg::Message req;
  req.type = msg::MsgType::MetricsPull;
  snap.serialize(req.payload);

  const msg::Message reply = rpc(std::move(req), msg::MsgType::MetricsReport);
  obs::ClusterTelemetry view;
  if (!obs::ClusterTelemetry::deserialize(reply.payload.data(),
                                          reply.payload.size(), view)) {
    throw std::runtime_error("remote rank " + std::to_string(rank_) +
                             ": malformed MetricsReport payload");
  }
  return view;
}

}  // namespace hdsm::dsm

#include "dsm/sharded_remote.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "dsm/update.hpp"
#include "msg/message.hpp"

namespace hdsm::dsm {

namespace {

/// A redirect loop longer than this means the map is thrashing faster than
/// the remote can chase it (or the directory is broken): give up like a
/// retry-budget exhaustion rather than spinning forever.
constexpr int kMaxRedirectHops = 64;

/// How long to back off before re-asking when a bounce names no new owner
/// (the migration handoff window is open).
constexpr auto kHandoffBackoff = std::chrono::microseconds(200);

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
                             std::uint32_t rank,
                             std::vector<msg::EndpointPtr> endpoints,
                             ShardedRemoteOptions opts)
    : space_(gthv, platform),
      telemetry_(opts.obs.enabled ? std::make_unique<obs::Telemetry>(opts.obs)
                                  : nullptr),
      engine_(space_, opts.dsd, stats_),
      rank_(rank),
      epoch_(incarnation_epoch(rank)),
      opts_(std::move(opts)),
      map_(static_cast<std::uint32_t>(endpoints.size())) {
  if (endpoints.empty()) {
    throw std::invalid_argument("sharded remote needs at least one endpoint");
  }
  engine_.set_trace(opts_.trace, rank_);
  engine_.set_obs(telemetry_.get());
  if (telemetry_) {
    telemetry_->set_thread_label("rank" + std::to_string(rank_));
  }
  sessions_.reserve(endpoints.size());
  for (msg::EndpointPtr& ep : endpoints) {
    sessions_.push_back(Session{
        std::move(ep), RetryCore(opts_.retry, rank_,
                                 opts_.reconnect != nullptr,
                                 opts_.max_reconnects)});
  }
  for (std::uint32_t s = 0; s < sessions_.size(); ++s) {
    send_hello(s, /*resume=*/false);
  }
  // Object mode (docs/OBJECTS.md): dirty objects are tracked by the
  // ObjectSpace, not mprotect faults — page-twin tracking never arms.
  if (!opts_.run_source) space_.region().begin_tracking();
}

ShardedRemote::ShardedRemote(tags::TypePtr gthv,
                             const plat::PlatformDesc& platform,
                             std::uint32_t rank,
                             std::vector<msg::EndpointPtr> endpoints,
                             SyncOptions opts)
    : ShardedRemote(gthv, platform, rank, std::move(endpoints),
                    ShardedRemoteOptions{.dsd = opts}) {}

ShardedRemote::~ShardedRemote() {
  if (space_.region().tracking()) space_.region().end_tracking();
  for (Session& s : sessions_) {
    if (s.endpoint) s.endpoint->close();
  }
}

void ShardedRemote::send_hello(std::uint32_t shard, bool resume) {
  msg::Message hello;
  hello.type = msg::MsgType::Hello;
  hello.rank = rank_;
  // seq 0 announces a fresh incarnation; a reconnect Hello echoes the
  // current (global) seq so the shard keeps this rank's dedup state.
  hello.seq = resume ? send_seq_ : 0;
  hello.sync_id = epoch_;
  hello.sender = msg::PlatformSummary::of(space_.platform());
  hello.tag = space_.image_tag_text();
  sessions_[shard].endpoint->send(hello);
}

void ShardedRemote::trace(TraceEvent::Kind kind, std::uint32_t sync_id,
                          std::uint64_t req) {
  if (opts_.trace) opts_.trace->append(kind, rank_, sync_id, 0, 0, req);
}

void ShardedRemote::detach_self() {
  detached_ = true;
  if (space_.region().tracking()) space_.region().end_tracking();
  for (Session& s : sessions_) {
    if (s.endpoint) s.endpoint->close();
  }
  trace(TraceEvent::Kind::TimeoutDetached, 0, send_seq_);
}

bool ShardedRemote::try_reconnect(std::uint32_t shard) {
  Session& session = sessions_[shard];
  RetryCore::Decision d = session.retry.on_channel_closed();
  while (d.op == RetryCore::Op::Reconnect) {
    try {
      msg::EndpointPtr fresh = opts_.reconnect(shard);
      if (fresh) {
        if (session.endpoint) session.endpoint->close();
        session.endpoint = std::move(fresh);
        ++stats_.reconnects;
        trace(TraceEvent::Kind::Reconnected, shard, send_seq_);
        if (telemetry_) telemetry_->event(obs::SpanKind::Reconnect, send_seq_);
        send_hello(shard, /*resume=*/true);
        return true;
      }
    } catch (const std::exception&) {
      // Dial failed; the credit is burned, the core decides what remains.
    }
    d = session.retry.on_reconnect_failed();
  }
  return false;
}

msg::Message ShardedRemote::rpc(std::uint32_t shard, msg::Message req,
                                msg::MsgType want, bool allow_redirect) {
  if (detached_) {
    throw HomeUnreachable("remote rank " + std::to_string(rank_) +
                          ": already detached");
  }
  Session& session = sessions_[shard];
  req.seq = ++send_seq_;  // one sequence across all shard sessions
  req.rank = rank_;
  req.sender = msg::PlatformSummary::of(space_.platform());
  obs::SpanScope reply_wait(telemetry_.get(), obs::SpanKind::ReplyWait,
                            req.seq);

  RetryCore::Decision d = session.retry.begin(req.seq);
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
          session.endpoint->send(req);
          engine_.note_wire(req.wire_size(),
                            obs::ScopedTimer::now_ns() - t0);
        } else {
          session.endpoint->send(req);
        }
        need_send = false;
      }
      const auto deadline = std::chrono::steady_clock::now() + d.wait;
      for (;;) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        msg::Message m;
        if (!session.endpoint->recv_for(
                m, std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - now))) {
          break;
        }
        // A WrongShard bounce is shell-level and unsequenced: intercept it
        // before RetryCore sees the type mismatch.  Only the echo of the
        // *current* attempt is a live redirect; stale ones (an earlier
        // attempt bounced after we already rerouted) are duplicates.
        if (m.type == msg::MsgType::WrongShard) {
          if (allow_redirect && m.seq == req.seq) {
            delivered = std::move(m);
            break;
          }
          ++stats_.duplicates_dropped;
          trace(TraceEvent::Kind::DuplicateDropped, m.sync_id, m.seq);
          continue;
        }
        const RetryCore::Decision r =
            session.retry.classify_reply(m.seq, m.type == want);
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
      if (!try_reconnect(shard)) {
        detach_self();
        throw HomeUnreachable("remote rank " + std::to_string(rank_) +
                              ": shard " + std::to_string(shard) +
                              " transport closed and reconnect exhausted");
      }
      d = session.retry.on_reconnected();
      need_send = true;
      continue;
    }
    ++stats_.timeouts;
    d = session.retry.on_timeout();
    if (d.op == RetryCore::Op::GiveUp) {
      detach_self();
      throw HomeUnreachable(
          "remote rank " + std::to_string(rank_) + ": no reply to " +
          msg::msg_type_name(req.type) + " #" + std::to_string(req.seq) +
          " from shard " + std::to_string(shard) + " after " +
          std::to_string(session.retry.attempts()) + " attempts");
    }
    ++stats_.retries;
    trace(TraceEvent::Kind::RetrySent, req.sync_id, req.seq);
    if (telemetry_) telemetry_->event(obs::SpanKind::Retry, req.seq);
    need_send = true;
  }
}

msg::Message ShardedRemote::routed_rpc(msg::Message req, msg::MsgType want) {
  // `aux` stays 0 until the first bounce; after it, every re-issue carries
  // the first bounced attempt's seq so the (eventual) owner can find the
  // reply that may have migrated over with the region.
  std::uint32_t first_bounce_seq = 0;
  // Only bounces that teach us nothing count against the thrash budget: a
  // redirect carrying a genuinely newer map is progress (the region is
  // migrating under us and we are chasing it), and a long-queued waiter can
  // legitimately be rerouted many times while it waits.  The generous total
  // cap is a backstop against a truly broken directory.
  int stale_hops = 0;
  for (int hop = 0; hop < 64 * kMaxRedirectHops; ++hop) {
    const std::uint32_t shard = map_.shard_of(req.sync_id);
    req.map_epoch = map_.epoch();  // advisory: lets the home spot staleness
    req.aux = first_bounce_seq;
    msg::Message reply = rpc(shard, req, want, /*allow_redirect=*/true);
    if (reply.type != msg::MsgType::WrongShard) return reply;
    ++stats_.wrong_shard_redirects;
    if (first_bounce_seq == 0) first_bounce_seq = reply.seq;
    std::optional<ShardMap> fresh =
        ShardMap::deserialize(reply.payload.data(), reply.payload.size());
    const bool newer = fresh && fresh->epoch() > map_.epoch();
    if (newer) map_ = *std::move(fresh);
    if (!newer || map_.shard_of(req.sync_id) == shard) {
      // No new owner yet — a migration handoff window is open (every
      // shard bounces this region until the import lands).  Back off
      // briefly; the next hop re-reads the (possibly updated) map.
      if (++stale_hops >= kMaxRedirectHops) break;
      std::this_thread::sleep_for(kHandoffBackoff);
    } else {
      stale_hops = 0;
    }
  }
  detach_self();
  throw HomeUnreachable("remote rank " + std::to_string(rank_) +
                        ": region " + std::to_string(req.sync_id) +
                        " redirect hops exhausted (map thrashing?)");
}

void ShardedRemote::drain_pending(std::uint32_t mask) {
  if (sessions_.size() <= 1) return;
  const std::uint32_t all =
      sessions_.size() >= 32
          ? 0xffffffffu
          : ((1u << static_cast<std::uint32_t>(sessions_.size())) - 1u);
  std::uint32_t to_drain = mask & all;
  std::uint32_t drained = 0;
  // Each PendingReply may flag shards that gained pending since the grant
  // was stamped; fold those in, but pull each shard at most once per
  // acquire — the loop is bounded by num_shards.
  while ((to_drain & ~drained) != 0) {
    const std::uint32_t pending_bits = to_drain & ~drained;
    for (std::uint32_t s = 0; s < sessions_.size(); ++s) {
      if ((pending_bits & (1u << s)) == 0) continue;
      msg::Message req;
      req.type = msg::MsgType::PendingPull;
      req.map_epoch = map_.epoch();
      const msg::Message reply =
          rpc(s, std::move(req), msg::MsgType::PendingReply,
              /*allow_redirect=*/false);
      drained |= 1u << s;
      to_drain |= reply.aux & all;
      if (space_.region().dirty_pages().empty()) {
        engine_.apply_payload_bulk(reply.payload, reply.sender);
      } else {
        engine_.apply_payload(reply.payload, reply.sender);
      }
    }
  }
}

std::vector<std::byte> ShardedRemote::collect_episode(std::uint32_t region) {
  // Page mode diffs the tracked region; object mode asks the ObjectSpace
  // for exactly the dirty objects' runs (scoped to `region` on unlock,
  // everything on barrier/join) and stages the object count so the pack
  // episode's adaptive Signal and the object ShareStats counters see it.
  if (!opts_.run_source) return engine_.collect_payload();
  ObjectRuns obj = opts_.run_source(region);
  engine_.stage_episode_objects(obj.objects);
  return engine_.pack_payload(obj.runs);
}

void ShardedRemote::lock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  msg::Message req;
  req.type = msg::MsgType::LockRequest;
  req.sync_id = index;
  const msg::Message grant =
      routed_rpc(std::move(req), msg::MsgType::LockGrant);
  if (space_.region().dirty_pages().empty()) {
    engine_.apply_payload_bulk(grant.payload, grant.sender);
  } else {
    engine_.apply_payload(grant.payload, grant.sender);
  }
  // The grant carried only the granting shard's pending set; complete the
  // acquire by draining every other shard it flagged.
  drain_pending(grant.aux);
  ++stats_.locks;
}

void ShardedRemote::unlock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  msg::Message req;
  req.type = msg::MsgType::UnlockRequest;
  req.sync_id = index;
  // Collect exactly once: retransmits and redirected re-issues must carry
  // the same payload, not a fresh (empty) one.
  req.payload = collect_episode(index);
  routed_rpc(std::move(req), msg::MsgType::UnlockAck);
  ++stats_.unlocks;
}

void ShardedRemote::barrier(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  msg::Message enter;
  enter.type = msg::MsgType::BarrierEnter;
  enter.sync_id = index;
  enter.payload = collect_episode(kAllRegions);
  const msg::Message release =
      routed_rpc(std::move(enter), msg::MsgType::BarrierRelease);
  engine_.apply_payload_bulk(release.payload, release.sender);
  drain_pending(release.aux);
  ++stats_.barriers;
}

void ShardedRemote::join() {
  if (joined_ || detached_) return;
  if (telemetry_) pull_cluster_metrics();
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode);
  // Final writes ship to shard 0 (the shared image makes any shard
  // equivalent; 0 is the convention).  Then leave every other shard with
  // an empty JoinRequest so each directory slice retires this rank.
  msg::Message req;
  req.type = msg::MsgType::JoinRequest;
  req.payload = collect_episode(kAllRegions);
  rpc(0, std::move(req), msg::MsgType::JoinAck, /*allow_redirect=*/false);
  for (std::uint32_t s = 1; s < sessions_.size(); ++s) {
    msg::Message leave;
    leave.type = msg::MsgType::JoinRequest;
    // A well-formed zero-block update set: the core decodes every join
    // payload, and these sessions have nothing left to ship.
    leave.payload = encode_update_blocks({});
    rpc(s, std::move(leave), msg::MsgType::JoinAck, /*allow_redirect=*/false);
  }
  if (space_.region().tracking()) space_.region().end_tracking();
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
  std::vector<std::uint8_t> body;
  snap.serialize(body);
  const std::byte* b = reinterpret_cast<const std::byte*>(body.data());
  req.payload.assign(b, b + body.size());

  const msg::Message reply =
      rpc(0, std::move(req), msg::MsgType::MetricsReport,
          /*allow_redirect=*/false);
  obs::ClusterTelemetry view;
  if (!obs::ClusterTelemetry::deserialize(
          reinterpret_cast<const std::uint8_t*>(reply.payload.data()),
          reply.payload.size(), view)) {
    throw std::runtime_error("remote rank " + std::to_string(rank_) +
                             ": malformed MetricsReport payload");
  }
  return view;
}

}  // namespace hdsm::dsm

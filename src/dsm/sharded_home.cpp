#include "dsm/sharded_home.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace hdsm::dsm {

namespace {

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// A master wait the home can no longer satisfy: stop() ended the sessions
/// (e.g. a cluster run stopping the home after a rank died), so the grant
/// or barrier release it waits for will never come.
[[noreturn]] void throw_stopped(const char* what, std::uint32_t index) {
  throw std::runtime_error("home stopped while the master waited on " +
                           std::string(what) + " " + std::to_string(index));
}

}  // namespace

// ---- the shared data plane -------------------------------------------------

// Busy time is measured from before the mutex acquisition: time spent
// queueing for the shared engine is contention this shard's request stream
// caused, so the rebalancer should see it.

std::vector<std::byte> ShardedHome::LockingCodec::pack(
    const std::vector<idx::UpdateRun>& runs) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(engine_mutex);
  std::vector<std::byte> out = engine.pack_payload(runs);
  busy_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
  return out;
}

std::vector<idx::UpdateRun> ShardedHome::LockingCodec::apply(
    const std::vector<std::byte>& payload, const msg::PlatformSummary& sender) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(engine_mutex);
  std::vector<idx::UpdateRun> out = engine.apply_payload(payload, sender);
  busy_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
  return out;
}

// ---- construction ----------------------------------------------------------

namespace {

CoherenceConfig shard_core_config(const ShardedHomeOptions& opts,
                                  const GlobalSpace& space,
                                  obs::Telemetry* telemetry,
                                  std::uint32_t shard) {
  CoherenceConfig cfg;
  cfg.num_locks = opts.num_locks;
  cfg.num_barriers = opts.num_barriers;
  cfg.self = msg::PlatformSummary::of(space.platform());
  cfg.image_tag_text = space.image_tag_text();
  cfg.layout_runs = space.table().layout().runs;
  // Shard 0 anchors the cluster scrape: remotes MetricsPull it, and its
  // aggregator keeps their snapshots for cluster_telemetry().
  cfg.telemetry = shard == 0 ? telemetry : nullptr;
  // Object mode (docs/OBJECTS.md): pending sets are strictly scoped to the
  // shard owning their guarding region, so they must travel with it.
  cfg.scoped_pending =
      opts.run_source != nullptr ||
      (opts.scoped_pending && opts.row_region != nullptr);
  return cfg;
}

}  // namespace

ShardedHome::Shard::Shard(std::uint32_t idx, ShardedHome& owner)
    : index(idx),
      codec(owner.engine_, owner.engine_mutex_, busy_ns),
      core(shard_core_config(owner.opts_, owner.space_,
                             owner.telemetry_.get(), idx),
           codec, stats) {
  if (idx < owner.opts_.shard_traces.size()) {
    trace = owner.opts_.shard_traces[idx];
  }
}

ShardedHome::ShardedHome(tags::TypePtr gthv,
                         const plat::PlatformDesc& platform,
                         ShardedHomeOptions opts)
    : opts_(std::move(opts)),
      space_(gthv, platform),
      telemetry_(opts_.obs.enabled
                     ? std::make_unique<obs::Telemetry>(opts_.obs)
                     : nullptr),
      engine_(space_, opts_.dsd, data_stats_),
      map_(opts_.num_shards) {  // validates num_shards (1..kMaxShards)
  epoch_mirror_.store(map_.epoch());
  shards_.reserve(opts_.num_shards);
  for (std::uint32_t s = 0; s < opts_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, *this));
  }
  // Data-plane trace events (rank 0) land in shard 0's log: the engine is
  // shared, so they have no natural shard and the scrape anchor hosts them.
  engine_.set_trace(shards_[0]->trace, kMasterRank);
  engine_.set_obs(telemetry_.get());
  shell_ = std::make_unique<SessionShell>(
      SessionShell::Callbacks{
          [this](std::uint32_t group, std::uint32_t rank, msg::Message&& m) {
            if (rank == kReplSessionRank) {
              // The primary→standby log link (docs/REPLICATION.md): replay
              // and ack, never feed the cores a peer event.
              if (m.type == msg::MsgType::ReplAppend) {
                handle_repl_append(std::move(m));
              }
              return;
            }
            Shard& sh = *shards_[group];
            const bool routed = m.type == msg::MsgType::LockRequest ||
                                m.type == msg::MsgType::UnlockRequest ||
                                m.type == msg::MsgType::BarrierEnter;
            std::unique_lock<std::mutex> lock(sh.mutex);
            if (routed && !owns(group, m.sync_id)) {
              // Stale map (or a migration handoff in flight): never let the
              // wrong core execute this — bounce with the authoritative map.
              bounce(sh, lock, rank, m);
              return;
            }
            process_event(sh, lock,
                          CoherenceEvent::msg_received(rank, std::move(m)));
          },
          [this](std::uint32_t group, std::uint32_t rank) {
            if (rank == kReplSessionRank) return;  // log link died: no peer
            Shard& sh = *shards_[group];
            std::unique_lock<std::mutex> lock(sh.mutex);
            process_event(sh, lock, CoherenceEvent::peer_detached(rank));
          }},
      telemetry_.get());
}

ShardedHome::~ShardedHome() { stop(); }

// ---- attach / lifecycle ----------------------------------------------------

std::vector<msg::EndpointPtr> ShardedHome::attach(std::uint32_t rank) {
  std::vector<msg::EndpointPtr> remote_sides;
  remote_sides.reserve(opts_.num_shards);
  for (std::uint32_t s = 0; s < opts_.num_shards; ++s) {
    auto [home_side, remote_side] = msg::make_channel_pair();
    attach_endpoint(rank, s, std::move(home_side));
    remote_sides.push_back(std::move(remote_side));
  }
  return remote_sides;
}

void ShardedHome::attach_endpoint(std::uint32_t rank, std::uint32_t shard,
                                  msg::EndpointPtr ep) {
  if (rank == kMasterRank) {
    throw std::invalid_argument("rank 0 is the master thread at home");
  }
  if (shard >= opts_.num_shards) {
    throw std::out_of_range("shard " + std::to_string(shard) + " of " +
                            std::to_string(opts_.num_shards));
  }
  Shard& sh = *shards_[shard];
  // A migrating thread re-attaches its rank from the destination node
  // moments after the source detached: wait out that window, then reap the
  // old incarnation outside the state lock (its final closed callback needs
  // the lock on its way out).
  {
    std::unique_lock<std::mutex> lock(sh.mutex);
    if (stopped_.load()) throw std::logic_error("attach after stop()");
    if (!sh.cv.wait_for(lock, std::chrono::seconds(30), [&sh, rank] {
          return !sh.core.peer_active(rank);
        })) {
      throw std::invalid_argument("rank already attached: " +
                                  std::to_string(rank));
    }
  }
  shell_->retire_session(shard, rank);
  {
    std::unique_lock<std::mutex> lock(sh.mutex);
    if (stopped_.load()) throw std::logic_error("attach after stop()");
    shell_->install_session(shard, rank,
                            std::shared_ptr<msg::Endpoint>(std::move(ep)));
    sh.ranks.insert(rank);
    // Only the shard-0 session seeds the full image: the GThV image is
    // shared across shards, so one full-image grant (from whichever shard
    // answers the remote's first acquire — shard 0 by convention) is
    // enough.  Other shards start the rank with an empty pending set.
    // (Object mode scopes the seed per shard instead — see initial_seed.)
    // The event runs between install and start, so no message can observe
    // a half-attached peer.
    process_event(sh, lock,
                  CoherenceEvent::peer_attached(rank, initial_seed(shard)));
    shell_->start_session(shard, rank);
  }
}

std::vector<idx::UpdateRun> ShardedHome::initial_seed(
    std::uint32_t shard) const {
  if (!opts_.row_region) {
    if (shard != 0) return {};
    return SyncEngine::full_image_runs(space_.table());
  }
  // Object mode: a row's pending may only live at the shard owning its
  // guarding region (strict entry consistency), so each shard seeds exactly
  // the rows whose region it owns — the rank's first acquire of each region
  // then carries that region's slice of the initial image.  Unguarded rows
  // ride with shard 0 (only their barrier flushes would ship them anyway).
  std::vector<idx::UpdateRun> seed;
  for (idx::UpdateRun& run : SyncEngine::full_image_runs(space_.table())) {
    const std::uint32_t region = opts_.row_region(run.row);
    const std::uint32_t owner = region == kAllRegions ? 0 : owner_of(region);
    if (owner == shard) seed.push_back(run);
  }
  return seed;
}

void ShardedHome::start() {
  if (telemetry_ != nullptr) telemetry_->set_thread_label("master");
  if (started_.exchange(true)) return;
  // Object mode never arms page-twin tracking: writes are tracked by the
  // ObjectSpace dirty sets, not mprotect faults (docs/OBJECTS.md).
  if (!opts_.run_source) space_.region().begin_tracking();
}

void ShardedHome::stop() {
  if (stopped_.exchange(true)) return;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::unique_lock<std::mutex> lock(sh.mutex);
    sh.core.shutdown();
    sh.cv.notify_all();
  }
  // Close every session and quiesce the shell's threads; their final
  // closed callbacks re-enter the (now released) shard locks.
  shell_->stop();
  if (space_.region().tracking()) space_.region().end_tracking();
}

// ---- map / routing ---------------------------------------------------------

ShardMap ShardedHome::shard_map() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return map_;
}

std::uint32_t ShardedHome::shard_of(std::uint32_t region) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return map_.shard_of(region);
}

std::uint32_t ShardedHome::owner_of(std::uint32_t region) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return map_.shard_of(region);
}

bool ShardedHome::owns(std::uint32_t shard, std::uint32_t region) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return map_.shard_of(region) == shard && importing_.count(region) == 0;
}

void ShardedHome::bounce(Shard& sh, std::unique_lock<std::mutex>& lock,
                         std::uint32_t rank, const msg::Message& m) {
  ++sh.stats.wrong_shard_redirects;
  // Advance this shard's dedup horizon past the bounced attempt: a
  // fault-layer duplicate of it still queued on this session must never
  // execute here once the region migrates (back) to this shard — its
  // re-issue will already have executed at the owner (docs/SHARDING.md).
  sh.core.note_redirected(rank, m.seq);
  // The horizon advance above bypassed step(): replicate it explicitly, or
  // the standby's dedup horizon lags and a fault-layer duplicate of the
  // bounced attempt could execute twice after a failover.
  {
    LogRecord r;
    r.kind = LogRecord::Kind::NoteRedirected;
    r.shard = sh.index;
    r.index = rank;
    r.value = m.seq;
    replicate_record(r);
  }
  if (fenced_.load()) return;
  msg::Message redirect;
  redirect.type = msg::MsgType::WrongShard;
  redirect.sync_id = m.sync_id;
  redirect.rank = kMasterRank;
  // Unsequenced (not reply-cached): echo the bounced request's seq so the
  // remote can match it to its outstanding attempt.
  redirect.seq = m.seq;
  redirect.sender = msg::PlatformSummary::of(space_.platform());
  {
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    redirect.map_epoch = map_.epoch();
    redirect.payload = map_.serialize();
  }
  SessionShell::SendHandle h = shell_->handle(sh.index, rank);
  if (!h.valid) return;
  lock.unlock();
  shell_->send(h, std::move(redirect));
}

// ---- replication: primary side (docs/REPLICATION.md) -----------------------

void ShardedHome::replicate(Shard& sh, const CoherenceEvent& e) {
  LogRecord r;
  r.kind = LogRecord::Kind::Event;
  r.shard = sh.index;
  r.event = e;
  // Master events name update runs whose bytes live only in this image:
  // pack them now (under the shard lock, image unchanged since the step)
  // so the standby can apply the same bytes before replaying the event.
  const bool master_event = e.kind == CoherenceEvent::Kind::MasterUnlock ||
                            e.kind == CoherenceEvent::Kind::MasterBarrier;
  if (master_event && !e.runs.empty()) {
    r.master_payload = sh.codec.pack(e.runs);
    r.master_sender = msg::PlatformSummary::of(space_.platform());
  }
  dispatch_append(r);
}

void ShardedHome::replicate_record(const LogRecord& r) {
  if (opts_.replication == nullptr) return;
  dispatch_append(r);
}

void ShardedHome::dispatch_append(const LogRecord& r) {
  switch (opts_.replication->append(r)) {
    case ReplicationClient::Result::Ok:
    case ReplicationClient::Result::Degraded:
      break;
    case ReplicationClient::Result::Deposed:
      if (!fenced_.exchange(true)) {
        std::fprintf(stderr,
                     "hdsm repl: this primary is deposed; suppressing all "
                     "outgoing sends\n");
      }
      break;
  }
}

// ---- replication: standby side ---------------------------------------------

void ShardedHome::attach_replication(msg::EndpointPtr ep) {
  shell_->retire_session(0, kReplSessionRank);
  shell_->install_session(0, kReplSessionRank,
                          std::shared_ptr<msg::Endpoint>(std::move(ep)));
  shell_->start_session(0, kReplSessionRank);
}

void ShardedHome::handle_repl_append(msg::Message m) {
  msg::Message ack;
  ack.type = msg::MsgType::ReplAck;
  ack.sync_id = m.sync_id;
  ack.rank = kMasterRank;
  ack.seq = m.seq;
  ack.sender = msg::PlatformSummary::of(space_.platform());
  const std::uint32_t fence = repl_fence_epoch_.load();
  if (fence != 0 && m.aux < fence) {
    // A deposed primary is still appending: reject with the fence epoch so
    // it fences itself (split-brain safety).
    ack.aux = fence;
  } else {
    const std::uint32_t last = repl_last_index_.load();
    if (m.seq == last + 1) {
      try {
        replay_record(decode_record(m.payload));
      } catch (const std::exception& ex) {
        // Never ack a record we could not replay: the primary retries, then
        // degrades (availability) or fences (durability) per its options.
        std::fprintf(stderr, "hdsm repl: append #%u rejected: %s\n", m.seq,
                     ex.what());
        return;
      }
      repl_last_index_.store(m.seq);
    } else if (m.seq > last + 1) {
      // A gap is impossible while appends are synchronous; refuse the ack
      // rather than replay out of order.
      std::fprintf(stderr, "hdsm repl: log gap (have %u, got %u)\n", last,
                   m.seq);
      return;
    }
    // m.seq <= last: a retransmit of a replayed record — re-ack only.
  }
  SessionShell::SendHandle h = shell_->handle(0, kReplSessionRank);
  if (!h.valid) return;
  shell_->send(h, std::move(ack));
}

void ShardedHome::replay_record(const LogRecord& r) {
  switch (r.kind) {
    case LogRecord::Kind::Event: {
      if (r.shard >= shards_.size()) {
        throw std::runtime_error("LogRecord: shard out of range");
      }
      Shard& sh = *shards_[r.shard];
      std::unique_lock<std::mutex> lock(sh.mutex);
      if (!r.master_payload.empty()) {
        // The primary's image bytes for a master event: apply them first so
        // replies the replay packs from this image carry identical bytes.
        sh.codec.apply(r.master_payload, r.master_sender);
      }
      if (r.event.kind == CoherenceEvent::Kind::PeerAttached) {
        // Track the rank like attach_endpoint would: refresh_flags walks
        // this set, and a post-failover resume re-inserts idempotently.
        sh.ranks.insert(r.event.rank);
      }
      // The replay drives the same executor as live traffic; its sends find
      // no session (invalid handles) and drop, which is the point — only a
      // promoted standby externalizes.
      process_event(sh, lock, r.event);
      break;
    }
    case LogRecord::Kind::SetBarrierCount:
      for (const auto& shp : shards_) {
        std::lock_guard<std::mutex> lk(shp->mutex);
        shp->core.set_barrier_count(r.index, r.value);
      }
      break;
    case LogRecord::Kind::BindLock:
      for (const auto& shp : shards_) {
        std::lock_guard<std::mutex> lk(shp->mutex);
        shp->core.bind_lock(r.index, r.value);
      }
      break;
    case LogRecord::Kind::NoteRedirected: {
      if (r.shard >= shards_.size()) {
        throw std::runtime_error("LogRecord: shard out of range");
      }
      Shard& sh = *shards_[r.shard];
      std::lock_guard<std::mutex> lk(sh.mutex);
      sh.core.note_redirected(r.index, r.value);
      break;
    }
  }
}

// ---- replication: failover -------------------------------------------------

void ShardedHome::resume_endpoint(std::uint32_t rank, std::uint32_t shard,
                                  msg::EndpointPtr ep) {
  if (rank == kMasterRank) {
    throw std::invalid_argument("rank 0 is the master thread at home");
  }
  if (shard >= opts_.num_shards) {
    throw std::out_of_range("shard " + std::to_string(shard) + " of " +
                            std::to_string(opts_.num_shards));
  }
  Shard& sh = *shards_[shard];
  // Reap whatever session the rank had here.  If one was still live, its
  // final on_closed runs now and detaches the peer — retire_session waits
  // for it — so the peer_active check below sees the settled state.
  shell_->retire_session(shard, rank);
  std::unique_lock<std::mutex> lock(sh.mutex);
  if (stopped_.load()) throw std::logic_error("attach after stop()");
  shell_->install_session(shard, rank,
                          std::shared_ptr<msg::Endpoint>(std::move(ep)));
  sh.ranks.insert(rank);
  if (!sh.core.peer_active(rank)) {
    // The core saw this rank leave (or never saw it): a plain attach is the
    // right protocol-level event, exactly as attach_endpoint.
    process_event(sh, lock,
                  CoherenceEvent::peer_attached(rank, initial_seed(shard)));
  }
  // Active peer (the failover case): the replayed core never observed the
  // rank's transport die, so NO peer event fires.  A PeerDetached here
  // would reclaim the rank's locks mid-episode — a waiter could then be
  // granted before the rank's in-flight unlock retransmits, losing its
  // update (docs/REPLICATION.md).  The reply cache answers whatever the
  // rank retransmits through the new transport.
  shell_->start_session(shard, rank);
}

void ShardedHome::promote(std::uint32_t fence_epoch) {
  obs::SpanScope span(telemetry_.get(), obs::SpanKind::Failover, fence_epoch);
  // Fence first: any append still racing in from the deposed primary is
  // rejected before this core diverges from the replicated log.
  repl_fence_epoch_.store(fence_epoch);
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::unique_lock<std::mutex> lock(sh.mutex);
    std::vector<CoherenceAction> actions;
    sh.core.reset_master(actions);
    drain(sh, lock, std::move(actions));
  }
  start();
}

// ---- pending-shard bitmask -------------------------------------------------

void ShardedHome::refresh_flags(Shard& sh) {
  if (opts_.num_shards <= 1) return;
  if (scoped()) return;  // mask_for is pinned to 0 under scoped pending
  const std::uint32_t bit = 1u << sh.index;
  for (std::uint32_t rank : sh.ranks) {
    if (rank >= kMaxTrackedRanks) continue;
    if (sh.core.has_pending(rank)) {
      pending_flags_[rank].fetch_or(bit);
    } else {
      pending_flags_[rank].fetch_and(~bit);
    }
  }
}

std::uint32_t ShardedHome::mask_for(std::uint32_t rank) const {
  // One shard ⇒ the grant itself carried everything pending, so there is
  // nothing to drain.
  if (opts_.num_shards <= 1) return 0;
  // Scoped pending (strict entry consistency): every row's pending lives
  // only at the shard owning its guarding region and ships on that
  // region's own grants, so there is never a sibling shard to drain
  // (docs/OBJECTS.md).  Draining would also race: an unscoped PendingPull
  // packs rows whose guarding locks the puller does not hold.
  if (scoped()) return 0;
  if (rank >= kMaxTrackedRanks) {
    // Untracked rank: conservatively claim every shard may hold pending.
    return opts_.num_shards >= 32 ? 0xffffffffu
                                  : ((1u << opts_.num_shards) - 1u);
  }
  return pending_flags_[rank].load();
}

// ---- the action executor ---------------------------------------------------

void ShardedHome::process_event(Shard& sh, std::unique_lock<std::mutex>& lock,
                                CoherenceEvent e) {
  std::vector<CoherenceAction> actions = sh.core.step(e);
  // Log-before-reply (docs/REPLICATION.md): the record must be durable at
  // the standby before any of this event's sends flush in drain().
  if (opts_.replication != nullptr) replicate(sh, e);
  drain(sh, lock, std::move(actions));
}

void ShardedHome::drain(Shard& sh, std::unique_lock<std::mutex>& lock,
                        std::vector<CoherenceAction> actions) {
  struct PendingSend {
    std::uint32_t rank;
    SessionShell::SendHandle handle;
    msg::Message message;
  };
  std::vector<PendingSend> sends;
  for (CoherenceAction& a : actions) {
    switch (a.kind) {
      case CoherenceAction::Kind::Trace:
        if (sh.trace != nullptr) {
          sh.trace->append(a.trace.kind, a.trace.rank, a.trace.sync_id,
                           a.trace.blocks, a.trace.bytes, a.trace.req);
        }
        break;
      case CoherenceAction::Kind::WakeMaster:
        sh.cv.notify_all();
        break;
      case CoherenceAction::Kind::Detach:
        std::fprintf(stderr, "hdsm shard %u: detaching rank %u: %s\n",
                     sh.index, a.rank, a.reason.c_str());
        shell_->close_session(sh.index, a.rank);
        break;
      case CoherenceAction::Kind::Send: {
        // The handle pins the current incarnation: a re-attach while the
        // lock is released below routes this message to (or buries it
        // with) the old transport, never the new one.
        SessionShell::SendHandle h = shell_->handle(sh.index, a.rank);
        if (!h.valid) break;
        sends.push_back({a.rank, std::move(h), std::move(a.message)});
        break;
      }
    }
  }
  // The batch's state transitions are complete: publish this shard's
  // pending bits, then stamp every outgoing frame — the current map epoch
  // (remotes revalidate lazily) and, on the acquire replies, the
  // pending-shards mask the remote must drain (docs/SHARDING.md).
  refresh_flags(sh);
  // A deposed primary (a newer epoch is serving) never externalizes another
  // frame — the remotes' retransmits are answered by the new primary's
  // replicated reply caches (docs/REPLICATION.md).
  if (sends.empty() || fenced_.load()) return;
  const std::uint32_t epoch = epoch_mirror_.load();
  for (PendingSend& ps : sends) {
    ps.message.map_epoch = epoch;
    switch (ps.message.type) {
      case msg::MsgType::LockGrant:
      case msg::MsgType::BarrierRelease:
      case msg::MsgType::PendingReply:
        ps.message.aux = mask_for(ps.rank);
        break;
      default:
        break;
    }
  }
  // Flush outside the state lock.  Concurrent events may interleave here —
  // safe, because the per-peer request/reply discipline means any
  // concurrent send to the same peer is an identical cached reply.  Sends
  // are asynchronous: a dead peer's failure arrives as on_closed, which
  // steps the core with PeerDetached like any other transport loss.
  lock.unlock();
  for (PendingSend& ps : sends) {
    shell_->send(ps.handle, std::move(ps.message));
  }
  lock.lock();
}

// ---- master-thread API -----------------------------------------------------

// Each call routes to the region's current owner shard and re-checks
// ownership under that shard's state lock (a migration needs the same lock,
// so a positive check pins the region for the step).  Waits poll with a
// short timeout instead of parking indefinitely: the predicate may move to
// another shard's condition variable mid-wait.

void ShardedHome::lock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  if (index >= opts_.num_locks) {
    throw std::out_of_range("mutex index out of range: " +
                            std::to_string(index));
  }
  for (;;) {
    const std::uint32_t s = owner_of(index);
    Shard& sh = *shards_[s];
    std::unique_lock<std::mutex> lk(sh.mutex);
    if (!owns(s, index)) {
      lk.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    process_event(sh, lk, CoherenceEvent::master_lock(index));
    break;
  }
  // The master image is authoritative (one shared data plane): nothing to
  // pull on acquire, whatever shards other ranks released through.
  obs::SpanScope wait(telemetry_.get(), obs::SpanKind::LockWait, index);
  for (;;) {
    const std::uint32_t s = owner_of(index);
    Shard& sh = *shards_[s];
    std::unique_lock<std::mutex> lk(sh.mutex);
    if (owns(s, index) && sh.core.master_holds(index)) return;
    if (stopped_.load()) throw_stopped("lock", index);
    sh.cv.wait_for(lk, std::chrono::milliseconds(1));
  }
}

void ShardedHome::unlock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  if (index >= opts_.num_locks) {
    throw std::out_of_range("mutex index out of range: " +
                            std::to_string(index));
  }
  for (;;) {
    const std::uint32_t s = owner_of(index);
    Shard& sh = *shards_[s];
    std::unique_lock<std::mutex> lk(sh.mutex);
    if (!owns(s, index)) {
      lk.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    // Validate before collect_runs(): collecting restarts the tracking
    // interval, so an exception must fire before that side effect.
    sh.core.check_master_unlock(index);
    std::vector<idx::UpdateRun> runs;
    {
      std::lock_guard<std::mutex> eng(engine_mutex_);
      if (opts_.run_source) {
        ObjectRuns obj = opts_.run_source(index);
        if (obj.objects != 0) {
          ++data_stats_.object_episodes;
          data_stats_.objects_shipped += obj.objects;
        }
        runs = std::move(obj.runs);
      } else {
        runs = engine_.collect_runs();
      }
    }
    process_event(sh, lk, CoherenceEvent::master_unlock(index, std::move(runs)));
    return;
  }
}

void ShardedHome::barrier(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  if (index >= opts_.num_barriers) {
    throw std::out_of_range("barrier index out of range: " +
                            std::to_string(index));
  }
  std::uint64_t gen = 0;
  for (;;) {
    const std::uint32_t s = owner_of(index);
    Shard& sh = *shards_[s];
    std::unique_lock<std::mutex> lk(sh.mutex);
    if (!owns(s, index)) {
      lk.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    gen = sh.core.barrier_generation(index);
    std::vector<idx::UpdateRun> runs;
    {
      std::lock_guard<std::mutex> eng(engine_mutex_);
      if (opts_.run_source) {
        ObjectRuns obj = opts_.run_source(kAllRegions);
        if (obj.objects != 0) {
          ++data_stats_.object_episodes;
          data_stats_.objects_shipped += obj.objects;
        }
        runs = std::move(obj.runs);
      } else {
        runs = engine_.collect_runs();
      }
    }
    process_event(sh, lk,
                  CoherenceEvent::master_barrier(index, std::move(runs)));
    break;
  }
  // The barrier generation transfers continuously across migrations, so
  // the gen read at entry stays a valid episode marker wherever the region
  // ends up.
  obs::SpanScope wait(telemetry_.get(), obs::SpanKind::BarrierWait, index);
  for (;;) {
    const std::uint32_t s = owner_of(index);
    Shard& sh = *shards_[s];
    std::unique_lock<std::mutex> lk(sh.mutex);
    if (owns(s, index) && sh.core.barrier_generation(index) != gen) return;
    if (stopped_.load()) throw_stopped("barrier", index);
    sh.cv.wait_for(lk, std::chrono::milliseconds(1));
  }
}

void ShardedHome::wait_all_joined() {
  for (;;) {
    bool all = true;
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      std::unique_lock<std::mutex> lk(sh.mutex);
      if (!sh.core.all_inactive()) {
        sh.cv.wait_for(lk, std::chrono::milliseconds(2));
        all = false;
        break;
      }
    }
    if (all) return;
  }
}

// ---- migration -------------------------------------------------------------

std::chrono::nanoseconds ShardedHome::migrate_region(std::uint32_t region,
                                                     std::uint32_t dst_shard) {
  if (dst_shard >= opts_.num_shards) {
    throw std::out_of_range("shard " + std::to_string(dst_shard) + " of " +
                            std::to_string(opts_.num_shards));
  }
  if (region >= std::max(opts_.num_locks, opts_.num_barriers)) {
    throw std::out_of_range("region out of range: " + std::to_string(region));
  }
  if (opts_.replication != nullptr) {
    // The export/import handoff mutates two cores outside step(); until the
    // handoff itself is a log record, migration under replication would
    // silently diverge the standby (docs/REPLICATION.md).
    throw std::logic_error(
        "migrate_region is not supported while replication is enabled");
  }
  std::uint32_t src = 0;
  {
    std::unique_lock<std::mutex> map_lock(map_mutex_);
    importing_cv_.wait(map_lock, [this, region] {
      return importing_.count(region) == 0;
    });
    src = map_.shard_of(region);
    if (src == dst_shard) return std::chrono::nanoseconds{0};
    // Open the handoff window: from here until the erase below, requests
    // for this region bounce at every shard (WrongShard), so no core can
    // execute them between export and import.
    importing_.insert(region);
  }
  const auto t0 = std::chrono::steady_clock::now();
  CoherenceCore::RegionState state;
  {
    Shard& sh = *shards_[src];
    std::unique_lock<std::mutex> lk(sh.mutex);
    std::vector<CoherenceAction> actions;
    state = sh.core.export_region(region, actions);
    {
      // Epoch bump inside the source's critical section: the new map
      // publishes atomically with the export — no thread can observe the
      // source stripped of the region while the map still points at it.
      std::lock_guard<std::mutex> map_lock(map_mutex_);
      map_.set_override(region, dst_shard);
      epoch_mirror_.store(map_.epoch());
    }
    drain(sh, lk, std::move(actions));
  }
  {
    Shard& sh = *shards_[dst_shard];
    std::unique_lock<std::mutex> lk(sh.mutex);
    std::vector<CoherenceAction> actions;
    sh.core.import_region(std::move(state), actions);
    drain(sh, lk, std::move(actions));
  }
  const auto pause = std::chrono::steady_clock::now() - t0;
  {
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    importing_.erase(region);
    importing_cv_.notify_all();
  }
  // Master waits poll owner shards; nudge both so a parked wait re-routes
  // promptly instead of riding out its poll interval.
  shards_[src]->cv.notify_all();
  shards_[dst_shard]->cv.notify_all();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(pause);
}

// ---- stats / telemetry / config --------------------------------------------

ShareStats ShardedHome::stats() const {
  ShareStats total;
  {
    std::lock_guard<std::mutex> eng(engine_mutex_);
    total = data_stats_;
  }
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mutex);
    total += shp->stats;
  }
  return total;
}

ShareStats ShardedHome::shard_stats(std::uint32_t shard) const {
  const Shard& sh = *shards_.at(shard);
  std::lock_guard<std::mutex> lk(sh.mutex);
  return sh.stats;
}

std::uint64_t ShardedHome::shard_busy_ns(std::uint32_t shard) const {
  return shards_.at(shard)->busy_ns.load(std::memory_order_relaxed);
}

obs::ClusterTelemetry ShardedHome::cluster_telemetry() const {
  obs::NodeSnapshot home;
  home.rank = kMasterRank;
  home.epoch = 0;
  if (telemetry_) home.metrics = telemetry_->metrics();
  append_share_stats(home.metrics, stats());
  for (std::uint32_t s = 0; s < opts_.num_shards; ++s) {
    const Shard& sh = *shards_[s];
    const std::string prefix = "shard." + std::to_string(s) + ".";
    home.metrics.counters[prefix + "busy_ns"] =
        sh.busy_ns.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(sh.mutex);
    home.metrics.counters[prefix + "ops"] = sh.stats.locks +
                                            sh.stats.unlocks +
                                            sh.stats.barriers +
                                            sh.stats.pending_pulls;
    home.metrics.counters[prefix + "migrations"] = sh.stats.region_migrations;
    home.metrics.counters[prefix + "wrong_shard"] =
        sh.stats.wrong_shard_redirects;
  }
  std::lock_guard<std::mutex> lk0(shards_[0]->mutex);
  return shards_[0]->core.telemetry_as(std::move(home));
}

std::vector<std::uint32_t> ShardedHome::active_ranks() const {
  shell_->quiesce();  // in-flight transport failures must already count
  std::set<std::uint32_t> ranks;
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mutex);
    for (std::uint32_t r : shp->core.active_ranks()) ranks.insert(r);
  }
  return {ranks.begin(), ranks.end()};
}

bool ShardedHome::quiesced() const {
  shell_->quiesce();
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mutex);
    if (!shp->core.quiesced()) return false;
  }
  return true;
}

std::size_t ShardedHome::recovery_entries(std::uint32_t rank) const {
  std::size_t total = 0;
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mutex);
    total += shp->core.recovery_entries(rank);
  }
  return total;
}

void ShardedHome::set_barrier_count(std::uint32_t index, std::uint32_t count) {
  // Configure every shard: the region may migrate anywhere, and the
  // exported state carries `expected` with it either way — setting all
  // cores keeps a later hash-home owner consistent too.
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mutex);
    shp->core.set_barrier_count(index, count);
  }
  LogRecord r;
  r.kind = LogRecord::Kind::SetBarrierCount;
  r.index = index;
  r.value = count;
  replicate_record(r);
}

void ShardedHome::bind_lock(std::uint32_t index, const std::string& field) {
  const auto row =
      static_cast<std::uint32_t>(space_.table().row_of_field(field));
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lk(shp->mutex);
    shp->core.bind_lock(index, row);
  }
  LogRecord r;
  r.kind = LogRecord::Kind::BindLock;
  r.index = index;
  r.value = row;
  replicate_record(r);
}

}  // namespace hdsm::dsm

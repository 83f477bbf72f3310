#include "dsm/sharded_home.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace hdsm::dsm {

// ---- construction ----------------------------------------------------------

namespace {

CoherenceConfig core_config(const ShardedHomeOptions& opts,
                            const GlobalSpace& space,
                            obs::Telemetry* telemetry) {
  CoherenceConfig cfg;
  cfg.num_locks = opts.num_locks;
  cfg.num_barriers = opts.num_barriers;
  cfg.self = msg::PlatformSummary::of(space.platform());
  cfg.image_tag_text = space.image_tag_text();
  cfg.layout_runs = space.table().layout().runs;
  cfg.telemetry = telemetry;
  return cfg;
}

// PeerId layout: gen(32) | rank(32).  The generation bits make a re-attached
// rank a brand-new reactor peer, so sends and closes aimed at the old
// incarnation can never touch the new one.
msg::PeerId peer_of(std::uint32_t gen, std::uint32_t rank) {
  return (static_cast<std::uint64_t>(gen) << 32) | rank;
}

std::uint32_t rank_of(msg::PeerId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

std::uint32_t gen_of(msg::PeerId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

ShardedHome::ShardedHome(tags::TypePtr gthv,
                         const plat::PlatformDesc& platform,
                         ShardedHomeOptions opts)
    : opts_(std::move(opts)),
      space_(gthv, platform),
      telemetry_(opts_.obs.enabled
                     ? std::make_unique<obs::Telemetry>(opts_.obs)
                     : nullptr),
      engine_(space_, opts_.dsd, stats_),
      core_(core_config(opts_, space_, telemetry_.get()), engine_, stats_) {
  engine_.set_trace(opts_.trace, kMasterRank);
  engine_.set_obs(telemetry_.get());
  msg::ReactorOptions ro;
  ro.telemetry = telemetry_.get();
  reactor_ = std::make_unique<msg::Reactor>(
      ro, static_cast<msg::ReactorHandler&>(*this));
}

ShardedHome::~ShardedHome() { stop(); }

// ---- the reactor's handler -------------------------------------------------

void ShardedHome::on_message(msg::PeerId peer, msg::Message&& m) {
  const std::uint32_t rank = rank_of(peer);
  std::lock_guard<std::mutex> lock(mutex_);
  if (rank == kReplSessionRank) {
    // The primary→standby log link (docs/REPLICATION.md): replay and ack,
    // never feed the core a peer event.
    if (m.type == msg::MsgType::ReplAppend) {
      handle_repl_append(std::move(m));
    }
    return;
  }
  process_event(CoherenceEvent::msg_received(rank, std::move(m)));
}

void ShardedHome::on_peer_closed(msg::PeerId peer) {
  const std::uint32_t rank = rank_of(peer);
  const std::uint32_t gen = gen_of(peer);
  std::lock_guard<std::mutex> lock(mutex_);
  Session& s = sessions_[rank];
  // Recorded first: a retiring attach waits on it, and it must not stay
  // behind if the step below throws.
  s.closed_gen = std::max(s.closed_gen, gen);
  cv_.notify_all();
  // Only the current incarnation's loss is the rank's loss; the replication
  // link's is no peer's.
  if (gen == s.gen && rank != kReplSessionRank) {
    process_event(CoherenceEvent::peer_detached(rank));
  }
}

// ---- attach / lifecycle ----------------------------------------------------

void ShardedHome::install_session(std::unique_lock<std::mutex>& lock,
                                  std::uint32_t rank, msg::EndpointPtr ep) {
  Session& s = sessions_[rank];  // std::map: stable across the wait below
  const std::uint32_t old_gen = s.gen;
  if (s.closed_gen < old_gen) {
    // The reactor delivers the closed event (after any messages the old
    // transport already queued) on its io thread, which needs the state
    // lock: the wait releases it.
    reactor_->remove_peer(peer_of(old_gen, rank));
    cv_.wait(lock, [&] { return s.closed_gen >= old_gen || stopped_.load(); });
  }
  if (stopped_.load()) throw std::logic_error("attach after stop()");
  // Registered before any event steps: the io thread cannot deliver its
  // first message (or its closed event) until this caller releases the
  // state lock.
  reactor_->add_peer(peer_of(old_gen + 1, rank),
                     std::shared_ptr<msg::Endpoint>(std::move(ep)));
  s.gen = old_gen + 1;
}

msg::EndpointPtr ShardedHome::attach(std::uint32_t rank) {
  auto [home_side, remote_side] = msg::make_channel_pair();
  attach_endpoint(rank, std::move(home_side));
  return std::move(remote_side);
}

void ShardedHome::attach_endpoint(std::uint32_t rank, msg::EndpointPtr ep) {
  if (rank == kMasterRank) {
    throw std::invalid_argument("rank 0 is the master thread at home");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopped_.load()) throw std::logic_error("attach after stop()");
  // A migrating thread re-attaches its rank from the destination node
  // moments after the source detached: wait out that window.
  if (!cv_.wait_for(lock, std::chrono::seconds(30), [this, rank] {
        return !core_.peer_active(rank);
      })) {
    throw std::invalid_argument("rank already attached: " +
                                std::to_string(rank));
  }
  install_session(lock, rank, std::move(ep));
  process_event(CoherenceEvent::peer_attached(
      rank, SyncEngine::full_image_runs(space_.table())));
}

void ShardedHome::start() {
  if (telemetry_ != nullptr) telemetry_->set_thread_label("master");
  if (started_.exchange(true)) return;
  engine_.start_tracking();
}

void ShardedHome::stop() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    core_.shutdown();
  }
  cv_.notify_all();
  // Close every session and stop the io thread; its final closed callbacks
  // re-enter the (now released) state lock.
  reactor_->stop();
  engine_.stop_tracking();
}

// ---- replication: primary side (docs/REPLICATION.md) -----------------------

void ShardedHome::replicate(const CoherenceEvent& e) {
  LogRecord r;
  r.event = e;
  // Master events name update runs whose bytes live only in this image:
  // pack them now (under the state lock, image unchanged since the step)
  // so the standby can apply the same bytes before replaying the event.
  if (is_master_update(e.kind) && !e.runs.empty()) {
    r.master_payload = engine_.pack_payload(e.runs);
    r.master_sender = msg::PlatformSummary::of(space_.platform());
  }
  if (opts_.replication->append(r) == ReplicationSender::Result::Deposed &&
      !fenced_.exchange(true)) {
    std::fprintf(stderr,
                 "hdsm repl: this primary is deposed; suppressing all "
                 "outgoing sends\n");
  }
}

// ---- replication: standby side ---------------------------------------------

void ShardedHome::attach_replication(msg::EndpointPtr ep) {
  std::unique_lock<std::mutex> lock(mutex_);
  install_session(lock, kReplSessionRank, std::move(ep));
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
  reactor_->send(peer_of(sessions_[kReplSessionRank].gen, kReplSessionRank),
                 std::move(ack));
}

void ShardedHome::replay_record(LogRecord r) {
  CoherenceEvent& e = r.event;
  if (e.kind == CoherenceEvent::Kind::PeerAttached) {
    // The shell attaches every peer with the full image, and the standby's
    // table is the primary's.
    e.runs = SyncEngine::full_image_runs(space_.table());
  } else if (!r.master_payload.empty()) {
    // The primary's image bytes for a master event: apply them first so
    // replies the replay packs from this image carry identical bytes.  The
    // apply returns one run per packed block, in order: the event's runs.
    e.runs = engine_.apply_payload(r.master_payload, r.master_sender);
  }
  // The replay drives the same executor as live traffic; its sends find
  // no session and drop, which is the point — only a promoted standby
  // externalizes.
  process_event(std::move(e));
}

// ---- replication: failover -------------------------------------------------

void ShardedHome::resume_endpoint(std::uint32_t rank, msg::EndpointPtr ep) {
  if (rank == kMasterRank) {
    throw std::invalid_argument("rank 0 is the master thread at home");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  // Reaps whatever session the rank had here.  If one was still live, its
  // closed callback detaches the peer during the install's wait, so the
  // peer_active check below sees the settled state.
  install_session(lock, rank, std::move(ep));
  if (!core_.peer_active(rank)) {
    // The core saw this rank leave (or never saw it): a plain attach is the
    // right protocol-level event, exactly as attach_endpoint.
    process_event(CoherenceEvent::peer_attached(
        rank, SyncEngine::full_image_runs(space_.table())));
  }
  // Active peer (the failover case): the replayed core never observed the
  // rank's transport die, so NO peer event fires.  A PeerDetached here
  // would reclaim the rank's locks mid-episode — a waiter could then be
  // granted before the rank's in-flight unlock retransmits, losing its
  // update (docs/REPLICATION.md).  The reply cache answers whatever the
  // rank retransmits through the new transport.
}

void ShardedHome::promote(std::uint32_t fence_epoch) {
  obs::SpanScope span(telemetry_.get(), obs::SpanKind::Failover, fence_epoch);
  // Fence first: any append still racing in from the deposed primary is
  // rejected before this core diverges from the replicated log.
  repl_fence_epoch_.store(fence_epoch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CoherenceAction> actions;
    core_.reset_master(actions);
    drain(std::move(actions));
  }
  start();
}

// ---- the action executor ---------------------------------------------------

void ShardedHome::process_event(CoherenceEvent e) {
  std::vector<CoherenceAction> actions = core_.step(e);
  // Log-before-reply (docs/REPLICATION.md): the record must be durable at
  // the standby before any of this event's sends are queued in drain().
  if (opts_.replication != nullptr) replicate(e);
  drain(std::move(actions));
}

void ShardedHome::drain(std::vector<CoherenceAction> actions) {
  for (CoherenceAction& a : actions) {
    switch (a.kind) {
      case CoherenceAction::Kind::Trace:
        if (opts_.trace != nullptr) {
          opts_.trace->append(a.trace.kind, a.trace.rank, a.trace.sync_id,
                              a.trace.blocks, a.trace.bytes, a.trace.req);
        }
        break;
      case CoherenceAction::Kind::WakeMaster:
        cv_.notify_all();
        break;
      case CoherenceAction::Kind::Detach: {
        std::fprintf(stderr, "hdsm home: detaching rank %u: %s\n", a.rank,
                     a.reason.c_str());
        auto it = sessions_.find(a.rank);
        if (it != sessions_.end()) {
          reactor_->remove_peer(peer_of(it->second.gen, a.rank));
        }
        break;
      }
      case CoherenceAction::Kind::Send: {
        // A deposed primary (a newer epoch is serving) never externalizes
        // another frame — the remotes' retransmits are answered by the new
        // primary's replicated reply cache (docs/REPLICATION.md).
        if (fenced_.load()) break;
        auto it = sessions_.find(a.rank);
        if (it == sessions_.end()) break;  // no session (a standby's replay)
        reactor_->send(peer_of(it->second.gen, a.rank), std::move(a.message));
        break;
      }
    }
  }
}

// ---- master-thread API -----------------------------------------------------

template <typename Pred>
void ShardedHome::wait_master(std::unique_lock<std::mutex>& lock,
                              const char* what, std::uint32_t index,
                              Pred done) {
  cv_.wait(lock, [&] { return done() || stopped_.load(); });
  if (!done()) {
    // stop() ended the sessions (e.g. a cluster run stopping the home after
    // a rank died), so the grant or release this wait needs never comes.
    throw std::runtime_error("home stopped while the master waited on " +
                             std::string(what) + " " + std::to_string(index));
  }
}

void ShardedHome::lock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  if (index >= opts_.num_locks) {
    throw std::out_of_range("mutex index out of range: " +
                            std::to_string(index));
  }
  std::unique_lock<std::mutex> lk(mutex_);
  process_event(CoherenceEvent::master_lock(index));
  // The master image is authoritative: nothing to pull on acquire.
  obs::SpanScope wait(telemetry_.get(), obs::SpanKind::LockWait, index);
  wait_master(lk, "lock", index, [&] { return core_.master_holds(index); });
}

void ShardedHome::unlock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  if (index >= opts_.num_locks) {
    throw std::out_of_range("mutex index out of range: " +
                            std::to_string(index));
  }
  std::lock_guard<std::mutex> lk(mutex_);
  // Validate before collecting: collecting restarts the tracking interval,
  // so an exception must fire before that side effect.
  core_.check_master_unlock(index);
  process_event(
      CoherenceEvent::master_unlock(index, engine_.collect_runs(index)));
}

void ShardedHome::barrier(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  if (index >= opts_.num_barriers) {
    throw std::out_of_range("barrier index out of range: " +
                            std::to_string(index));
  }
  std::unique_lock<std::mutex> lk(mutex_);
  const std::uint64_t gen = core_.barrier_generation(index);
  process_event(
      CoherenceEvent::master_barrier(index, engine_.collect_runs(kAllRegions)));
  obs::SpanScope wait(telemetry_.get(), obs::SpanKind::BarrierWait, index);
  wait_master(lk, "barrier", index,
              [&] { return core_.barrier_generation(index) != gen; });
}

void ShardedHome::wait_all_joined() {
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [this] { return core_.all_inactive(); });
}

// ---- stats / telemetry / config --------------------------------------------

ShareStats ShardedHome::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

obs::ClusterTelemetry ShardedHome::cluster_telemetry() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return core_.telemetry();
}

std::vector<std::uint32_t> ShardedHome::active_ranks() const {
  reactor_->flush();  // in-flight transport failures must already count
  std::lock_guard<std::mutex> lk(mutex_);
  return core_.active_ranks();
}

bool ShardedHome::quiesced() const {
  reactor_->flush();
  std::lock_guard<std::mutex> lk(mutex_);
  return core_.quiesced();
}

std::size_t ShardedHome::recovery_entries(std::uint32_t rank) const {
  std::lock_guard<std::mutex> lk(mutex_);
  return core_.recovery_entries(rank);
}

void ShardedHome::set_barrier_count(std::uint32_t index, std::uint32_t count) {
  std::lock_guard<std::mutex> lk(mutex_);
  process_event(CoherenceEvent::set_barrier_count(index, count));
}

void ShardedHome::bind_lock(std::uint32_t index, const std::string& field) {
  const auto row =
      static_cast<std::uint32_t>(space_.table().row_of_field(field));
  std::lock_guard<std::mutex> lk(mutex_);
  process_event(CoherenceEvent::bind_lock(index, row));
}

}  // namespace hdsm::dsm

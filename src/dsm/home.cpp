#include "dsm/home.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace hdsm::dsm {

namespace {

CoherenceConfig core_config(const HomeOptions& opts, const GlobalSpace& space,
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

ShellOptions resolve_shell(ShellOptions s) {
  if (s.lanes == 0) s.lanes = 1;  // one core, one lane: events serialize
  return s;
}

}  // namespace

std::vector<std::byte> HomeNode::EngineCodec::pack(
    const std::vector<idx::UpdateRun>& runs) {
  // Zero-copy: tags + element bytes gathered straight into the wire buffer.
  return engine.pack_payload(runs);
}

std::vector<std::byte> HomeNode::EngineCodec::pack_release(
    const std::vector<idx::UpdateRun>& runs) {
  // Barrier release: every participant's updates are merged, the home
  // image is authoritative — the adaptive tuner may promote dense pages
  // to whole-page transfers (identity when adaptivity is off).
  return engine.pack_payload(engine.promote_dense_runs(runs));
}

std::vector<idx::UpdateRun> HomeNode::EngineCodec::apply(
    const std::vector<std::byte>& payload,
    const msg::PlatformSummary& sender) {
  return engine.apply_payload(payload, sender);
}

HomeNode::HomeNode(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                   HomeOptions opts)
    : opts_(opts),
      space_(gthv, platform),
      telemetry_(opts_.obs.enabled
                     ? std::make_unique<obs::Telemetry>(opts_.obs)
                     : nullptr),
      engine_(space_, opts_.dsd, stats_),
      codec_(engine_),
      core_(core_config(opts_, space_, telemetry_.get()), codec_, stats_) {
  engine_.set_trace(opts_.trace, kMasterRank);
  engine_.set_obs(telemetry_.get());
  shell_ = std::make_unique<SessionShell>(
      resolve_shell(opts_.shell),
      SessionShell::Callbacks{
          [this](std::uint32_t, std::uint32_t rank, msg::Message&& m) {
            std::unique_lock<std::mutex> lock(mutex_);
            process_event(lock,
                          CoherenceEvent::msg_received(rank, std::move(m)));
          },
          [this](std::uint32_t, std::uint32_t rank) {
            std::unique_lock<std::mutex> lock(mutex_);
            process_event(lock, CoherenceEvent::peer_detached(rank));
          }},
      telemetry_.get());
}

HomeNode::~HomeNode() { stop(); }

msg::EndpointPtr HomeNode::attach(std::uint32_t rank) {
  auto [home_side, remote_side] = msg::make_channel_pair();
  attach_endpoint(rank, std::move(home_side));
  return std::move(remote_side);
}

void HomeNode::attach_endpoint(std::uint32_t rank, msg::EndpointPtr ep) {
  if (rank == kMasterRank) {
    throw std::invalid_argument("rank 0 is the master thread at home");
  }
  // A migrating thread re-attaches its rank from the destination node
  // moments after the source detached; wait out that window first.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) throw std::logic_error("attach after stop()");
    if (!cv_.wait_for(lock, std::chrono::seconds(30),
                      [this, rank] { return !core_.peer_active(rank); })) {
      throw std::invalid_argument("rank already attached: " +
                                  std::to_string(rank));
    }
  }
  // Reap the old incarnation outside the state lock: closing its transport
  // delivers a final peer_detached, which needs the lock on its way out.
  shell_->retire_session(0, rank);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) throw std::logic_error("attach after stop()");
    shell_->install_session(0, rank,
                            std::shared_ptr<msg::Endpoint>(std::move(ep)));
    // A fresh remote has seen nothing: its first grant ships the full
    // image.  The event runs before receiving starts, so no message can
    // observe a half-attached peer.
    process_event(lock, CoherenceEvent::peer_attached(
                            rank, SyncEngine::full_image_runs(space_.table())));
    shell_->start_session(0, rank);
  }
}

void HomeNode::start() {
  if (telemetry_ != nullptr) telemetry_->set_thread_label("master");
  std::unique_lock<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  space_.region().begin_tracking();
}

void HomeNode::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    core_.shutdown();
    cv_.notify_all();
  }
  // Close every session and quiesce the shell's threads; their final
  // peer_detached callbacks re-enter the (now released) state lock.
  shell_->stop();
  if (space_.region().tracking()) space_.region().end_tracking();
}

ShareStats HomeNode::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

obs::ClusterTelemetry HomeNode::cluster_telemetry() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return core_.telemetry();
}

bool HomeNode::quiesced() const {
  // Settle asynchronous send failures first: a reactor-mode detach still
  // in flight must count, exactly as the threaded shell's synchronous
  // ChannelClosed would have.
  shell_->quiesce();
  std::unique_lock<std::mutex> lock(mutex_);
  return core_.quiesced();
}

std::size_t HomeNode::recovery_entries(std::uint32_t rank) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return core_.recovery_entries(rank);
}

void HomeNode::set_barrier_count(std::uint32_t index, std::uint32_t count) {
  std::unique_lock<std::mutex> lock(mutex_);
  core_.set_barrier_count(index, count);
}

void HomeNode::bind_lock(std::uint32_t index, const std::string& field) {
  std::unique_lock<std::mutex> lock(mutex_);
  core_.bind_lock(index, static_cast<std::uint32_t>(
                             space_.table().row_of_field(field)));
}

std::vector<std::uint32_t> HomeNode::active_ranks() const {
  shell_->quiesce();  // in-flight transport failures must already count
  std::unique_lock<std::mutex> lock(mutex_);
  return core_.active_ranks();
}

// ---- master-thread API -----------------------------------------------------

void HomeNode::lock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  std::unique_lock<std::mutex> lock(mutex_);
  core_.check_lock_index(index);
  process_event(lock, CoherenceEvent::master_lock(index));
  // The master image is authoritative: nothing to pull on acquire.
  {
    obs::SpanScope wait(telemetry_.get(), obs::SpanKind::LockWait, index);
    cv_.wait(lock, [this, index] {
      return stopped_ || core_.master_holds(index);
    });
  }
  // stop() (e.g. a cluster run stopping the home after a rank died) ends
  // every session, so the grant will never come.
  if (!core_.master_holds(index)) {
    throw std::runtime_error("home stopped while the master waited on lock " +
                             std::to_string(index));
  }
}

void HomeNode::unlock(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  std::unique_lock<std::mutex> lock(mutex_);
  // Validate before collect_runs(): collecting restarts the tracking
  // interval, so an exception must fire before that side effect.
  core_.check_master_unlock(index);
  // Detect the master's own writes and queue them for every remote.
  std::vector<idx::UpdateRun> runs = engine_.collect_runs();
  process_event(lock, CoherenceEvent::master_unlock(index, std::move(runs)));
}

void HomeNode::barrier(std::uint32_t index) {
  obs::SpanScope episode(telemetry_.get(), obs::SpanKind::Episode, index);
  std::unique_lock<std::mutex> lock(mutex_);
  core_.check_barrier_index(index);
  std::vector<idx::UpdateRun> runs = engine_.collect_runs();
  const std::uint64_t gen = core_.barrier_generation(index);
  process_event(lock, CoherenceEvent::master_barrier(index, std::move(runs)));
  {
    obs::SpanScope wait(telemetry_.get(), obs::SpanKind::BarrierWait, index);
    cv_.wait(lock, [this, index, gen] {
      return stopped_ || core_.barrier_generation(index) != gen;
    });
  }
  if (core_.barrier_generation(index) == gen) {
    throw std::runtime_error(
        "home stopped while the master waited on barrier " +
        std::to_string(index));
  }
}

void HomeNode::wait_all_joined() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return core_.all_inactive(); });
}

// ---- the action executor ---------------------------------------------------

void HomeNode::process_event(std::unique_lock<std::mutex>& lock,
                             CoherenceEvent e) {
  struct PendingSend {
    std::uint32_t rank;
    SessionShell::SendHandle handle;
    msg::Message message;
  };
  std::vector<CoherenceEvent> queue;
  std::vector<PendingSend> sends;
  queue.push_back(std::move(e));
  while (!queue.empty()) {
    CoherenceEvent ev = std::move(queue.front());
    queue.erase(queue.begin());
    for (CoherenceAction& a : core_.step(ev)) {
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
        case CoherenceAction::Kind::Detach:
          // A malformed or protocol-violating peer must not take the home
          // node down: close its transport (the core already ran the detach
          // transition), like a crashed cluster member.
          std::fprintf(stderr, "hdsm home: detaching rank %u: %s\n", a.rank,
                       a.reason.c_str());
          shell_->close_session(0, a.rank);
          break;
        case CoherenceAction::Kind::Send: {
          // The handle pins the current incarnation: a re-attach while the
          // lock is released below routes this message to (or buries it
          // with) the old transport, never the new one.
          SessionShell::SendHandle h = shell_->handle(0, a.rank);
          if (!h.valid) break;
          sends.push_back({a.rank, std::move(h), std::move(a.message)});
          break;
        }
      }
    }
    if (!queue.empty() || sends.empty()) continue;
    // All state transitions for this batch are complete: release the state
    // lock and flush the sends.  Concurrent events may interleave here —
    // safe, because the per-peer request/reply discipline means any
    // concurrent send to the same peer is an identical cached reply.
    lock.unlock();
    std::vector<std::pair<std::uint32_t, std::uint64_t>> dead;
    for (PendingSend& ps : sends) {
      if (!shell_->send(ps.handle, std::move(ps.message))) {
        // Dead peer (threaded mode): must detach the dead target rank, not
        // unwind into whichever thread's event shipped to it.  Reactor
        // sends are asynchronous; their failures arrive as on_closed.
        dead.emplace_back(ps.rank, ps.handle.gen);
      }
    }
    sends.clear();
    lock.lock();
    for (const auto& [rank, gen] : dead) {
      // Skip stale failures: the rank may have re-attached (new generation)
      // while the lock was released.
      if (!shell_->close_if_current(0, rank, gen)) continue;
      queue.push_back(CoherenceEvent::peer_detached(rank));
    }
  }
}

}  // namespace hdsm::dsm

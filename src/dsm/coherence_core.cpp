#include "dsm/coherence_core.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mig/tagged_convert.hpp"
#include "tags/tag.hpp"

namespace hdsm::dsm {

// ---- event / action factories ----------------------------------------------

CoherenceEvent CoherenceEvent::peer_attached(std::uint32_t rank,
                                             std::vector<idx::UpdateRun> runs) {
  CoherenceEvent e;
  e.kind = Kind::PeerAttached;
  e.rank = rank;
  e.runs = std::move(runs);
  return e;
}

CoherenceEvent CoherenceEvent::msg_received(std::uint32_t rank,
                                            msg::Message m) {
  CoherenceEvent e;
  e.kind = Kind::MsgReceived;
  e.rank = rank;
  e.message = std::move(m);
  return e;
}

CoherenceEvent CoherenceEvent::master_lock(std::uint32_t index) {
  CoherenceEvent e;
  e.kind = Kind::MasterLock;
  e.index = index;
  return e;
}

CoherenceEvent CoherenceEvent::master_unlock(std::uint32_t index,
                                             std::vector<idx::UpdateRun> runs) {
  CoherenceEvent e;
  e.kind = Kind::MasterUnlock;
  e.index = index;
  e.runs = std::move(runs);
  return e;
}

CoherenceEvent CoherenceEvent::master_barrier(std::uint32_t index,
                                              std::vector<idx::UpdateRun> runs) {
  CoherenceEvent e;
  e.kind = Kind::MasterBarrier;
  e.index = index;
  e.runs = std::move(runs);
  return e;
}

CoherenceEvent CoherenceEvent::peer_detached(std::uint32_t rank) {
  CoherenceEvent e;
  e.kind = Kind::PeerDetached;
  e.rank = rank;
  return e;
}

CoherenceEvent CoherenceEvent::set_barrier_count(std::uint32_t index,
                                                 std::uint32_t count) {
  CoherenceEvent e;
  e.kind = Kind::SetBarrierCount;
  e.index = index;
  e.value = count;
  return e;
}

CoherenceEvent CoherenceEvent::bind_lock(std::uint32_t index,
                                         std::uint32_t row) {
  CoherenceEvent e;
  e.kind = Kind::BindLock;
  e.index = index;
  e.value = row;
  return e;
}

CoherenceAction CoherenceAction::send(std::uint32_t rank, msg::Message m) {
  CoherenceAction a;
  a.kind = Kind::Send;
  a.rank = rank;
  a.message = std::move(m);
  return a;
}

CoherenceAction CoherenceAction::wake_master() {
  CoherenceAction a;
  a.kind = Kind::WakeMaster;
  return a;
}

CoherenceAction CoherenceAction::detach(std::uint32_t rank,
                                        std::string reason) {
  CoherenceAction a;
  a.kind = Kind::Detach;
  a.rank = rank;
  a.reason = std::move(reason);
  return a;
}

// ---- construction / queries ------------------------------------------------

CoherenceCore::CoherenceCore(CoherenceConfig cfg, UpdateCodec& codec,
                             ShareStats& stats)
    : cfg_(std::move(cfg)),
      codec_(codec),
      stats_(stats),
      locks_(cfg_.num_locks),
      barriers_(cfg_.num_barriers) {}

void CoherenceCore::check_lock_index(std::uint32_t index) const {
  if (index >= locks_.size()) throw std::out_of_range("lock index");
}

void CoherenceCore::check_barrier_index(std::uint32_t index) const {
  if (index >= barriers_.size()) throw std::out_of_range("barrier index");
}

void CoherenceCore::check_master_unlock(std::uint32_t index) const {
  check_lock_index(index);
  if (locks_[index].holder != kMasterRank) {
    throw std::logic_error("master unlock without holding the lock");
  }
}

bool CoherenceCore::master_holds(std::uint32_t index) const {
  return index < locks_.size() && locks_[index].holder == kMasterRank;
}

std::uint64_t CoherenceCore::barrier_generation(std::uint32_t index) const {
  check_barrier_index(index);
  return barriers_[index].generation;
}

bool CoherenceCore::peer_active(std::uint32_t rank) const {
  const auto it = peers_.find(rank);
  return it != peers_.end() && it->second.active;
}

bool CoherenceCore::all_inactive() const {
  return std::all_of(peers_.begin(), peers_.end(),
                     [](const auto& kv) { return !kv.second.active; });
}

bool CoherenceCore::quiesced() const {
  if (!all_inactive()) return false;
  for (const LockState& ls : locks_) {
    if (ls.holder != -1 || !ls.waiters.empty()) return false;
  }
  return true;
}

void CoherenceCore::set_barrier_count(std::uint32_t index,
                                      std::uint32_t count) {
  if (index >= barriers_.size()) {
    throw std::out_of_range("set_barrier_count index");
  }
  barriers_[index].expected = count;
}

void CoherenceCore::bind_lock(std::uint32_t index, std::uint32_t row) {
  if (index >= locks_.size()) throw std::out_of_range("bind_lock index");
  std::vector<std::uint32_t>& rows = locks_[index].bound_rows;
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) rows.insert(it, row);
}

void CoherenceCore::shutdown() {
  for (auto& [rank, peer] : peers_) {
    peer.active = false;
  }
}

void CoherenceCore::reset_master(Actions& out) {
  for (std::uint32_t i = 0; i < locks_.size(); ++i) {
    LockState& ls = locks_[i];
    ls.waiters.erase(
        std::remove(ls.waiters.begin(), ls.waiters.end(), kMasterRank),
        ls.waiters.end());
    if (ls.holder == static_cast<std::int64_t>(kMasterRank)) {
      trace(out, TraceEvent::Kind::LockReleased, kMasterRank, i);
      release(i, out);
    }
  }
  for (std::uint32_t i = 0; i < barriers_.size(); ++i) {
    BarrierState& b = barriers_[i];
    const auto it =
        std::find(b.entered.begin(), b.entered.end(), kMasterRank);
    if (it == b.entered.end()) continue;
    // Withdraw, don't complete: the new master re-enters when the
    // application retries its interrupted barrier() call, and an episode
    // can only close after the master is in (barrier_complete).
    b.entered.erase(it);
  }
}

std::vector<std::uint32_t> CoherenceCore::active_ranks() const {
  std::vector<std::uint32_t> out;
  for (const auto& [rank, peer] : peers_) {
    if (peer.active) out.push_back(rank);
  }
  return out;
}

std::int64_t CoherenceCore::lock_holder(std::uint32_t index) const {
  check_lock_index(index);
  return locks_[index].holder;
}

std::size_t CoherenceCore::recovery_entries(std::uint32_t rank) const {
  const auto it = peers_.find(rank);
  return it == peers_.end() ? 0 : it->second.granted_gen.size();
}

// ---- the transition function -----------------------------------------------

std::vector<CoherenceAction> CoherenceCore::step(const CoherenceEvent& e) {
  Actions out;
  switch (e.kind) {
    case CoherenceEvent::Kind::PeerAttached: {
      PeerState& peer = peers_[e.rank];
      peer.active = true;
      peer.pending.clear();
      peer.pending.merge(sorted_runs(e.runs), merge_buf_);
      trace(out, TraceEvent::Kind::Attached, e.rank, 0);
      break;
    }
    case CoherenceEvent::Kind::MsgReceived:
      handle_message(e.rank, e.message, out);
      break;
    case CoherenceEvent::Kind::MasterLock:
      master_lock(e.index, out);
      break;
    case CoherenceEvent::Kind::MasterUnlock:
      master_unlock(e.index, e.runs, out);
      break;
    case CoherenceEvent::Kind::MasterBarrier:
      master_barrier(e.index, e.runs, out);
      break;
    case CoherenceEvent::Kind::PeerDetached:
      detach(e.rank, /*trace_detach=*/true, out);
      break;
    case CoherenceEvent::Kind::SetBarrierCount:
      set_barrier_count(e.index, e.value);
      break;
    case CoherenceEvent::Kind::BindLock:
      bind_lock(e.index, e.value);
      break;
  }
  return out;
}

// ---- master transitions ----------------------------------------------------

void CoherenceCore::master_lock(std::uint32_t index, Actions& out) {
  check_lock_index(index);
  trace(out, TraceEvent::Kind::LockRequested, kMasterRank, index);
  LockState& ls = locks_[index];
  if (ls.holder == -1) {
    grant(index, kMasterRank, out);
  } else {
    ls.waiters.push_back(kMasterRank);
  }
}

void CoherenceCore::master_unlock(std::uint32_t index,
                                  const std::vector<idx::UpdateRun>& runs,
                                  Actions& out) {
  check_master_unlock(index);
  merge_pending(kMasterRank, runs);
  ++stats_.unlocks;
  trace(out, TraceEvent::Kind::LockReleased, kMasterRank, index);
  release(index, out);
}

void CoherenceCore::master_barrier(std::uint32_t index,
                                   const std::vector<idx::UpdateRun>& runs,
                                   Actions& out) {
  check_barrier_index(index);
  merge_pending(kMasterRank, runs);
  ++stats_.barriers;
  trace(out, TraceEvent::Kind::BarrierEntered, kMasterRank, index);
  enter_barrier(barriers_[index], kMasterRank);
  maybe_release_barrier(index, out);
}

// ---- shared internals ------------------------------------------------------

void CoherenceCore::send_reply(std::uint32_t rank, PeerState& peer,
                               msg::Message reply, Actions& out) {
  reply.seq = peer.last_seq;
  peer.last_reply = reply;
  out.push_back(CoherenceAction::send(rank, std::move(reply)));
}

void CoherenceCore::grant(std::uint32_t index, std::uint32_t rank,
                          Actions& out) {
  LockState& ls = locks_[index];
  ls.holder = rank;
  ++ls.generation;
  // The generation moved past every other rank's recorded grant, so their
  // reset-recovery windows for this mutex just closed: erase the stale
  // entries now (they could never be honored again) instead of letting
  // them accumulate across the life of the peer.
  for (auto& [r, p] : peers_) {
    if (r != rank) p.granted_gen.erase(index);
  }
  trace(out, TraceEvent::Kind::LockGranted, rank, index);
  if (rank == kMasterRank) {
    ++stats_.locks;
    out.push_back(CoherenceAction::wake_master());
    return;
  }
  PeerState& peer = peers_.at(rank);
  peer.granted_gen[index] = ls.generation;
  msg::Message grant_msg;
  grant_msg.type = msg::MsgType::LockGrant;
  grant_msg.sync_id = index;
  grant_msg.rank = kMasterRank;
  grant_msg.sender = cfg_.self;
  // Entry consistency ships only the rows this mutex guards; an unbound
  // mutex (release consistency, the paper's behavior) ships everything.
  grant_msg.payload = pack_pending(peer, ls.bound_rows);
  const std::size_t blocks = ship_.size();
  trace(out, TraceEvent::Kind::UpdatesShipped, rank, index, blocks,
        grant_msg.payload.size());
  send_reply(rank, peer, std::move(grant_msg), out);
}

void CoherenceCore::release(std::uint32_t index, Actions& out) {
  LockState& ls = locks_[index];
  ls.holder = -1;
  while (!ls.waiters.empty()) {
    const std::uint32_t next = ls.waiters.front();
    ls.waiters.pop_front();
    if (next == kMasterRank || peers_.at(next).active) {
      grant(index, next, out);
      return;
    }
  }
}

std::span<const idx::UpdateRun> CoherenceCore::sorted_runs(
    const std::vector<idx::UpdateRun>& runs) {
  // A diff's runs arrive sorted; a remote's payload is untrusted and may
  // list its blocks in any order.  Sorted here once, not once per peer.
  if (std::is_sorted(runs.begin(), runs.end(), run_before)) return runs;
  sorted_.assign(runs.begin(), runs.end());
  std::sort(sorted_.begin(), sorted_.end(), run_before);
  return sorted_;
}

std::vector<std::byte> CoherenceCore::pack_pending(
    PeerState& peer, const std::vector<std::uint32_t>& rows) {
  ship_.clear();
  peer.pending.take(rows, ship_);
  return codec_.pack_payload(ship_);
}

void CoherenceCore::merge_pending(std::uint32_t source_rank,
                                  const std::vector<idx::UpdateRun>& runs) {
  if (runs.empty()) return;
  const std::span<const idx::UpdateRun> add = sorted_runs(runs);
  for (auto& [rank, peer] : peers_) {
    if (rank == source_rank || !peer.active) continue;
    peer.pending.merge(add, merge_buf_);
  }
}

// ---- pending sets ----------------------------------------------------------

namespace {

/// lower_bound's order for a pending set's row slots.
constexpr auto row_below = [](const auto& slot, std::uint32_t row) {
  return slot.row < row;
};

}  // namespace

void CoherenceCore::PendingSet::merge(std::span<const idx::UpdateRun> add,
                                      MergeBuffers& buf) {
  auto slot = rows_.begin();
  for (auto first = add.begin(); first != add.end();) {
    const std::uint32_t row = first->row;
    const auto last =
        std::find_if(first, add.end(),
                     [row](const idx::UpdateRun& r) { return r.row != row; });
    slot = std::lower_bound(slot, rows_.end(), row, row_below);
    if (slot == rows_.end() || slot->row != row) {
      slot = rows_.insert(slot, Row{row, {}});
    }
    merge_runs(slot->runs, std::span(first, last), buf);
    first = last;
  }
}

void CoherenceCore::PendingSet::take(const std::vector<std::uint32_t>& rows,
                                     std::vector<idx::UpdateRun>& out) {
  const auto ship = [&out](Row& r) {
    out.insert(out.end(), r.runs.begin(), r.runs.end());
    r.runs.clear();
  };
  if (rows.empty()) {
    for (Row& r : rows_) ship(r);
    return;
  }
  auto slot = rows_.begin();
  for (const std::uint32_t row : rows) {
    slot = std::lower_bound(slot, rows_.end(), row, row_below);
    if (slot == rows_.end()) return;
    if (slot->row == row) ship(*slot);
  }
}

void CoherenceCore::PendingSet::clear() {
  for (Row& r : rows_) r.runs.clear();
}

void CoherenceCore::enter_barrier(BarrierState& b, std::uint32_t rank) {
  if (b.entered.empty()) {
    // First entry freezes the episode's participant set: the master plus
    // every remote attached right now.  Later joiners sync through their
    // first lock grant instead of blocking an episode they never saw.
    b.participants.clear();
    b.participants.push_back(kMasterRank);
    for (const auto& [r, peer] : peers_) {
      if (peer.active) b.participants.push_back(r);
    }
  }
  if (std::find(b.participants.begin(), b.participants.end(), rank) ==
      b.participants.end()) {
    b.participants.push_back(rank);  // a late joiner opting in by entering
  }
  b.entered.push_back(rank);
}

bool CoherenceCore::barrier_complete(const BarrierState& b) const {
  if (b.entered.empty()) return false;
  if (b.expected != 0) {
    // pthread-style fixed count: the episode closes when `expected`
    // distinct threads (the master among them) have entered.
    return b.entered.size() >= b.expected &&
           std::find(b.entered.begin(), b.entered.end(), kMasterRank) !=
               b.entered.end();
  }
  for (const std::uint32_t rank : b.participants) {
    if (std::find(b.entered.begin(), b.entered.end(), rank) !=
        b.entered.end()) {
      continue;
    }
    // A participant that detached (crashed or joined) no longer blocks.
    if (rank != kMasterRank) {
      auto it = peers_.find(rank);
      if (it == peers_.end() || !it->second.active) continue;
    }
    return false;
  }
  // The master always participates once it entered; an episode can only
  // complete after the master is in.
  return std::find(b.entered.begin(), b.entered.end(), kMasterRank) !=
         b.entered.end();
}

void CoherenceCore::maybe_release_barrier(std::uint32_t index, Actions& out) {
  BarrierState& b = barriers_[index];
  if (!barrier_complete(b)) return;
  // Release exactly the remotes that entered this episode; a mid-episode
  // joiner must not receive a BarrierRelease it never asked for.  Sends to
  // peers that died in the meantime fail in the shell and come back as
  // PeerDetached events after this transition completed — the episode is
  // never seen half-closed.
  for (const std::uint32_t rank : b.entered) {
    if (rank == kMasterRank) continue;
    PeerState& peer = peers_.at(rank);
    if (!peer.active) continue;
    msg::Message release_msg;
    release_msg.type = msg::MsgType::BarrierRelease;
    release_msg.sync_id = index;
    release_msg.rank = kMasterRank;
    release_msg.sender = cfg_.self;
    release_msg.payload = pack_pending(peer, {});
    const std::size_t blocks = ship_.size();
    trace(out, TraceEvent::Kind::UpdatesShipped, rank, index, blocks,
          release_msg.payload.size());
    send_reply(rank, peer, std::move(release_msg), out);
  }
  trace(out, TraceEvent::Kind::BarrierReleased, kMasterRank, index);
  b.entered.clear();
  b.participants.clear();
  ++b.generation;
  out.push_back(CoherenceAction::wake_master());
}

void CoherenceCore::detach(std::uint32_t rank, bool trace_detach,
                           Actions& out) {
  auto it = peers_.find(rank);
  if (it == peers_.end() || !it->second.active) return;
  it->second.active = false;
  if (trace_detach) trace(out, TraceEvent::Kind::Detached, rank, 0);
  it->second.pending.clear();
  // A departed participant may have been the last thing barriers waited on.
  for (std::uint32_t i = 0; i < barriers_.size(); ++i) {
    maybe_release_barrier(i, out);
  }
  // Drop it from lock wait queues and release anything it held.
  for (std::uint32_t i = 0; i < locks_.size(); ++i) {
    LockState& ls = locks_[i];
    ls.waiters.erase(std::remove(ls.waiters.begin(), ls.waiters.end(), rank),
                     ls.waiters.end());
    if (ls.holder == static_cast<std::int64_t>(rank)) {
      release(i, out);
    }
  }
  out.push_back(CoherenceAction::wake_master());
}

void CoherenceCore::violation(std::uint32_t rank, std::string reason,
                              Actions& out) {
  out.push_back(CoherenceAction::detach(rank, std::move(reason)));
  detach(rank, /*trace_detach=*/true, out);
}

// ---- message handling ------------------------------------------------------

bool CoherenceCore::handle_duplicate(std::uint32_t rank, PeerState& peer,
                                     const msg::Message& m, Actions& out) {
  if (m.seq > peer.last_seq) return false;  // fresh
  const auto dropped = [&] {
    ++stats_.duplicates_dropped;
    trace(out, TraceEvent::Kind::DuplicateDropped, rank, m.sync_id, 0, 0,
          m.seq);
  };
  if (m.seq < peer.last_seq) {
    dropped();  // stale retransmit of an already-answered request
    return true;
  }
  // Retransmit of the outstanding request.
  if (m.type == msg::MsgType::LockRequest && m.sync_id < locks_.size()) {
    LockState& ls = locks_[m.sync_id];
    if (ls.holder == static_cast<std::int64_t>(rank)) {
      dropped();
      if (peer.last_reply.has_value()) {
        // The grant was sent and lost: replay it.
        send_reply(rank, peer, *peer.last_reply, out);
        trace(out, TraceEvent::Kind::ReplyResent, rank, m.sync_id, 0, 0,
              m.seq);
      }
      return true;
    }
    if (std::find(ls.waiters.begin(), ls.waiters.end(), rank) !=
        ls.waiters.end()) {
      dropped();  // already queued; the eventual grant answers it
      return true;
    }
    // Neither holder nor waiter: the grant (or queue slot) was invalidated
    // when this peer detached and its locks were reclaimed.  Re-process the
    // request as fresh under the same seq.
    peer.last_reply.reset();
    return false;
  }
  dropped();
  if (peer.last_reply.has_value()) {
    send_reply(rank, peer, *peer.last_reply, out);
    trace(out, TraceEvent::Kind::ReplyResent, rank, m.sync_id, 0, 0, m.seq);
  }
  // else: the reply is still pending (lock queue / open barrier episode) —
  // the original request was recorded, so just drop the duplicate.
  return true;
}

void CoherenceCore::hello(std::uint32_t rank, const msg::Message& m,
                          Actions& out) {
  if (cfg_.layout_runs.empty()) return;  // no local shape to negotiate
  // Shape negotiation: the remote's image tag must describe the same GThV
  // as ours (mig::pair_runs), though sizes/padding may differ per platform.
  std::vector<mig::TagRun> remote_runs;
  try {
    remote_runs = mig::runs_from_tag(tags::Tag::parse(m.tag));
  } catch (const std::exception& e) {
    violation(rank, std::string("home: malformed Hello tag: ") + e.what(),
              out);
    return;
  }
  try {
    mig::pair_runs(remote_runs, cfg_.layout_runs);
  } catch (const std::invalid_argument&) {
    violation(rank,
              "home: remote rank " + std::to_string(rank) +
                  " describes a different GThV (tag \"" + m.tag + "\" vs \"" +
                  cfg_.image_tag_text + "\")",
              out);
  }
}

bool CoherenceCore::apply_updates(std::uint32_t rank, const msg::Message& m,
                                  std::uint32_t sync_id, const char* what,
                                  Actions& out) {
  std::vector<idx::UpdateRun> runs;
  try {
    runs = codec_.apply_payload(m.payload, m.sender);
  } catch (const std::exception& e) {
    violation(rank,
              std::string("home: bad ") + what + " payload: " + e.what(), out);
    return false;
  }
  trace(out, TraceEvent::Kind::UpdatesApplied, rank, sync_id, runs.size(),
        m.payload.size(), m.seq);
  merge_pending(rank, runs);
  return true;
}

void CoherenceCore::handle_message(std::uint32_t rank, const msg::Message& m,
                                   Actions& out) {
  PeerState& peer = peers_[rank];
  if (m.type == msg::MsgType::Hello) {
    // A Hello bypasses duplicate detection — it is the session signal
    // itself, and must never advance the dedup horizon (a reconnect Hello
    // echoes the still-outstanding request seq; advancing last_seq to it
    // would make the upcoming retransmit look like an answered duplicate).
    // seq == 0 on a Hello marks a brand-new incarnation of this rank
    // (thread churn, migration): its requests restart at #1, so the
    // previous incarnation's reliability state must be discarded.  The
    // Hello's sync_id carries an incarnation epoch nonce: a duplicated or
    // reordered copy of an already-seen Hello repeats the recorded epoch
    // and must NOT reset the state again (doing so mid-session would make
    // a retransmit of an already-executed request look fresh).  Every
    // Hello opens or resumes a DSM session, so one without the image tag
    // or a nonzero epoch is a violation.
    if (m.tag.empty() || m.sync_id == 0) {
      violation(rank, "home: Hello without an image tag or epoch", out);
      return;
    }
    if (m.seq == 0 && m.sync_id != peer.hello_epoch) {
      peer.last_seq = 0;
      peer.last_reply.reset();
      peer.granted_gen.clear();
      peer.hello_epoch = m.sync_id;
    }
    hello(rank, m, out);
    return;
  }
  if (m.seq == 0) {
    // Every request is numbered from 1 within its session (RetryCore);
    // seq 0 belongs to the Hello that opens a fresh incarnation.
    violation(rank, "home: unsequenced request", out);
    return;
  }
  if (handle_duplicate(rank, peer, m, out)) return;
  if (m.seq > peer.last_seq) {
    peer.last_seq = m.seq;
    peer.last_reply.reset();
  }
  switch (m.type) {
    case msg::MsgType::LockRequest: {
      if (m.sync_id >= locks_.size()) {
        violation(rank, "remote lock index out of range", out);
        return;
      }
      trace(out, TraceEvent::Kind::LockRequested, rank, m.sync_id);
      LockState& ls = locks_[m.sync_id];
      if (ls.holder == static_cast<std::int64_t>(rank)) {
        // A fresh request for a mutex this rank already holds: re-locking a
        // non-recursive mutex would queue the holder behind itself forever.
        violation(rank, "remote lock while already holding it", out);
        return;
      }
      if (std::find(ls.waiters.begin(), ls.waiters.end(), rank) !=
          ls.waiters.end()) {
        // A remote has one request outstanding, and retransmits reuse its
        // seq: a fresh request from a queued waiter would queue it twice.
        violation(rank, "remote lock while already waiting for it", out);
        return;
      }
      if (ls.holder == -1) {
        grant(m.sync_id, rank, out);
      } else {
        ls.waiters.push_back(rank);
      }
      return;
    }
    case msg::MsgType::UnlockRequest: {
      if (m.sync_id >= locks_.size()) {
        violation(rank, "remote unlock index out of range", out);
        return;
      }
      LockState& ls = locks_[m.sync_id];
      const bool is_holder = ls.holder == static_cast<std::int64_t>(rank);
      if (!is_holder) {
        if (ls.holder != -1) {
          // Someone else legitimately holds the mutex: a real protocol
          // violation (or unrecoverable reset race) — detach.
          violation(rank, "remote unlock without holding the lock", out);
          return;
        }
        // `holder == -1` is the reset-recovery case: the unlock was sent,
        // the connection died before it arrived, and the home reclaimed
        // the lock when the peer detached.
        // The diffs were made under mutual exclusion, so applying them is
        // safe only while nobody has been granted the mutex since — i.e.
        // the lock generation still matches the one recorded at this
        // peer's grant.  A changed generation means another thread
        // acquired, wrote, and released in the meantime: the stale diffs
        // would overwrite its writes, so drop them and detach the sender.
        const auto it = peer.granted_gen.find(m.sync_id);
        if (it == peer.granted_gen.end() || it->second != ls.generation) {
          if (it != peer.granted_gen.end()) {
            peer.granted_gen.erase(it);  // denied: the window is closed
          }
          violation(rank,
                    "remote unlock after the mutex was re-granted (stale "
                    "reset-recovery diffs dropped)",
                    out);
          return;
        }
      }
      if (!apply_updates(rank, m, m.sync_id, "unlock", out)) return;
      peer.granted_gen.erase(m.sync_id);  // the grant is consumed
      if (is_holder) {
        trace(out, TraceEvent::Kind::LockReleased, rank, m.sync_id);
        release(m.sync_id, out);
      }
      msg::Message ack;
      ack.type = msg::MsgType::UnlockAck;
      ack.sync_id = m.sync_id;
      ack.rank = kMasterRank;
      ack.sender = cfg_.self;
      send_reply(rank, peer, std::move(ack), out);
      return;
    }
    case msg::MsgType::BarrierEnter: {
      if (m.sync_id >= barriers_.size()) {
        violation(rank, "remote barrier index out of range", out);
        return;
      }
      BarrierState& bs = barriers_[m.sync_id];
      if (std::find(bs.entered.begin(), bs.entered.end(), rank) !=
          bs.entered.end()) {
        // Entering twice would count this rank twice toward the release.
        violation(rank, "remote barrier entry while already entered", out);
        return;
      }
      if (!apply_updates(rank, m, m.sync_id, "barrier", out)) return;
      trace(out, TraceEvent::Kind::BarrierEntered, rank, m.sync_id);
      enter_barrier(bs, rank);
      maybe_release_barrier(m.sync_id, out);
      return;
    }
    case msg::MsgType::MetricsPull: {
      // Telemetry scrape (docs/OBSERVABILITY.md): the request payload is
      // the remote's serialized NodeSnapshot; fold it into the cluster
      // aggregate and reply with the serialized cluster view.  Sequenced
      // and reply-cached like every other request, so a retransmitted pull
      // is answered from the cache instead of double-counted.
      obs::NodeSnapshot snap;
      if (!obs::NodeSnapshot::deserialize(m.payload.data(), m.payload.size(),
                                          snap) ||
          snap.rank != rank) {
        violation(rank, "home: bad MetricsPull payload", out);
        return;
      }
      aggregator_.report(snap);
      trace(out, TraceEvent::Kind::MetricsScraped, rank, 0, 0,
            m.payload.size(), m.seq);
      msg::Message reply;
      reply.type = msg::MsgType::MetricsReport;
      reply.rank = kMasterRank;
      reply.sender = cfg_.self;
      telemetry().serialize(reply.payload);
      send_reply(rank, peer, std::move(reply), out);
      return;
    }
    case msg::MsgType::JoinRequest: {
      if (!apply_updates(rank, m, 0, "join", out)) return;
      msg::Message ack;
      ack.type = msg::MsgType::JoinAck;
      ack.rank = kMasterRank;
      ack.sender = cfg_.self;
      send_reply(rank, peer, std::move(ack), out);
      trace(out, TraceEvent::Kind::Joined, rank, 0);
      detach(rank, /*trace_detach=*/false, out);
      return;
    }
    default:
      violation(rank, std::string("home: unexpected message ") +
                          msg::msg_type_name(m.type),
                out);
      return;
  }
}

obs::ClusterTelemetry CoherenceCore::telemetry() const {
  obs::NodeSnapshot home;
  home.rank = kMasterRank;
  home.epoch = 0;  // the home never reincarnates within a session
  if (cfg_.telemetry != nullptr) home.metrics = cfg_.telemetry->metrics();
  append_share_stats(home.metrics, stats_);
  return aggregator_.view(home);
}

void CoherenceCore::trace(Actions& out, TraceEvent::Kind kind,
                          std::uint32_t rank, std::uint32_t sync_id,
                          std::uint64_t blocks, std::uint64_t bytes,
                          std::uint64_t req) {
  CoherenceAction a;
  a.kind = CoherenceAction::Kind::Trace;
  a.trace.kind = kind;
  a.trace.rank = rank;
  a.trace.sync_id = sync_id;
  a.trace.blocks = blocks;
  a.trace.bytes = bytes;
  a.trace.req = req;
  out.push_back(std::move(a));
}

}  // namespace hdsm::dsm

#include "dsm/session_shell.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hdsm::dsm {

namespace {

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

void SessionShell::ReactorBridge::on_message(msg::PeerId peer,
                                             msg::Message&& m) {
  shell->cbs_.on_message(rank_of(peer), std::move(m));
}

void SessionShell::ReactorBridge::on_peer_closed(msg::PeerId peer) {
  shell->reactor_closed(gen_of(peer), rank_of(peer));
}

SessionShell::SessionShell(Callbacks cbs, obs::Telemetry* telemetry)
    : cbs_(std::move(cbs)) {
  bridge_.shell = this;
  msg::ReactorOptions ro;
  ro.telemetry = telemetry;
  reactor_ = std::make_unique<msg::Reactor>(ro, bridge_);
}

SessionShell::~SessionShell() { stop(); }

// ---- attach phases ----------------------------------------------------------

void SessionShell::retire_session(std::uint32_t rank) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = sessions_.find(rank);
  if (it == sessions_.end() || !it->second->endpoint) return;
  std::shared_ptr<Session> s = it->second;
  const std::uint32_t gen = s->gen;
  close_locked(*s);
  if (s->started) {
    // The reactor delivers the closed event (after any messages the old
    // transport already queued) on its io thread; wait until that
    // incarnation's on_closed has fully run.
    cv_.wait(lk, [&s, gen, this] { return s->closed_gen >= gen || stopped_; });
  }
  s->started = false;
}

void SessionShell::install_session(std::uint32_t rank,
                                   std::shared_ptr<msg::Endpoint> ep) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopped_) throw std::logic_error("install_session after stop()");
  std::shared_ptr<Session>& sp = sessions_[rank];
  if (!sp) {
    sp = std::make_shared<Session>();
    sp->rank = rank;
  }
  sp->endpoint = std::move(ep);
  ++sp->gen;
  sp->started = false;
}

void SessionShell::start_session(std::uint32_t rank) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(rank);
  if (it == sessions_.end() || !it->second->endpoint) {
    throw std::logic_error("start_session without install_session");
  }
  Session& s = *it->second;
  s.started = true;
  reactor_->add_peer(peer_of(s.gen, rank), s.endpoint);
}

// ---- sending ----------------------------------------------------------------

SessionShell::SendHandle SessionShell::handle(std::uint32_t rank) const {
  SendHandle h;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(rank);
  if (it == sessions_.end() || !it->second->endpoint) return h;
  h.valid = true;
  h.peer = peer_of(it->second->gen, rank);
  return h;
}

void SessionShell::send(const SendHandle& h, msg::Message m) {
  if (!h.valid) return;  // unknown session: drop
  reactor_->send(h.peer, std::move(m));
}

// ---- closing ----------------------------------------------------------------

void SessionShell::close_locked(Session& s) {
  if (!s.endpoint) return;
  if (s.started) {
    // remove_peer closes the endpoint from the io thread and funnels the
    // closed event through the ordinary delivery path.
    reactor_->remove_peer(peer_of(s.gen, s.rank));
    return;
  }
  try {
    s.endpoint->close();
  } catch (...) {
  }
}

void SessionShell::close_session(std::uint32_t rank) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(rank);
  if (it == sessions_.end()) return;
  close_locked(*it->second);
}

// ---- lifecycle --------------------------------------------------------------

void SessionShell::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stopped_ = true;
    // Sessions installed but never started have no reactor peer; nothing
    // else would ever close their endpoints.
    for (auto& [key, sp] : sessions_) {
      if (!sp->started) close_locked(*sp);
    }
  }
  // Retires every peer; queued messages and closed events still deliver to
  // the callbacks before the io thread exits.
  reactor_->stop();
  cv_.notify_all();
}

void SessionShell::quiesce() { reactor_->flush(); }

msg::ReactorStats SessionShell::reactor_stats() const {
  return reactor_->stats();
}

// ---- reactor closed-event bookkeeping ---------------------------------------

void SessionShell::reactor_closed(std::uint32_t gen, std::uint32_t rank) {
  std::shared_ptr<Session> s;
  bool deliver = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(rank);
    if (it != sessions_.end()) {
      s = it->second;
      deliver = gen == s->gen;
    }
  }
  if (deliver && cbs_.on_closed) cbs_.on_closed(rank);
  if (s) {
    std::lock_guard<std::mutex> lk(mu_);
    s->closed_gen = std::max(s->closed_gen, gen);
  }
  cv_.notify_all();
}

}  // namespace hdsm::dsm

#include "dsm/replicated_home.hpp"

#include <stdexcept>
#include <utility>

namespace hdsm::dsm {

ReplicatedHome::ReplicatedHome(tags::TypePtr gthv,
                               const plat::PlatformDesc& platform,
                               ReplicatedHomeOptions opts)
    : opts_(std::move(opts)) {
  auto [primary_side, standby_side] = msg::make_channel_pair();

  ShardedHomeOptions standby_opts = opts_.home;
  standby_opts.replication = nullptr;
  standby_opts.trace = opts_.standby_trace;
  standby_ = std::make_unique<ShardedHome>(gthv, platform, standby_opts);
  standby_->attach_replication(std::move(standby_side));

  sender_ = std::make_unique<ReplicationSender>(std::move(primary_side),
                                                opts_.repl);

  ShardedHomeOptions primary_opts = opts_.home;
  primary_opts.replication = sender_.get();
  primary_ = std::make_unique<ShardedHome>(gthv, platform, primary_opts);
  serving_ = primary_.get();
}

ShardedHome& ReplicatedHome::serving() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!cv_.wait_for(lock, std::chrono::seconds(30),
                    [this] { return !failing_over_; })) {
    throw std::runtime_error("replicated home: handover never completed");
  }
  return *serving_;
}

msg::EndpointPtr ReplicatedHome::attach(std::uint32_t rank) {
  return serving().attach(rank);
}

void ReplicatedHome::attach_endpoint(std::uint32_t rank, msg::EndpointPtr ep) {
  serving().attach_endpoint(rank, std::move(ep));
}

msg::EndpointPtr ReplicatedHome::redial(std::uint32_t rank) {
  ShardedHome& home = serving();
  auto [home_side, remote_side] = msg::make_channel_pair();
  home.resume_endpoint(rank, std::move(home_side));
  return std::move(remote_side);
}

void ReplicatedHome::start() { serving().start(); }

void ReplicatedHome::stop() {
  primary_->stop();
  sender_->close();
  standby_->stop();
}

void ReplicatedHome::kill_primary() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (serving_ != primary_.get()) {
      throw std::logic_error("replicated home: primary already dead");
    }
    failing_over_ = true;
  }
  // Die like a crash, not like a shutdown.  Fence first: from here on no
  // reply escapes the primary, and every frame that escaped *before* the
  // fence had its event appended synchronously (log-before-reply), so the
  // standby already holds it.  Then drop the link *before* stopping the
  // shell: stop() retires every session, and each retirement synthesizes a
  // peer_detached — a graceful-teardown event a crashed coordinator could
  // never have produced.  With the link down those detaches degrade
  // instead of replicating; letting them reach the standby would reclaim
  // every remote's locks and withdraw their barrier entries, turning the
  // failover into a storm of "stale unlock" violations and wedged
  // barriers.
  primary_->fence();
  sender_->close();
  primary_->stop();
}

std::chrono::nanoseconds ReplicatedHome::promote_standby() {
  const auto t0 = std::chrono::steady_clock::now();
  standby_->promote(opts_.repl.epoch + 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    serving_ = standby_.get();
    failing_over_ = false;
  }
  cv_.notify_all();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
}

std::chrono::nanoseconds ReplicatedHome::fail_over() {
  const auto t0 = std::chrono::steady_clock::now();
  kill_primary();
  promote_standby();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
}

}  // namespace hdsm::dsm

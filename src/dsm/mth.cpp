#include "dsm/mth.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <variant>

namespace hdsm::dsm {

namespace {

using Participant = std::variant<ShardedHome*, ShardedRemote*>;

std::mutex g_mutex;
std::map<std::uint32_t, Participant> g_participants;

Participant lookup(std::uint32_t rank) {
  std::lock_guard<std::mutex> lock(g_mutex);
  auto it = g_participants.find(rank);
  if (it == g_participants.end()) {
    throw std::out_of_range("MTh: rank " + std::to_string(rank) +
                            " is not registered");
  }
  return it->second;
}

}  // namespace

void MthRegistry::register_master(ShardedHome& home) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_participants[ShardedHome::kMasterRank] = &home;
}

void MthRegistry::register_remote(ShardedRemote& remote) {
  if (remote.rank() == ShardedHome::kMasterRank) {
    throw std::invalid_argument("MTh: rank 0 is reserved for the master");
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  g_participants[remote.rank()] = &remote;
}

void MthRegistry::unregister(std::uint32_t rank) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_participants.erase(rank);
}

void MthRegistry::reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_participants.clear();
}

bool MthRegistry::registered(std::uint32_t rank) {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_participants.count(rank) != 0;
}

void MTh_lock(std::uint32_t index, std::uint32_t rank) {
  std::visit([index](auto* p) { p->lock(index); }, lookup(rank));
}

void MTh_unlock(std::uint32_t index, std::uint32_t rank) {
  std::visit([index](auto* p) { p->unlock(index); }, lookup(rank));
}

void MTh_barrier(std::uint32_t index, std::uint32_t rank) {
  std::visit([index](auto* p) { p->barrier(index); }, lookup(rank));
}

void MTh_join(std::uint32_t rank) {
  const Participant p = lookup(rank);
  if (auto* home = std::get_if<ShardedHome*>(&p)) {
    (*home)->wait_all_joined();
  } else {
    std::get<ShardedRemote*>(p)->join();
  }
  MthRegistry::unregister(rank);
}

}  // namespace hdsm::dsm

// RAII guard for the distributed mutex — exception-safe critical sections
// over ShardedHome, ShardedRemote, or anything else exposing
// lock(index)/unlock(index).
#pragma once

#include <cstdint>
#include <utility>

namespace hdsm::dsm {

template <typename Node>
class ScopedLock {
 public:
  ScopedLock(Node& node, std::uint32_t index) : node_(&node), index_(index) {
    node_->lock(index_);
  }

  ~ScopedLock() {
    if (node_ != nullptr) node_->unlock(index_);
  }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;
  ScopedLock(ScopedLock&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)), index_(other.index_) {}
  ScopedLock& operator=(ScopedLock&&) = delete;

  /// Release early (idempotent).
  void unlock() {
    if (node_ != nullptr) {
      node_->unlock(index_);
      node_ = nullptr;
    }
  }

 private:
  Node* node_;
  std::uint32_t index_;
};

}  // namespace hdsm::dsm

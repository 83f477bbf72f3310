#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "msg/endpoint.hpp"
#include "msg/spin.hpp"

namespace hdsm::msg {

namespace {

/// How long a blocked consumer polls before it sleeps on the condvar.  A
/// home's reply usually lands inside it, so the round trip pays no futex
/// sleep and wakeup; a longer wait burns at most this much CPU first.
constexpr std::chrono::microseconds kSpinBudget{30};

using Clock = std::chrono::steady_clock;

/// One direction of an in-process duplex channel.
class Queue {
 public:
  void push(Message m) {
    std::shared_ptr<const std::function<void()>> cb;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_.load(std::memory_order_relaxed)) throw ChannelClosed();
      items_.push_back(std::move(m));
      count_.store(items_.size(), std::memory_order_release);
      cb = ready_cb_;
    }
    cv_.notify_one();
    // Invoke outside the queue mutex: the callback wakes a reactor io
    // thread, which may immediately call pop_for() on this queue.
    if (cb) (*cb)();
  }

  Message pop() {
    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    wait(lock, Clock::time_point::max());
    return take();
  }

  /// Nonblocking pop with the drain-then-throw close semantics.  NOT
  /// pop_for(0ms): a zero-timeout condvar wait is still a real futex sleep
  /// whose timer is subject to kernel timer slack (~50us for normal
  /// tasks) — paid by the reactor io thread on every drain's final
  /// are-we-empty probe, which would dominate channel round-trip latency.
  bool try_pop(Message& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty() && !closed_.load(std::memory_order_relaxed)) {
      return false;
    }
    out = take();
    return true;
  }

  bool pop_for(Message& out, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    if (!wait(lock, Clock::now() + timeout)) return false;
    out = take();
    return true;
  }

  void close() {
    std::shared_ptr<const std::function<void()>> cb;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.store(true, std::memory_order_release);
      cb = ready_cb_;
    }
    cv_.notify_all();
    // Close is a readiness event too: the reactor must run the drain-then-
    // ChannelClosed sequence for this peer.
    if (cb) (*cb)();
  }

  /// Install the reactor's readiness callback; fires on every push and on
  /// close.  The shared_ptr lets push()/close() invoke a stable copy after
  /// releasing the queue mutex.
  void set_ready_callback(std::function<void()> cb) {
    std::lock_guard<std::mutex> lock(mutex_);
    ready_cb_ =
        std::make_shared<const std::function<void()>>(std::move(cb));
  }

 private:
  /// The one blocking wait behind pop/pop_for: spin on the lock-free
  /// mirrors for up to kSpinBudget, then sleep on the condvar.  Returns
  /// with `lock` held; false once `deadline` passed with nothing ready.
  bool wait(std::unique_lock<std::mutex>& lock, Clock::time_point deadline) {
    spin_until(
        [this] {
          return count_.load(std::memory_order_acquire) != 0 ||
                 closed_.load(std::memory_order_acquire);
        },
        std::min(Clock::now() + kSpinBudget, deadline));
    lock.lock();
    return cv_.wait_until(lock, deadline, [this] {
      return !items_.empty() || closed_.load(std::memory_order_relaxed);
    });
  }

  /// Pop the front item (mutex held); drained and closed throws.
  Message take() {
    if (items_.empty()) throw ChannelClosed();
    Message m = std::move(items_.front());
    items_.pop_front();
    count_.store(items_.size(), std::memory_order_release);
    return m;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> items_;
  /// Written under `mutex_`; read lock-free by a spinning consumer.
  std::atomic<std::size_t> count_{0};  ///< items_.size()
  std::atomic<bool> closed_{false};
  std::shared_ptr<const std::function<void()>> ready_cb_;
};

struct SharedChannel {
  Queue a_to_b;
  Queue b_to_a;
};

class ChannelEndpoint final : public Endpoint {
 public:
  ChannelEndpoint(std::shared_ptr<SharedChannel> ch, bool is_a)
      : ch_(std::move(ch)), is_a_(is_a) {}

  ~ChannelEndpoint() override { close(); }

  void send(const Message& m) override {
    bytes_sent_ += m.wire_size();
    (is_a_ ? ch_->a_to_b : ch_->b_to_a).push(m);
  }

  Message recv() override {
    Message m = (is_a_ ? ch_->b_to_a : ch_->a_to_b).pop();
    bytes_received_ += m.wire_size();
    return m;
  }

  bool recv_for(Message& out, std::chrono::milliseconds timeout) override {
    if (!(is_a_ ? ch_->b_to_a : ch_->a_to_b).pop_for(out, timeout)) {
      return false;
    }
    bytes_received_ += out.wire_size();
    return true;
  }

  void close() override {
    ch_->a_to_b.close();
    ch_->b_to_a.close();
  }

  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  std::uint64_t bytes_received() const override { return bytes_received_; }

  /// Queue-backed: no fd to poll — readiness is the inbound queue invoking
  /// the callback on push/close.  No eventfd per channel either, so a
  /// thousand simulated remotes cost zero descriptors (the reactor funnels
  /// all callbacks into one wake fd; see reactor.cpp).
  ReactorHook reactor_hook(std::function<void()> on_ready) override {
    (is_a_ ? ch_->b_to_a : ch_->a_to_b).set_ready_callback(
        std::move(on_ready));
    ReactorHook hook;
    hook.uses_callback = true;
    return hook;
  }
  bool try_recv(Message& out) override {
    if (!(is_a_ ? ch_->b_to_a : ch_->a_to_b).try_pop(out)) return false;
    bytes_received_ += out.wire_size();
    return true;
  }

 private:
  std::shared_ptr<SharedChannel> ch_;
  bool is_a_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace

std::pair<EndpointPtr, EndpointPtr> make_channel_pair() {
  auto shared = std::make_shared<SharedChannel>();
  return {std::make_unique<ChannelEndpoint>(shared, true),
          std::make_unique<ChannelEndpoint>(shared, false)};
}

}  // namespace hdsm::msg

#include "msg/throttle.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hdsm::msg {

namespace {

class ThrottledEndpoint final : public Endpoint {
 public:
  ThrottledEndpoint(EndpointPtr inner, std::uint64_t bytes_per_sec)
      : inner_(std::move(inner)), bps_(bytes_per_sec) {
    if (bps_ == 0) {
      throw std::invalid_argument("make_throttled: bytes_per_sec must be > 0");
    }
  }

  void send(const Message& m) override {
    // Advance the shared link clock by this frame's serialization time and
    // sleep until the frame would have finished draining onto the wire.
    const auto cost = std::chrono::nanoseconds(
        m.wire_size() * 1'000'000'000ull / bps_);
    std::chrono::steady_clock::time_point wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      if (link_free_ < now) link_free_ = now;
      link_free_ += cost;
      wake = link_free_;
    }
    std::this_thread::sleep_until(wake);
    inner_->send(m);
  }

  Message recv() override { return inner_->recv(); }
  bool recv_for(Message& out, std::chrono::milliseconds timeout) override {
    return inner_->recv_for(out, timeout);
  }
  void close() override { inner_->close(); }

  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  std::uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }

  ReactorHook reactor_hook(std::function<void()> on_ready) override {
    return inner_->reactor_hook(std::move(on_ready));
  }
  // send_some keeps Endpoint's per-message send() loop, so the modeled link
  // clock stays exact: the reactor's coalescing does not beat the cap.
  bool try_recv(Message& out) override { return inner_->try_recv(out); }
  bool wants_write() const override { return inner_->wants_write(); }
  bool flush_writes() override { return inner_->flush_writes(); }

 private:
  EndpointPtr inner_;
  const std::uint64_t bps_;

  std::mutex mu_;
  std::chrono::steady_clock::time_point link_free_{};  ///< guarded by mu_
};

}  // namespace

EndpointPtr make_throttled(EndpointPtr inner, std::uint64_t bytes_per_sec) {
  return std::make_unique<ThrottledEndpoint>(std::move(inner), bytes_per_sec);
}

}  // namespace hdsm::msg

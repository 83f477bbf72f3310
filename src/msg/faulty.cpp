#include "msg/faulty.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

namespace hdsm::msg {

namespace {

bool kind_eligible(const FaultSpec& spec, MsgType t) {
  return spec.only.empty() ||
         std::find(spec.only.begin(), spec.only.end(), t) != spec.only.end();
}

/// One direction's deterministic fault schedule.  Every message consumes
/// the same number of draws whichever faults are enabled, so flipping one
/// knob does not reshuffle the rest of the schedule.
struct Draws {
  bool drop, duplicate, delay, reorder;
};

Draws draw(std::mt19937_64& rng, const FaultSpec& spec) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Draws d;
  d.drop = u(rng) < spec.drop;
  d.duplicate = u(rng) < spec.duplicate;
  d.delay = u(rng) < spec.delay;
  d.reorder = u(rng) < spec.reorder;
  return d;
}

class FaultyEndpointImpl final : public FaultyEndpoint {
 public:
  FaultyEndpointImpl(EndpointPtr inner, const FaultOptions& opts)
      : inner_(std::move(inner)),
        opts_(opts),
        send_rng_(opts.seed),
        corrupt_send_rng_(opts.seed ^ 0xda942042e4dd58b5ull),
        recv_rng_(opts.seed ^ 0x9e3779b97f4a7c15ull),
        corrupt_recv_rng_(opts.seed ^ 0x2545f4914f6cdd1dull) {}

  ~FaultyEndpointImpl() override { close(); }

  void send(const Message& m) override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    maybe_reset(opts_.send, send_ops_);
    ++send_ops_;
    const Draws d = draw(send_rng_, opts_.send);
    if (kind_eligible(opts_.send, m.type)) {
      // The bits flip once on the wire; a duplicate or a reordered delivery
      // carries the same mangled payload.
      Message mangled;
      const Message& wire =
          corrupt_message(m, opts_.send, corrupt_send_rng_, mangled) ? mangled
                                                                     : m;
      if (d.drop) {
        bump([](FaultCounters& c) { ++c.dropped; });
      } else {
        if (d.delay) {
          bump([](FaultCounters& c) { ++c.delayed; });
          std::this_thread::sleep_for(opts_.send.delay_ms);
        }
        if (d.reorder && opts_.send.reorder_window > 0) {
          bump([](FaultCounters& c) { ++c.reordered; });
          held_.push_back({wire, 0});
        } else {
          inner_->send(wire);
          if (d.duplicate) {
            bump([](FaultCounters& c) { ++c.duplicated; });
            inner_->send(wire);
          }
        }
      }
    } else {
      inner_->send(m);
    }
    // Age the holdback: an entry is released once `reorder_window` newer
    // messages have passed it.
    for (Held& h : held_) ++h.age;
    flush_aged();
  }

  Message recv() override {
    Message m;
    receive(m, [this](Message& in) {
      in = inner_->recv();
      return true;
    });
    return m;
  }

  bool recv_for(Message& out, std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    return receive(out, [this, deadline](Message& in) {
      const auto left = deadline - std::chrono::steady_clock::now();
      return left > left.zero() &&
             inner_->recv_for(
                 in, std::chrono::ceil<std::chrono::milliseconds>(left));
    });
  }

  bool try_recv(Message& out) override {
    return receive(out, [this](Message& in) { return inner_->try_recv(in); });
  }

  void close() override {
    {
      // Held messages are "in flight": deliver them before tearing down,
      // best-effort (the peer may already be gone).
      std::lock_guard<std::mutex> lock(send_mutex_);
      try {
        for (Held& h : held_) inner_->send(h.m);
      } catch (const ChannelClosed&) {
      }
      held_.clear();
    }
    inner_->close();
  }

  ReactorHook reactor_hook(std::function<void()> on_ready) override {
    return inner_->reactor_hook(std::move(on_ready));
  }

  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  std::uint64_t bytes_received() const override {
    return inner_->bytes_received();
  }

  FaultCounters counters() const override {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    return counters_;
  }

  Endpoint& inner() noexcept override { return *inner_; }

 private:
  struct Held {
    Message m;
    std::uint32_t age;
  };

  template <typename Fn>
  void bump(Fn fn) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    fn(counters_);
  }

  /// Maybe flip `spec.corrupt_bits` payload bits.  Returns true and fills
  /// `out` with the mutated copy when corruption hit; otherwise leaves `out`
  /// untouched.  Uses its own RNG stream (one probability draw per eligible
  /// message, position draws only on a hit) so existing drop/dup/delay/
  /// reorder schedules replay bit-for-bit when corruption is enabled.
  bool corrupt_message(const Message& m, const FaultSpec& spec,
                       std::mt19937_64& rng, Message& out) {
    if (spec.corrupt <= 0.0) return false;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const bool hit = u(rng) < spec.corrupt;
    if (!hit || m.payload.empty()) return false;
    out = m;
    std::uniform_int_distribution<std::size_t> pos(0,
                                                   out.payload.size() * 8 - 1);
    const std::uint32_t flips = spec.corrupt_bits == 0 ? 1 : spec.corrupt_bits;
    for (std::uint32_t i = 0; i < flips; ++i) {
      const std::size_t b = pos(rng);
      out.payload[b / 8] ^=
          std::byte{static_cast<unsigned char>(1u << (b % 8))};
    }
    bump([](FaultCounters& c) { ++c.corrupted; });
    return true;
  }

  void maybe_reset(const FaultSpec& spec, std::uint64_t ops) {
    if (spec.reset_after != 0 && ops >= spec.reset_after) {
      bump([](FaultCounters& c) { ++c.resets; });
      inner_->close();
      throw ChannelClosed();
    }
  }

  void flush_aged() {
    while (!held_.empty() && held_.front().age >= opts_.send.reorder_window) {
      inner_->send(held_.front().m);
      held_.pop_front();
    }
  }

  /// The receive-direction schedule, shared by recv, recv_for and try_recv:
  /// a pending duplicate goes first, then messages pulled by `pull` (false
  /// = nothing arrived in time) are drawn against in the order drop,
  /// delay, corrupt, duplicate until one survives.  Returns false only
  /// when `pull` does.
  template <typename Pull>
  bool receive(Message& out, Pull pull) {
    std::lock_guard<std::mutex> lock(recv_mutex_);
    for (;;) {
      if (!pending_.empty()) {
        out = std::move(pending_.front());
        pending_.pop_front();
        return true;
      }
      maybe_reset(opts_.recv, recv_ops_);
      if (!pull(out)) return false;
      ++recv_ops_;
      const Draws d = draw(recv_rng_, opts_.recv);
      if (!kind_eligible(opts_.recv, out.type)) return true;
      if (d.drop) {
        bump([](FaultCounters& c) { ++c.dropped; });
        continue;  // the bytes vanished; pull the next frame
      }
      if (d.delay) {
        bump([](FaultCounters& c) { ++c.delayed; });
        std::this_thread::sleep_for(opts_.recv.delay_ms);
      }
      Message mangled;
      if (corrupt_message(out, opts_.recv, corrupt_recv_rng_, mangled)) {
        out = std::move(mangled);
      }
      if (d.duplicate) {
        bump([](FaultCounters& c) { ++c.duplicated; });
        pending_.push_back(out);
      }
      return true;
    }
  }

  EndpointPtr inner_;
  FaultOptions opts_;

  std::mutex send_mutex_;
  std::mt19937_64 send_rng_;
  std::mt19937_64 corrupt_send_rng_;  ///< guarded by send_mutex_
  std::uint64_t send_ops_ = 0;
  std::deque<Held> held_;

  std::mutex recv_mutex_;
  std::mt19937_64 recv_rng_;
  std::mt19937_64 corrupt_recv_rng_;  ///< guarded by recv_mutex_
  std::uint64_t recv_ops_ = 0;
  std::deque<Message> pending_;

  mutable std::mutex counters_mutex_;
  FaultCounters counters_;
};

}  // namespace

std::unique_ptr<FaultyEndpoint> make_faulty(EndpointPtr inner,
                                            const FaultOptions& opts) {
  return std::make_unique<FaultyEndpointImpl>(std::move(inner), opts);
}

}  // namespace hdsm::msg

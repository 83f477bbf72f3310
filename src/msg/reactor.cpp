#include "msg/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "msg/spin.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::msg {

namespace {

/// How long an idle io thread polls its work flag before it parks in
/// epoll_wait.  Short on purpose: a spinning thread takes the TLB-shootdown
/// IPIs of every remote write fault, so a longer spin slows page-mode
/// episodes (docs/TRANSPORT.md §2.1).
constexpr std::chrono::microseconds kIoSpinBudget{5};

}  // namespace

struct Reactor::Impl {
  struct Peer;

  /// The io thread's wake funnel.  Owned jointly by the reactor and by
  /// every endpoint ready-callback that captured it: a callback firing
  /// after the reactor died still finds live state (the eventfd write goes
  /// nowhere, harmlessly) instead of dangling pointers.
  ///
  /// `work` and `parked` are a Dekker handshake, seq_cst on both sides:
  /// wake() stores `work` then reads `parked`; the io thread stores
  /// `parked` then reads `work`.  At least one side sees the other, so a
  /// wake is never lost, and the eventfd is written only when the io
  /// thread has (or is about to have) blocked in epoll_wait.
  struct IoSignal {
    std::mutex mu;
    std::vector<std::shared_ptr<Peer>> ready;
    /// Set (under `mu`) once the io thread is joined.  `ready` entries own
    /// their Peer, the Peer owns its endpoint, and the endpoint's
    /// ready-callback owns this signal — a cycle no destructor runs for.
    /// stop() clears the vector and closes the funnel so a late callback
    /// cannot re-park a peer in it.
    bool closed = false;
    int evfd = -1;
    std::atomic<bool> work{false};    ///< posted since the io thread looked
    std::atomic<bool> parked{false};  ///< io thread is heading into epoll

    IoSignal() { evfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }
    ~IoSignal() {
      if (evfd >= 0) ::close(evfd);
    }
    void wake() {
      work.store(true, std::memory_order_seq_cst);
      // exchange, not load: of a burst of wakers only the first writes.
      if (parked.exchange(false, std::memory_order_seq_cst)) {
        std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t r = ::write(evfd, &one, sizeof(one));
      }
    }
  };

  /// Per-connection state.  Fields below the marker are owned by the io
  /// thread; other threads only touch `id`/`ep` (immutable after add) and
  /// the `ready`/`dead` latches.
  struct Peer {
    PeerId id = 0;
    std::shared_ptr<Endpoint> ep;
    ReactorHook hook;
    /// Callback latch: set on ready-signal, cleared by the io thread just
    /// before draining, so each burst costs one funnel entry.
    std::atomic<bool> ready{false};
    /// Set by remove_peer before the Remove command posts: sends observed
    /// after a close must be dropped, not transmitted — the async analogue
    /// of a blocking send-after-close ChannelClosed.  Inbound frames the
    /// endpoint already queued still deliver (drain-then-retire).
    std::atomic<bool> dead{false};

    // -- io-thread-owned from here --
    std::vector<Message> out;  ///< outbound FIFO (contiguous for send_some)
    std::size_t out_head = 0;
    std::size_t out_bytes = 0;
    bool in_flush = false;  ///< listed in flush_list_
    bool epollout = false;
    bool registered = false;  ///< fd present in the epoll set
    bool closed = false;      ///< retired (closed event queued)
  };

  /// One flush() barrier, settled by the io thread.
  struct FlushTicket {
    std::mutex mu;
    std::condition_variable cv;
    bool settled = false;
  };

  struct Command {
    enum class Kind { Add, Remove, Send, Flush };
    Kind kind = Kind::Add;
    std::shared_ptr<Peer> peer;
    Message m;
    std::shared_ptr<FlushTicket> ticket;  ///< Flush only
  };

  /// Set while the io thread runs its loop: a handler's replies enqueue
  /// straight onto the peer's write queue — the io thread owns all io
  /// state, so no command and no wake are needed.
  static thread_local const Impl* tl_self;

  ReactorOptions opts_;
  ReactorHandler& handler_;

  std::mutex registry_mu_;
  std::unordered_map<PeerId, std::shared_ptr<Peer>> registry_;

  int epfd_ = -1;
  std::shared_ptr<IoSignal> signal_ = std::make_shared<IoSignal>();
  std::mutex inbox_mu_;
  std::vector<Command> inbox_;
  std::thread thr_;

  // -- io-thread-local --
  std::unordered_map<PeerId, std::shared_ptr<Peer>> peers_;
  /// Retired peers whose on_peer_closed is still to run.  Closed events
  /// are deferred to the top of the loop: retire_peer may run inside a
  /// handler (a reply that trips the backpressure bound), and the handler
  /// must not be re-entered.
  std::vector<std::shared_ptr<Peer>> closed_backlog_;
  std::vector<std::shared_ptr<Peer>> flush_list_;  ///< queued output
  std::vector<std::shared_ptr<FlushTicket>> flush_waiters_;
  /// Peers retired this iteration: keeps epoll_event.data.ptr valid for
  /// the rest of the batch; cleared at the top of the next iteration.
  std::vector<std::shared_ptr<Peer>> retired_;
  /// Peers with an fd in the epoll set: while any exist the loop never
  /// spins, so socket readiness is never left waiting behind the budget.
  std::size_t fd_peers_ = 0;

  std::atomic<bool> stop_{false};
  std::mutex join_mu_;
  bool joined_ = false;

  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> flush_batches_{0};
  std::atomic<std::uint64_t> backpressure_closes_{0};

  obs::Counter* c_frames_in_ = nullptr;
  obs::Counter* c_frames_out_ = nullptr;
  obs::Counter* c_parks_ = nullptr;
  obs::Counter* c_flush_batches_ = nullptr;
  obs::Counter* c_backpressure_ = nullptr;
  obs::Gauge* g_queue_bytes_ = nullptr;

  Impl(const ReactorOptions& opts, ReactorHandler& handler)
      : opts_(opts), handler_(handler) {
    if (obs::Telemetry* t = opts_.telemetry) {
      c_frames_in_ = &t->registry().counter("reactor.frames_in");
      c_frames_out_ = &t->registry().counter("reactor.frames_out");
      c_parks_ = &t->registry().counter("reactor.parks");
      c_flush_batches_ = &t->registry().counter("reactor.flush_batches");
      c_backpressure_ = &t->registry().counter("reactor.backpressure_closes");
      g_queue_bytes_ = &t->registry().gauge("reactor.write_queue_bytes");
    }
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0 || signal_->evfd < 0) {
      throw std::runtime_error("reactor: epoll/eventfd creation failed");
    }
    epoll_event ev{};
    // Edge-triggered: each write posts one wake and the counter value is
    // never consumed (the ready funnel / inbox carry the actual work), so
    // the io thread never has to spend read() syscalls draining the
    // eventfd — those reads sat directly on the wakeup-to-handler path.
    ev.events = EPOLLIN | EPOLLET;
    ev.data.ptr = nullptr;  // nullptr = the wake eventfd
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, signal_->evfd, &ev);
    thr_ = std::thread([this] { io_loop(); });
  }

  ~Impl() {
    stop();
    if (epfd_ >= 0) ::close(epfd_);
  }

  // -- counters ---------------------------------------------------------------

  void bump(std::atomic<std::uint64_t>& a, obs::Counter* c,
            std::uint64_t n = 1) {
    a.fetch_add(n, std::memory_order_relaxed);
    if (c != nullptr) c->add(n);
  }

  // -- public API -------------------------------------------------------------

  void add_peer(PeerId id, std::shared_ptr<Endpoint> ep) {
    if (stop_.load(std::memory_order_acquire)) {
      throw std::logic_error("reactor: add_peer after stop");
    }
    auto p = std::make_shared<Peer>();
    p->id = id;
    p->ep = std::move(ep);
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      if (!registry_.emplace(id, p).second) {
        throw std::invalid_argument("reactor: peer id already registered");
      }
    }
    // Install the hook before posting the add: a message already queued on
    // the endpoint latches the funnel right away, so nothing is missed in
    // the window before the io thread installs the peer.
    std::shared_ptr<IoSignal> sig = signal_;
    std::weak_ptr<Peer> wp = p;
    p->hook = p->ep->reactor_hook([sig, wp] {
      std::shared_ptr<Peer> sp = wp.lock();
      if (!sp) return;
      if (!sp->ready.exchange(true, std::memory_order_acq_rel)) {
        {
          std::lock_guard<std::mutex> lk(sig->mu);
          // After stop() the funnel is closed: parking the peer here would
          // re-create the endpoint→callback→signal→peer ownership cycle the
          // shutdown path just broke, and nothing will ever drain it.
          if (sig->closed) return;
          sig->ready.push_back(std::move(sp));
        }
        sig->wake();
      }
    });
    if (!p->hook.reactor_capable()) {
      std::lock_guard<std::mutex> lk(registry_mu_);
      registry_.erase(id);
      throw std::invalid_argument("reactor: endpoint is not reactor-capable");
    }
    post(Command{Command::Kind::Add, std::move(p), {}, {}});
  }

  void remove_peer(PeerId id) {
    std::shared_ptr<Peer> p;
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      auto it = registry_.find(id);
      if (it == registry_.end()) return;
      p = it->second;
    }
    // Gate sends immediately: once a caller decided to close this peer, a
    // reply its handler produces moments later must not beat the Remove
    // command to the wire.
    p->dead.store(true, std::memory_order_release);
    post(Command{Command::Kind::Remove, std::move(p), {}, {}});
  }

  void send(PeerId id, Message m) {
    if (tl_self == this) {
      // The handler is running on the io thread itself, which owns every
      // peer's write queue — enqueue directly, no command, no wake.  This
      // holds after stop() too: the iteration flushes the queue before the
      // loop exits, so a reply racing a stop (the handler woke a thread
      // that then stopped the reactor) still reaches its peer.
      auto it = peers_.find(id);
      if (it != peers_.end()) {
        enqueue_out(it->second, std::move(m));
        return;
      }
      // Not installed yet (Add still in the inbox): fall through to the
      // command path, which lands after the Add.
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::shared_ptr<Peer> p;
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      auto it = registry_.find(id);
      if (it == registry_.end()) return;
      p = it->second;
    }
    if (p->dead.load(std::memory_order_acquire)) return;
    post(Command{Command::Kind::Send, std::move(p), std::move(m), {}});
  }

  /// Settlement barrier: returns once every command posted before the call
  /// has executed, its queued writes were attempted, and every resulting
  /// message / closed event was delivered.  Never call from the io thread.
  void flush() {
    if (stop_.load(std::memory_order_acquire)) return;
    auto t = std::make_shared<FlushTicket>();
    post(Command{Command::Kind::Flush, nullptr, {}, t});
    std::unique_lock<std::mutex> lk(t->mu);
    while (!t->settled && !stop_.load(std::memory_order_acquire)) {
      t->cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lk(join_mu_);
    if (joined_) return;
    joined_ = true;
    signal_->wake();
    if (thr_.joinable()) thr_.join();
    std::lock_guard<std::mutex> slk(signal_->mu);
    signal_->closed = true;
    signal_->ready.clear();
  }

  ReactorStats stats() const {
    ReactorStats s;
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.frames_out = frames_out_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    s.flush_batches = flush_batches_.load(std::memory_order_relaxed);
    s.backpressure_closes =
        backpressure_closes_.load(std::memory_order_relaxed);
    return s;
  }

  void post(Command cmd) {
    {
      std::lock_guard<std::mutex> lk(inbox_mu_);
      inbox_.push_back(std::move(cmd));
    }
    signal_->wake();
  }

  // -- io-thread internals ----------------------------------------------------

  void dispatch_message(PeerId id, Message&& m) {
    try {
      handler_.on_message(id, std::move(m));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hdsm reactor: handler threw for peer %llu: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
  }

  void dispatch_closed(PeerId id) {
    try {
      handler_.on_peer_closed(id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hdsm reactor: handler threw for peer %llu: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
  }

  /// Close and unhook `p`, dropping queued output; its closed event is
  /// deferred to closed_backlog_, after every already-delivered message.
  void retire_peer(const std::shared_ptr<Peer>& p) {
    if (p->closed) return;
    p->closed = true;
    try {
      p->ep->close();
    } catch (...) {
    }
    if (p->registered) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, p->hook.fd, nullptr);
      --fd_peers_;
    }
    p->registered = false;
    p->out.clear();
    p->out_head = 0;
    p->out_bytes = 0;
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      auto it = registry_.find(p->id);
      if (it != registry_.end() && it->second == p) registry_.erase(it);
    }
    auto it = peers_.find(p->id);
    if (it != peers_.end() && it->second == p) {
      retired_.push_back(p);  // keep alive through this event batch
      peers_.erase(it);
    }
    closed_backlog_.push_back(p);
  }

  /// Run the handler on every decodable frame queued on `p` (frame
  /// batching: one wakeup drains the whole burst).
  void drain_peer(const std::shared_ptr<Peer>& p) {
    if (p->closed) return;
    p->ready.store(false, std::memory_order_release);
    for (;;) {
      Message m;
      bool got = false;
      try {
        got = p->ep->try_recv(m);
      } catch (const ChannelClosed&) {
        retire_peer(p);
        return;
      } catch (const std::exception& e) {
        // Frame-decode error from a misbehaving transport: close and let
        // the shell detach it like a crashed cluster member.
        std::fprintf(stderr, "hdsm reactor: closing peer %llu: %s\n",
                     static_cast<unsigned long long>(p->id), e.what());
        retire_peer(p);
        return;
      }
      if (!got) return;
      bump(frames_in_, c_frames_in_);
      dispatch_message(p->id, std::move(m));
    }
  }

  void deliver_closed() {
    while (!closed_backlog_.empty()) {
      std::vector<std::shared_ptr<Peer>> list;
      list.swap(closed_backlog_);
      for (const auto& p : list) dispatch_closed(p->id);
    }
  }

  void set_epollout(Peer& p, bool on) {
    if (p.hook.fd < 0 || p.epollout == on || !p.registered) return;
    epoll_event ev{};
    ev.events = on ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.ptr = &p;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, p.hook.fd, &ev);
    p.epollout = on;
  }

  void enqueue_out(const std::shared_ptr<Peer>& p, Message&& m) {
    if (p->closed || p->dead.load(std::memory_order_acquire)) return;
    const std::size_t sz = m.wire_size();
    if (p->out_bytes + sz > opts_.max_write_queue_bytes) {
      // Slow-consumer eviction (docs/TRANSPORT.md): bounding memory wins
      // over keeping a peer that has stopped draining its socket.  The
      // shell sees the standard closed path and detaches it.
      bump(backpressure_closes_, c_backpressure_);
      std::fprintf(stderr,
                   "hdsm reactor: evicting slow consumer peer %llu "
                   "(%zu queued bytes)\n",
                   static_cast<unsigned long long>(p->id), p->out_bytes);
      retire_peer(p);
      return;
    }
    p->out.push_back(std::move(m));
    p->out_bytes += sz;
    if (!p->in_flush) {
      p->in_flush = true;
      flush_list_.push_back(p);
    }
  }

  /// Hand the queued FIFO to the endpoint in gathered batches.  Partial
  /// progress (kernel buffer full) arms EPOLLOUT and leaves the tail
  /// queued.
  void flush_peer(const std::shared_ptr<Peer>& p) {
    if (p->closed) return;
    try {
      if (p->ep->wants_write() && !p->ep->flush_writes()) {
        set_epollout(*p, true);
        return;
      }
      while (p->out_head < p->out.size()) {
        const std::size_t n = p->out.size() - p->out_head;
        const std::size_t k = p->ep->send_some(p->out.data() + p->out_head, n);
        if (k > 0) {
          bump(frames_out_, c_frames_out_, k);
          bump(flush_batches_, c_flush_batches_);
          for (std::size_t i = 0; i < k; ++i) {
            p->out_bytes -= p->out[p->out_head + i].wire_size();
          }
          p->out_head += k;
        }
        if (k < n || p->ep->wants_write()) {
          set_epollout(*p, true);
          break;
        }
      }
    } catch (const std::exception&) {
      retire_peer(p);
      return;
    }
    if (p->out_head >= p->out.size()) {
      p->out.clear();
      p->out_head = 0;
      if (!p->ep->wants_write()) set_epollout(*p, false);
    } else if (p->out_head > 1024) {
      p->out.erase(p->out.begin(),
                   p->out.begin() + static_cast<std::ptrdiff_t>(p->out_head));
      p->out_head = 0;
    }
  }

  /// Attempt every write this iteration queued.
  void flush_queued() {
    if (flush_list_.empty()) return;
    if (g_queue_bytes_ != nullptr) {
      std::int64_t total = 0;
      for (const auto& p : flush_list_) {
        if (!p->closed) total += static_cast<std::int64_t>(p->out_bytes);
      }
      g_queue_bytes_->set(total);
    }
    obs::SpanScope span(opts_.telemetry, obs::SpanKind::ReactorFlush, 0);
    // Nothing appends during the walk (flush_peer never calls enqueue_out),
    // and clear() keeps the buffer: no malloc/free per message on the
    // happy path.
    for (const auto& p : flush_list_) {
      p->in_flush = false;
      flush_peer(p);
    }
    flush_list_.clear();
  }

  void install_peer(const std::shared_ptr<Peer>& p) {
    peers_[p->id] = p;
    if (p->hook.fd >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;  // level-triggered: pre-add data re-fires
      ev.data.ptr = p.get();
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, p->hook.fd, &ev) != 0) {
        retire_peer(p);
        return;
      }
      p->registered = true;
      ++fd_peers_;
    }
    drain_peer(p);  // anything that arrived before the install
  }

  /// Foreign commands (attach / detach / master sends / flush barriers).
  void run_commands(std::vector<Command>& cmds) {
    {
      std::lock_guard<std::mutex> lk(inbox_mu_);
      cmds.swap(inbox_);
    }
    for (Command& c : cmds) {
      switch (c.kind) {
        case Command::Kind::Add:
          install_peer(c.peer);
          break;
        case Command::Kind::Remove:
          // Deliver what the endpoint already queued, then retire:
          // drain-then-ChannelClosed, like a blocking endpoint.
          drain_peer(c.peer);
          retire_peer(c.peer);
          break;
        case Command::Kind::Send:
          enqueue_out(c.peer, std::move(c.m));
          break;
        case Command::Kind::Flush:
          // Settled at the end of the iteration, after the writes the
          // earlier commands queued have been attempted.
          flush_waiters_.push_back(std::move(c.ticket));
          break;
      }
    }
    cmds.clear();
  }

  void settle_flush_waiters() {
    for (auto& t : flush_waiters_) {
      std::lock_guard<std::mutex> lk(t->mu);
      t->settled = true;
      t->cv.notify_all();
    }
    flush_waiters_.clear();
  }

  /// The loop polls instead of parking while it is stopping or still owes
  /// a closed event or a flush settlement; otherwise it parks until woken.
  bool must_poll() const {
    return stop_.load(std::memory_order_acquire) ||
           !closed_backlog_.empty() || !flush_waiters_.empty();
  }

  /// Spin, then park.  True when work was posted within the spin budget or
  /// raced the handshake; false once `parked` is published with nothing
  /// pending, and the caller must block in epoll_wait.
  bool await_work() {
    IoSignal& s = *signal_;
    if (fd_peers_ == 0 &&
        spin_until([&s] { return s.work.load(std::memory_order_relaxed); },
                   std::chrono::steady_clock::now() + kIoSpinBudget)) {
      return true;
    }
    s.parked.store(true, std::memory_order_seq_cst);
    if (!s.work.load(std::memory_order_seq_cst)) return false;
    s.parked.store(false, std::memory_order_relaxed);
    return true;
  }

  void io_loop() {
    if (opts_.telemetry != nullptr) {
      opts_.telemetry->set_thread_label("io-0");
    }
    tl_self = this;
    std::vector<std::shared_ptr<Peer>> local_ready;
    std::vector<Command> cmds;
    for (;;) {
      const bool park = !must_poll() && !await_work();
      std::array<epoll_event, 64> events;
      int ne = 0;
      // With no fd peers the epoll set holds only the wake eventfd, which
      // has nothing to report unless the thread parked.
      if (park || fd_peers_ != 0) {
        ne = ::epoll_wait(epfd_, events.data(),
                          static_cast<int>(events.size()), park ? -1 : 0);
      }
      if (park) {
        signal_->parked.store(false, std::memory_order_relaxed);
        bump(parks_, c_parks_);
      }
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      retired_.clear();  // previous batch's pointers are dead now
      if (ne < 0) ne = 0;  // EINTR
      // Cleared before the inbox and the funnel are read: a post that
      // misses those reads sets it again, so the next iteration sees it.
      const bool busy =
          signal_->work.exchange(false, std::memory_order_seq_cst) || ne > 0;
      const bool stopping = stop_.load(std::memory_order_acquire);
      {
        // Every iteration that handled work, whether it came out of the
        // spin or out of epoll_wait (this span is the home's handle time).
        obs::SpanScope span(busy ? opts_.telemetry : nullptr,
                            obs::SpanKind::ReactorWake, 0);
        for (int i = 0; i < ne; ++i) {
          if (events[i].data.ptr == nullptr) {
            continue;  // wake eventfd (edge-triggered, never read)
          }
          Peer* praw = static_cast<Peer*>(events[i].data.ptr);
          auto it = peers_.find(praw->id);
          if (it == peers_.end() || it->second.get() != praw) continue;
          std::shared_ptr<Peer> p = it->second;
          if ((events[i].events & EPOLLOUT) != 0) flush_peer(p);
          if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
            drain_peer(p);
          }
        }
        run_commands(cmds);
        // Callback-funnel peers (in-process channels).
        {
          std::lock_guard<std::mutex> lk(signal_->mu);
          local_ready.swap(signal_->ready);
        }
        for (const auto& p : local_ready) drain_peer(p);
        local_ready.clear();
        // Top level of the loop — safe to run on_peer_closed directly.
        deliver_closed();
        flush_queued();
        // A write failure above retires its peer; the barrier then waits a
        // (zero-timeout) iteration for that closed event to deliver.
        if (closed_backlog_.empty()) settle_flush_waiters();
      }
      if (stopping) break;
    }
    // Shutdown: retire every live peer; their queued inbound frames and
    // closed events still reach the handler.
    std::vector<std::shared_ptr<Peer>> live;
    live.reserve(peers_.size());
    for (auto& [id, p] : peers_) live.push_back(p);
    for (const auto& p : live) {
      drain_peer(p);
      retire_peer(p);
    }
    deliver_closed();
    retired_.clear();
    // Release any barrier still parked here: its guarantee is moot once the
    // reactor is stopping, and the caller must not hang.
    settle_flush_waiters();
    tl_self = nullptr;
  }
};

thread_local const Reactor::Impl* Reactor::Impl::tl_self = nullptr;

Reactor::Reactor(const ReactorOptions& opts, ReactorHandler& handler)
    : impl_(std::make_unique<Impl>(opts, handler)) {}

Reactor::~Reactor() { impl_->stop(); }

void Reactor::add_peer(PeerId id, std::shared_ptr<Endpoint> ep) {
  impl_->add_peer(id, std::move(ep));
}

void Reactor::remove_peer(PeerId id) { impl_->remove_peer(id); }

void Reactor::send(PeerId id, Message m) { impl_->send(id, std::move(m)); }

void Reactor::flush() { impl_->flush(); }

void Reactor::stop() { impl_->stop(); }

ReactorStats Reactor::stats() const { return impl_->stats(); }

}  // namespace hdsm::msg

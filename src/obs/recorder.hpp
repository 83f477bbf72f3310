// Flight recorder: per-thread lock-free span rings with bounded memory.
//
// Each thread that records spans gets its own ring (a "lane"), registered
// on first use and cached thread-locally, so the push path never takes a
// lock and never contends with other writers.  Rings overwrite oldest when
// full; the number of records pushed beyond capacity is reported as
// `dropped` — recording never blocks and never allocates.
//
// Concurrency: exactly one writer per ring (the owning thread); snapshots
// may run concurrently from any thread.  Each slot is a per-slot seqlock
// built from atomics with no fences, so TSan checks its ordering: the
// writer invalidates the slot's sequence tag, release-stores the fields,
// then release-stores the tag; the reader acquire-loads the fields
// between two tag loads and discards the copy if the tag moved (a field
// from the writer's next lap carries the invalidation with it).  On x86
// every one of these is a plain move.  A snapshot taken while
// the writer laps it loses only the slots actively being overwritten.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hdsm::obs {

/// What a span measured.  Kinds double as histogram names (see
/// span_kind_name) and Chrome-trace event names.
enum class SpanKind : std::uint8_t {
  Episode = 0,   ///< one lock/unlock/barrier/join episode end-to-end
  LockWait,      ///< waiting for a LockGrant (id = lock id)
  BarrierWait,   ///< waiting for a BarrierRelease (id = barrier id)
  ReplyWait,     ///< one request→reply round trip (id = msg type)
  Diff,          ///< twin/diff scan + run mapping (t_index)
  Tag,           ///< tag generation (t_tag)
  Pack,          ///< packing runs into wire blocks (t_pack)
  Unpack,        ///< payload decode + tag parse (t_unpack)
  Convert,       ///< conversion / memcpy apply (t_conv)
  Retry,         ///< instant: a request was retransmitted (id = attempt)
  Reconnect,     ///< instant: transport re-established (id = count)
  Scrape,        ///< MetricsPull round trip / aggregation
  ReactorWake,   ///< one reactor io-thread wakeup's event processing
  ReactorFlush,  ///< one coalesced outbound flush sweep (id = io index)
  ReplAppend,    ///< one log append round trip to the standby (id = log index)
  Failover,      ///< standby promotion: fence + master reset + start
  CodecEncode,   ///< codec encode inside a pack episode (id = blocks)
  CodecDecode,   ///< codec decode inside a validate pass (id = blocks)
  kCount
};

inline constexpr std::size_t kSpanKindCount =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_kind_name(SpanKind k) noexcept;

struct SpanRecord {
  std::uint64_t start_ns = 0;  ///< ScopedTimer::now_ns timeline
  std::uint64_t dur_ns = 0;    ///< 0 for instant events
  std::uint64_t id = 0;        ///< kind-specific detail (lock id, attempt…)
  SpanKind kind = SpanKind::Episode;
};

/// Fixed-capacity overwrite-oldest span ring.  Single writer, concurrent
/// snapshot readers.
class SpanRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit SpanRing(std::size_t capacity);

  void push(std::uint64_t start_ns, std::uint64_t dur_ns, SpanKind kind,
            std::uint64_t id) noexcept {
    const std::uint64_t seq = pushed_.load(std::memory_order_relaxed);
    Slot& s = slots_[seq & mask_];
    // Per-slot seqlock write protocol: invalidate → fields → publish.  The
    // fields are release stores, so a reader whose acquire load sees any
    // of them also sees the invalidation ordered before it.
    s.tag.store(kInvalid, std::memory_order_relaxed);
    s.start.store(start_ns, std::memory_order_release);
    s.dur.store(dur_ns, std::memory_order_release);
    s.meta.store(pack_meta(kind, id), std::memory_order_release);
    s.tag.store(seq, std::memory_order_release);
    pushed_.store(seq + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  /// Records no longer retrievable (overwritten).  Monotonic.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = pushed();
    return n > slots_.size() ? n - slots_.size() : 0;
  }

  /// Append the currently retrievable records (oldest first) to `out`.
  /// Safe concurrently with the writer; slots the writer is overwriting
  /// mid-copy are skipped.
  void snapshot(std::vector<SpanRecord>& out) const;

 private:
  static constexpr std::uint64_t kInvalid = ~0ull;

  static std::uint64_t pack_meta(SpanKind kind, std::uint64_t id) noexcept {
    return (id << 8) | static_cast<std::uint64_t>(kind);
  }

  struct Slot {
    std::atomic<std::uint64_t> tag{kInvalid};
    std::atomic<std::uint64_t> start{0};
    std::atomic<std::uint64_t> dur{0};
    std::atomic<std::uint64_t> meta{0};
  };

  std::atomic<std::uint64_t> pushed_{0};
  std::uint64_t mask_;
  std::vector<Slot> slots_;
};

/// One thread's lane in a recorder snapshot.
struct LaneSnapshot {
  std::uint32_t lane = 0;  ///< stable small integer (Chrome trace tid)
  std::string label;       ///< e.g. "master", "recv-rank1", "io-0"
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::vector<SpanRecord> spans;  ///< oldest first
};

struct RecorderSnapshot {
  std::vector<LaneSnapshot> lanes;  ///< ascending lane index
  std::uint64_t dropped = 0;        ///< sum over lanes

  std::size_t total_spans() const {
    std::size_t n = 0;
    for (const auto& l : lanes) n += l.spans.size();
    return n;
  }
};

/// Owns one SpanRing per recording thread.  `ring()` registers the calling
/// thread on first use (mutex) and is lock-free afterwards via a
/// thread-local cache keyed on a process-unique recorder id (never reused,
/// so a stale cache entry can't dangle into a new recorder).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t ring_capacity);

  /// The calling thread's ring.  First call per (thread, recorder)
  /// registers a lane; subsequent calls are a thread-local hit.
  SpanRing& ring();

  /// Label the calling thread's lane (registers it if needed).
  void set_thread_label(const std::string& label);

  std::uint64_t dropped() const;
  RecorderSnapshot snapshot() const;

 private:
  struct Lane {
    std::uint32_t index;
    std::string label;
    SpanRing ring;
    Lane(std::uint32_t i, std::string lbl, std::size_t cap)
        : index(i), label(std::move(lbl)), ring(cap) {}
  };

  Lane& lane_for_this_thread();

  const std::uint64_t id_;  ///< process-unique, for the TLS cache key
  const std::size_t ring_capacity_;
  mutable std::mutex mu_;
  std::map<std::thread::id, std::size_t> by_thread_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace hdsm::obs

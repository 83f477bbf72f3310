#include "obs/recorder.hpp"

namespace hdsm::obs {

const char* span_kind_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::Episode: return "episode";
    case SpanKind::LockWait: return "lock_wait";
    case SpanKind::BarrierWait: return "barrier_wait";
    case SpanKind::ReplyWait: return "reply_wait";
    case SpanKind::Diff: return "diff";
    case SpanKind::Tag: return "tag";
    case SpanKind::Pack: return "pack";
    case SpanKind::Unpack: return "unpack";
    case SpanKind::Convert: return "convert";
    case SpanKind::Retry: return "retry";
    case SpanKind::Reconnect: return "reconnect";
    case SpanKind::Scrape: return "scrape";
    case SpanKind::ReactorWake: return "reactor_wake";
    case SpanKind::ReactorFlush: return "reactor_flush";
    case SpanKind::ReplAppend: return "repl_append";
    case SpanKind::Failover: return "failover";
    case SpanKind::CodecEncode: return "codec_encode";
    case SpanKind::CodecDecode: return "codec_decode";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

SpanRing::SpanRing(std::size_t capacity)
    : mask_(round_up_pow2(capacity) - 1), slots_(round_up_pow2(capacity)) {}

void SpanRing::snapshot(std::vector<SpanRecord>& out) const {
  const std::uint64_t n = pushed_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t lo = n > cap ? n - cap : 0;
  out.reserve(out.size() + static_cast<std::size_t>(n - lo));
  for (std::uint64_t i = lo; i < n; ++i) {
    const Slot& s = slots_[i & mask_];
    if (s.tag.load(std::memory_order_acquire) != i) continue;
    SpanRecord r;
    r.start_ns = s.start.load(std::memory_order_acquire);
    r.dur_ns = s.dur.load(std::memory_order_acquire);
    const std::uint64_t meta = s.meta.load(std::memory_order_acquire);
    // Recheck: if the writer lapped us mid-copy, a field we read was
    // release-stored after the tag's invalidation, and our acquire load of
    // it makes that invalidation visible here — a stable tag means a
    // stable copy.
    if (s.tag.load(std::memory_order_relaxed) != i) continue;
    r.id = meta >> 8;
    r.kind = static_cast<SpanKind>(meta & 0xFF);
    out.push_back(r);
  }
}

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct TlsRingCache {
  std::uint64_t recorder_id = 0;
  SpanRing* ring = nullptr;
};

thread_local TlsRingCache tls_ring_cache;

}  // namespace

FlightRecorder::FlightRecorder(std::size_t ring_capacity)
    : id_(next_recorder_id()), ring_capacity_(ring_capacity) {}

FlightRecorder::Lane& FlightRecorder::lane_for_this_thread() {
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> g(mu_);
  auto it = by_thread_.find(tid);
  if (it != by_thread_.end()) return *lanes_[it->second];
  const std::uint32_t index = static_cast<std::uint32_t>(lanes_.size());
  lanes_.push_back(std::make_unique<Lane>(
      index, "thread-" + std::to_string(index), ring_capacity_));
  by_thread_.emplace(tid, lanes_.size() - 1);
  return *lanes_.back();
}

SpanRing& FlightRecorder::ring() {
  if (tls_ring_cache.recorder_id == id_ && tls_ring_cache.ring != nullptr) {
    return *tls_ring_cache.ring;
  }
  Lane& lane = lane_for_this_thread();
  tls_ring_cache = TlsRingCache{id_, &lane.ring};
  return lane.ring;
}

void FlightRecorder::set_thread_label(const std::string& label) {
  Lane& lane = lane_for_this_thread();
  std::lock_guard<std::mutex> g(mu_);
  lane.label = label;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->ring.dropped();
  return total;
}

RecorderSnapshot FlightRecorder::snapshot() const {
  RecorderSnapshot snap;
  std::lock_guard<std::mutex> g(mu_);
  snap.lanes.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    LaneSnapshot ls;
    ls.lane = lane->index;
    ls.label = lane->label;
    ls.pushed = lane->ring.pushed();
    ls.dropped = lane->ring.dropped();
    lane->ring.snapshot(ls.spans);
    snap.dropped += ls.dropped;
    snap.lanes.push_back(std::move(ls));
  }
  return snap;
}

}  // namespace hdsm::obs

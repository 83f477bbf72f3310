#include "obs/telemetry.hpp"

#include <sstream>
#include <stdexcept>

#include "platform/int_codec.hpp"

namespace hdsm::obs {

Telemetry::Telemetry(ObsOptions opts)
    : opts_(opts), recorder_(opts.ring_capacity) {
  // Pre-resolve every per-kind instrument so record_phase/event never do a
  // name lookup on the hot path.
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    const char* name = span_kind_name(static_cast<SpanKind>(k));
    phase_hist_[k] =
        &registry_.histogram(std::string("phase.") + name + ".ns");
    event_count_[k] = &registry_.counter(std::string("event.") + name);
  }
}

void Telemetry::set_thread_label(const std::string& label) {
  recorder_.set_thread_label(label);
}

MetricsSnapshot Telemetry::metrics() const {
  MetricsSnapshot snap = registry_.snapshot();
  // Fold recorder bookkeeping in so the cluster scrape carries drop
  // accounting without a second channel.
  std::uint64_t pushed = 0;
  const RecorderSnapshot rec = recorder_.snapshot();
  for (const auto& lane : rec.lanes) pushed += lane.pushed;
  snap.counters["obs.spans_pushed"] += pushed;
  snap.counters["obs.spans_dropped"] += rec.dropped;
  snap.counters["obs.lanes"] += rec.lanes.size();
  return snap;
}

// ---------------------------------------------------------------------------
// NodeSnapshot wire form: u32 rank, u64 epoch, u32 metrics_len, metrics.
// ClusterTelemetry: u32 n_nodes { u32 len, node } *, u32 n_retired { … } *.
// `merged` is derived, so it is recomputed on deserialize rather than sent.

namespace {

/// Append what `body` writes to `out`, behind its u32 length.
template <typename Body>
void append_sized(std::vector<std::byte>& out, Body&& body) {
  const std::size_t at = out.size();
  plat::append_be(out, 4, 0);
  body(out);
  plat::write_uint(out.data() + at, 4, plat::Endian::Big, out.size() - at - 4);
}

void append_nodes(std::vector<std::byte>& out,
                  const std::vector<NodeSnapshot>& nodes) {
  plat::append_be(out, 4, nodes.size());
  for (const NodeSnapshot& n : nodes) {
    append_sized(out, [&n](std::vector<std::byte>& o) { n.serialize(o); });
  }
}

NodeSnapshot decode_node(plat::WireReader& r) {
  NodeSnapshot n;
  n.rank = r.u32();
  n.epoch = r.u64();
  const std::uint32_t len = r.u32();
  if (!MetricsSnapshot::deserialize(r.view(len), len, n.metrics)) {
    r.fail("bad metrics");
  }
  r.finish();
  return n;
}

std::vector<NodeSnapshot> decode_nodes(plat::WireReader& r) {
  // A node entry holds at least its length, rank, epoch, metrics length
  // and an empty metrics body: 4 + 4 + 8 + 4 + 16 bytes.
  std::vector<NodeSnapshot> nodes;
  for (std::uint32_t n = r.count(36); n > 0; --n) {
    const std::uint32_t len = r.u32();
    NodeSnapshot& node = nodes.emplace_back();
    if (!NodeSnapshot::deserialize(r.view(len), len, node)) r.fail("bad node");
  }
  return nodes;
}

}  // namespace

void NodeSnapshot::serialize(std::vector<std::byte>& out) const {
  plat::append_be(out, 4, rank);
  plat::append_be(out, 8, epoch);
  append_sized(out,
               [this](std::vector<std::byte>& o) { metrics.serialize(o); });
}

bool NodeSnapshot::deserialize(const std::byte* data, std::size_t size,
                               NodeSnapshot& out) {
  try {
    plat::WireReader r(data, size, "NodeSnapshot");
    out = decode_node(r);
    return true;
  } catch (const std::runtime_error&) {
    out = NodeSnapshot{};
    return false;
  }
}

void ClusterTelemetry::serialize(std::vector<std::byte>& out) const {
  append_nodes(out, nodes);
  append_nodes(out, retired);
}

bool ClusterTelemetry::deserialize(const std::byte* data, std::size_t size,
                                   ClusterTelemetry& out) {
  out = ClusterTelemetry{};
  try {
    plat::WireReader r(data, size, "ClusterTelemetry");
    out.nodes = decode_nodes(r);
    out.retired = decode_nodes(r);
    r.finish();
  } catch (const std::runtime_error&) {
    out = ClusterTelemetry{};
    return false;
  }
  for (const NodeSnapshot& node : out.nodes) out.merged.merge(node.metrics);
  for (const NodeSnapshot& node : out.retired) out.merged.merge(node.metrics);
  return true;
}

std::string ClusterTelemetry::to_json() const {
  std::ostringstream os;
  os << "{\"merged\":" << merged.to_json() << ",\"nodes\":[";
  bool first = true;
  for (const NodeSnapshot& n : nodes) {
    if (!first) os << ',';
    first = false;
    os << "{\"rank\":" << n.rank << ",\"epoch\":" << n.epoch
       << ",\"metrics\":" << n.metrics.to_json() << "}";
  }
  os << "],\"retired\":[";
  first = true;
  for (const NodeSnapshot& n : retired) {
    if (!first) os << ',';
    first = false;
    os << "{\"rank\":" << n.rank << ",\"epoch\":" << n.epoch
       << ",\"metrics\":" << n.metrics.to_json() << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// ClusterAggregator

void ClusterAggregator::report(const NodeSnapshot& snap) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = current_.find(snap.rank);
  if (it != current_.end() && it->second.epoch != snap.epoch) {
    // A new incarnation of this rank: archive the old one's last snapshot
    // so per-incarnation deltas stay recoverable (the counters would
    // otherwise merge indistinguishably across the reconnect).
    retired_.push_back(std::move(it->second));
  }
  current_[snap.rank] = snap;
}

ClusterTelemetry ClusterAggregator::view(const NodeSnapshot& home) const {
  ClusterTelemetry ct;
  std::lock_guard<std::mutex> g(mu_);
  ct.nodes.reserve(current_.size() + 1);
  ct.nodes.push_back(home);
  for (const auto& [rank, snap] : current_) {
    if (rank == home.rank) continue;
    ct.nodes.push_back(snap);
  }
  ct.retired = retired_;
  for (const NodeSnapshot& n : ct.nodes) ct.merged.merge(n.metrics);
  for (const NodeSnapshot& n : ct.retired) ct.merged.merge(n.metrics);
  return ct;
}

}  // namespace hdsm::obs

// Telemetry: the per-node bundle handed to the dsm layers — a metrics
// Registry plus a FlightRecorder, with pre-resolved per-phase histograms so
// hot paths never do a name lookup.  Also defines the cluster-scrape data
// model: NodeSnapshot (one node's metrics, tagged with rank + incarnation
// epoch) and ClusterAggregator (the home-side fold of every node's report,
// keeping detached incarnations recoverable).
//
// Off path: nodes only construct a Telemetry when ObsOptions::enabled, so
// the disabled cost at every instrumentation site is one pointer null
// check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace hdsm::obs {

struct ObsOptions {
  bool enabled = false;          ///< master switch; off ⇒ no Telemetry at all
  std::size_t ring_capacity = 4096;  ///< span slots per thread lane
  bool record_spans = true;      ///< false ⇒ metrics only, no flight recorder
};

class Telemetry {
 public:
  explicit Telemetry(ObsOptions opts);

  const ObsOptions& options() const noexcept { return opts_; }
  Registry& registry() noexcept { return registry_; }
  FlightRecorder& recorder() noexcept { return recorder_; }

  /// Label the calling thread's flight-recorder lane.
  void set_thread_label(const std::string& label);

  /// Record a completed phase: per-kind duration histogram + (optionally)
  /// a flight-recorder span on the calling thread's lane.
  void record_phase(SpanKind kind, std::uint64_t start_ns,
                    std::uint64_t dur_ns, std::uint64_t id = 0) {
    phase_hist_[static_cast<std::size_t>(kind)]->record(dur_ns);
    if (opts_.record_spans) {
      recorder_.ring().push(start_ns, dur_ns, kind, id);
    }
  }

  /// Record an instant event (zero-duration span + event counter).
  void event(SpanKind kind, std::uint64_t id = 0) {
    event_count_[static_cast<std::size_t>(kind)]->add(1);
    if (opts_.record_spans) {
      recorder_.ring().push(ScopedTimer::now_ns(), 0, kind, id);
    }
  }

  /// Registry snapshot plus recorder bookkeeping (spans pushed/dropped)
  /// folded in as counters.
  MetricsSnapshot metrics() const;
  RecorderSnapshot spans() const { return recorder_.snapshot(); }

 private:
  ObsOptions opts_;
  Registry registry_;
  FlightRecorder recorder_;
  Histogram* phase_hist_[kSpanKindCount];
  Counter* event_count_[kSpanKindCount];
};

/// RAII span: times a scope and records it into a Telemetry on exit.
/// Null telemetry ⇒ the constructor/destructor are a null check each.
class SpanScope {
 public:
  SpanScope(Telemetry* t, SpanKind kind, std::uint64_t id = 0) noexcept
      : t_(t), kind_(kind), id_(id),
        start_(t ? ScopedTimer::now_ns() : 0) {}
  ~SpanScope() {
    if (t_ != nullptr) {
      t_->record_phase(kind_, start_, ScopedTimer::now_ns() - start_, id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Telemetry* t_;
  SpanKind kind_;
  std::uint64_t id_;
  std::uint64_t start_;
};

/// One node's metrics, tagged with its rank and incarnation epoch (the
/// Hello nonce — a reconnected remote reports under a fresh epoch, so the
/// aggregator can keep per-incarnation deltas apart).
struct NodeSnapshot {
  std::uint32_t rank = 0;
  std::uint64_t epoch = 0;
  MetricsSnapshot metrics;

  /// Big-endian wire form (docs/PROTOCOL.md §2a); serialize appends to
  /// `out`, deserialize returns false on malformed input.
  void serialize(std::vector<std::byte>& out) const;
  static bool deserialize(const std::byte* data, std::size_t size,
                          NodeSnapshot& out);
};

/// The home's fold of every node's report: a merged cluster-wide view plus
/// the per-rank breakdown (current incarnations) and any retired
/// incarnations (ranks that detached and re-attached under a new epoch).
struct ClusterTelemetry {
  MetricsSnapshot merged;            ///< sum over nodes + retired
  std::vector<NodeSnapshot> nodes;   ///< ascending rank, current epoch each
  std::vector<NodeSnapshot> retired; ///< detached incarnations, report order

  std::string to_json() const;
  /// Big-endian wire form (docs/PROTOCOL.md §2a); serialize appends to
  /// `out`, deserialize returns false on malformed input.
  void serialize(std::vector<std::byte>& out) const;
  static bool deserialize(const std::byte* data, std::size_t size,
                          ClusterTelemetry& out);
};

/// Home-side scrape state.  Thread-safe (reports arrive on receiver
/// threads; views are taken from the master thread).
class ClusterAggregator {
 public:
  /// Upsert rank `snap.rank`'s current snapshot.  A report under a new
  /// epoch archives the previous incarnation's last snapshot into
  /// `retired` instead of merging the two indistinguishably.
  void report(const NodeSnapshot& snap);

  /// Cluster view with `home` included as one more node.
  ClusterTelemetry view(const NodeSnapshot& home) const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint32_t, NodeSnapshot> current_;
  std::vector<NodeSnapshot> retired_;
};

}  // namespace hdsm::obs

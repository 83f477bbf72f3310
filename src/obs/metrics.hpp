// Metrics registry: counters, gauges, and log-linear-bucket histograms.
//
// Hot-path contract: after the first lookup, `Counter::add`, `Gauge::set`,
// and `Histogram::record` are wait-free — a handful of relaxed atomic RMWs,
// no locks, no allocation, fixed cost regardless of the recorded value.
// `Registry::snapshot()` walks the registry under its registration mutex
// but never stops writers; a snapshot taken while writers are active is a
// consistent-enough point-in-time view (each individual cell is atomic,
// cross-cell skew is bounded by in-flight record() calls).
//
// Histograms use HdrHistogram-style log-linear buckets: each power-of-two
// octave is split into 4 linear sub-buckets (kSubBits = 2), giving ≤ 25%
// relative error on bucket lower bounds across the full uint64 range with
// a fixed 252-bucket footprint (~2 KiB per histogram).  The bounds test in
// obs_test.cpp walks every octave edge up to ~0ull.
//
// Snapshots are plain data: mergeable (the cluster scrape sums counters and
// merges histograms bucket-by-bucket, preserving total count and sum),
// serializable to a bounds-checked binary wire form (MetricsPull payloads),
// and renderable as JSON/CSV.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hdsm::obs {

/// Monotonically increasing event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. current lane count).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear histogram over uint64 values (typically nanoseconds).
class Histogram {
 public:
  /// Linear sub-buckets per power-of-two octave = 1 << kSubBits.
  static constexpr unsigned kSubBits = 2;
  static constexpr unsigned kSub = 1u << kSubBits;
  /// Octave 0 is the linear region [0, kSub); octaves 1..(63 - kSubBits + 1)
  /// cover highest-set-bit positions kSubBits..63, kSub sub-buckets each —
  /// so even ~0ull lands in the last valid bucket.
  static constexpr unsigned kBuckets = (64 - kSubBits + 1) * kSub;

  /// Bucket index for a value.  Branch-light, no loops.
  static unsigned bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<unsigned>(v);
    unsigned h = 63u - static_cast<unsigned>(__builtin_clzll(v));
    unsigned octave = h - kSubBits + 1;
    unsigned sub = static_cast<unsigned>((v >> (h - kSubBits)) & (kSub - 1));
    return octave * kSub + sub;
  }

  /// Smallest value mapping to bucket `i` (used for percentile estimates
  /// and JSON export).
  static std::uint64_t bucket_lower_bound(unsigned i) noexcept {
    if (i < kSub) return i;
    const unsigned octave = i / kSub;
    const unsigned sub = i % kSub;
    return static_cast<std::uint64_t>(kSub + sub) << (octave - 1);
  }

  void record(std::uint64_t v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(unsigned i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// Point-in-time copy of one histogram.  Buckets are stored sparsely as
/// (index, count) pairs in ascending index order.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Bucket-wise sum: preserves total count, total sum, and every
  /// per-bucket count (the merge of N nodes is indistinguishable from one
  /// histogram that recorded all N nodes' samples).
  void merge(const HistogramSnapshot& o);

  /// Approximate p-quantile (0 < p <= 1) from bucket lower bounds.
  std::uint64_t quantile(double p) const;

  bool operator==(const HistogramSnapshot& o) const {
    return count == o.count && sum == o.sum && buckets == o.buckets;
  }
};

/// Point-in-time copy of a whole registry.  Map-keyed so iteration (and
/// therefore JSON/CSV/serialized output) is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Sums counters, sums gauges, bucket-merges histograms.
  void merge(const MetricsSnapshot& o);

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  std::string to_json() const;
  /// Flat name,value CSV of counters and gauges (histograms contribute
  /// <name>.count / <name>.sum rows).
  std::string to_csv() const;

  /// Bounds-checked big-endian wire form (MetricsPull / MetricsReport
  /// payloads, docs/PROTOCOL.md §2a).  serialize appends to `out`;
  /// deserialize returns false (and leaves `out` empty) on any malformed,
  /// truncated or over-long input.
  void serialize(std::vector<std::byte>& out) const;
  static bool deserialize(const std::byte* data, std::size_t size,
                          MetricsSnapshot& out);

  bool operator==(const MetricsSnapshot& o) const {
    return counters == o.counters && gauges == o.gauges &&
           histograms == o.histograms;
  }
};

/// Named-instrument registry.  Lookup is find-or-create under a mutex;
/// returned references are stable for the registry's lifetime, so callers
/// hoist the lookup out of loops and hit only the wait-free instrument on
/// the hot path.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copy every instrument's current value.  Does not stop writers.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hdsm::obs

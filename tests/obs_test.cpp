// Pure obs-library semantics: instruments, histogram bucket math, snapshot
// merge/serialize invariants, the flight-recorder ring (overflow + drop
// accounting), the Chrome-trace exporter, the cluster aggregator's
// incarnation-epoch handling — plus a writers-vs-snapshotter concurrency
// test that the TSan `faults` run exercises.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/timer.hpp"

namespace obs = hdsm::obs;

// ---------------------------------------------------------------------------
// Instruments

TEST(Counter, AddAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddValue) {
  obs::Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(Histogram, BucketMathInvariants) {
  // Every value lands in a bucket whose lower bound is <= the value, the
  // next bucket's lower bound is > the value, and the lower bound is within
  // 25% of the value (the log-linear error budget of kSubBits = 2).
  std::vector<std::uint64_t> probes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17};
  for (unsigned shift = 5; shift < 64; ++shift) {
    const std::uint64_t base = 1ull << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + base / 3);
  }
  probes.push_back(~0ull);
  for (const std::uint64_t v : probes) {
    const unsigned i = obs::Histogram::bucket_of(v);
    ASSERT_LT(i, obs::Histogram::kBuckets) << "v=" << v;
    const std::uint64_t lo = obs::Histogram::bucket_lower_bound(i);
    EXPECT_LE(lo, v) << "v=" << v;
    if (i + 1 < obs::Histogram::kBuckets) {
      EXPECT_GT(obs::Histogram::bucket_lower_bound(i + 1), v) << "v=" << v;
    }
    if (v > 0) {
      EXPECT_LE(v - lo, v / 4 + 1) << "v=" << v << " lo=" << lo;
    }
  }
}

TEST(Histogram, BucketLowerBoundsStrictlyIncrease) {
  for (unsigned i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_GT(obs::Histogram::bucket_lower_bound(i),
              obs::Histogram::bucket_lower_bound(i - 1))
        << "i=" << i;
  }
}

TEST(Histogram, RecordCountSum) {
  obs::Histogram h;
  h.record(10);
  h.record(1000);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 2010u);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_of(1000)), 2u);
}

// ---------------------------------------------------------------------------
// Snapshots: merge preserves totals; quantiles; wire form

namespace {

obs::HistogramSnapshot snap_of(std::initializer_list<std::uint64_t> values) {
  obs::Histogram h;
  for (const std::uint64_t v : values) h.record(v);
  obs::HistogramSnapshot s;
  s.count = h.count();
  s.sum = h.sum();
  for (unsigned i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (h.bucket(i) != 0) s.buckets.emplace_back(i, h.bucket(i));
  }
  return s;
}

std::uint64_t total_bucket_count(const obs::HistogramSnapshot& s) {
  std::uint64_t n = 0;
  for (const auto& [idx, c] : s.buckets) n += c;
  return n;
}

}  // namespace

TEST(HistogramSnapshot, MergePreservesCountAndBucketSums) {
  obs::HistogramSnapshot a = snap_of({1, 5, 100, 100000});
  obs::HistogramSnapshot b = snap_of({5, 7, 1u << 20});
  const std::uint64_t count = a.count + b.count;
  const std::uint64_t sum = a.sum + b.sum;
  const std::uint64_t buckets = total_bucket_count(a) + total_bucket_count(b);

  a.merge(b);
  EXPECT_EQ(a.count, count);
  EXPECT_EQ(a.sum, sum);
  EXPECT_EQ(total_bucket_count(a), buckets);
  // Ascending, no duplicate indices.
  for (std::size_t i = 1; i < a.buckets.size(); ++i) {
    EXPECT_LT(a.buckets[i - 1].first, a.buckets[i].first);
  }
  // Merge equals "one histogram recorded everything".
  EXPECT_EQ(a, snap_of({1, 5, 100, 100000, 5, 7, 1u << 20}));
}

TEST(HistogramSnapshot, Quantile) {
  obs::HistogramSnapshot s = snap_of({10, 10, 10, 10, 10, 10, 10, 10, 10,
                                      1000000});
  // p50 sits in the bucket holding the 10s; p100 in the outlier's bucket.
  EXPECT_LE(s.quantile(0.5), 10u);
  EXPECT_GE(s.quantile(1.0),
            obs::Histogram::bucket_lower_bound(
                obs::Histogram::bucket_of(1000000)));
  EXPECT_EQ(obs::HistogramSnapshot{}.quantile(0.5), 0u);
}

TEST(MetricsSnapshot, MergeSumsEveryKind) {
  obs::MetricsSnapshot a;
  a.counters["x"] = 3;
  a.gauges["g"] = -2;
  a.histograms["h"] = snap_of({4});
  obs::MetricsSnapshot b;
  b.counters["x"] = 7;
  b.counters["y"] = 1;
  b.gauges["g"] = 5;
  b.histograms["h"] = snap_of({8});

  a.merge(b);
  EXPECT_EQ(a.counters["x"], 10u);
  EXPECT_EQ(a.counters["y"], 1u);
  EXPECT_EQ(a.gauges["g"], 3);
  EXPECT_EQ(a.histograms["h"], snap_of({4, 8}));
}

TEST(MetricsSnapshot, SerializeRoundTrip) {
  obs::MetricsSnapshot a;
  a.counters["stats.locks"] = 12;
  a.counters["event.retry"] = 0;
  a.gauges["lanes"] = 4;
  a.histograms["phase.diff.ns"] = snap_of({100, 2000, 30000, ~0ull});

  std::vector<std::byte> wire;
  a.serialize(wire);
  obs::MetricsSnapshot back;
  ASSERT_TRUE(obs::MetricsSnapshot::deserialize(wire.data(), wire.size(),
                                                back));
  EXPECT_EQ(a, back);
}

TEST(MetricsSnapshot, DeserializeRejectsMalformed) {
  obs::MetricsSnapshot a;
  a.counters["c"] = 1;
  a.histograms["h"] = snap_of({5, 50});
  std::vector<std::byte> wire;
  a.serialize(wire);

  obs::MetricsSnapshot out;
  // Empty, truncation at every prefix, and trailing garbage all fail —
  // never crash, never partially succeed silently.
  EXPECT_FALSE(obs::MetricsSnapshot::deserialize(nullptr, 0, out));
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        obs::MetricsSnapshot::deserialize(wire.data(), wire.size() - cut, out))
        << "cut=" << cut;
  }
  std::vector<std::byte> padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(
      obs::MetricsSnapshot::deserialize(padded.data(), padded.size(), out));
  std::vector<std::byte> bad_magic = wire;
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_FALSE(obs::MetricsSnapshot::deserialize(bad_magic.data(),
                                                 bad_magic.size(), out));
}

TEST(MetricsSnapshot, JsonAndCsvCarryEveryInstrument) {
  obs::MetricsSnapshot a;
  a.counters["locks"] = 7;
  a.gauges["depth"] = -1;
  a.histograms["lat"] = snap_of({10, 20});
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"locks\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":-1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  const std::string csv = a.to_csv();
  EXPECT_NE(csv.find("locks,7"), std::string::npos) << csv;
  EXPECT_NE(csv.find("lat.count,2"), std::string::npos) << csv;
  EXPECT_NE(csv.find("lat.sum,30"), std::string::npos) << csv;
}

TEST(Registry, FindOrCreateReturnsStableRefs) {
  obs::Registry r;
  obs::Counter& c1 = r.counter("a");
  obs::Counter& c2 = r.counter("a");
  EXPECT_EQ(&c1, &c2);
  c1.add(5);
  r.gauge("g").set(9);
  r.histogram("h").record(123);
  const obs::MetricsSnapshot s = r.snapshot();
  EXPECT_EQ(s.counters.at("a"), 5u);
  EXPECT_EQ(s.gauges.at("g"), 9);
  EXPECT_EQ(s.histograms.at("h").count, 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(SpanRing, PushSnapshotInOrder) {
  obs::SpanRing ring(16);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.push(100 * i, 10, obs::SpanKind::Diff, i);
  }
  std::vector<obs::SpanRecord> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].start_ns, 100 * i);
    EXPECT_EQ(out[i].dur_ns, 10u);
    EXPECT_EQ(out[i].id, i);
    EXPECT_EQ(out[i].kind, obs::SpanKind::Diff);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpanRing, OverflowOverwritesOldestAndCountsDrops) {
  obs::SpanRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  const std::uint64_t total = 8 + 5;
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.push(i, 1, obs::SpanKind::Episode, i);
  }
  EXPECT_EQ(ring.pushed(), total);
  EXPECT_EQ(ring.dropped(), total - 8);
  std::vector<obs::SpanRecord> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 8u);
  // Oldest retrievable record is #5 (0..4 were overwritten).
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, total - 8 + i);
  }
}

TEST(SpanRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::SpanRing(1).capacity(), 8u);   // minimum
  EXPECT_EQ(obs::SpanRing(9).capacity(), 16u);  // round up
  EXPECT_EQ(obs::SpanRing(64).capacity(), 64u);
}

TEST(FlightRecorder, LanePerThreadWithLabels) {
  obs::FlightRecorder rec(32);
  rec.set_thread_label("main-lane");
  rec.ring().push(1, 2, obs::SpanKind::Episode, 0);
  std::thread t([&] {
    rec.set_thread_label("worker-lane");
    rec.ring().push(3, 4, obs::SpanKind::Diff, 1);
    rec.ring().push(5, 6, obs::SpanKind::Diff, 2);
  });
  t.join();
  const obs::RecorderSnapshot s = rec.snapshot();
  ASSERT_EQ(s.lanes.size(), 2u);
  EXPECT_EQ(s.lanes[0].lane, 0u);
  EXPECT_EQ(s.lanes[1].lane, 1u);
  EXPECT_EQ(s.lanes[0].label, "main-lane");
  EXPECT_EQ(s.lanes[1].label, "worker-lane");
  EXPECT_EQ(s.lanes[0].spans.size(), 1u);
  EXPECT_EQ(s.lanes[1].spans.size(), 2u);
  EXPECT_EQ(s.total_spans(), 3u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(FlightRecorder, TlsCacheDistinguishesRecorders) {
  // Two recorders used from the same thread must not share a ring: the TLS
  // cache is keyed on a process-unique recorder id.
  obs::FlightRecorder a(16), b(16);
  a.ring().push(1, 1, obs::SpanKind::Episode, 0);
  b.ring().push(2, 2, obs::SpanKind::Diff, 0);
  b.ring().push(3, 3, obs::SpanKind::Diff, 0);
  EXPECT_EQ(a.snapshot().total_spans(), 1u);
  EXPECT_EQ(b.snapshot().total_spans(), 2u);
}

// ---------------------------------------------------------------------------
// Telemetry bundle

TEST(Telemetry, RecordPhaseFeedsHistogramAndRing) {
  obs::ObsOptions opts;
  opts.enabled = true;
  opts.ring_capacity = 64;
  obs::Telemetry t(opts);
  t.set_thread_label("test");
  t.record_phase(obs::SpanKind::Diff, 1000, 250, 3);
  t.event(obs::SpanKind::Retry, 7);

  const obs::MetricsSnapshot m = t.metrics();
  EXPECT_EQ(m.histograms.at("phase.diff.ns").count, 1u);
  EXPECT_EQ(m.histograms.at("phase.diff.ns").sum, 250u);
  EXPECT_EQ(m.counters.at("event.retry"), 1u);
  EXPECT_EQ(m.counters.at("obs.spans_pushed"), 2u);
  EXPECT_EQ(m.counters.at("obs.spans_dropped"), 0u);

  const obs::RecorderSnapshot s = t.spans();
  ASSERT_EQ(s.total_spans(), 2u);
  EXPECT_EQ(s.lanes[0].spans[0].kind, obs::SpanKind::Diff);
  EXPECT_EQ(s.lanes[0].spans[1].kind, obs::SpanKind::Retry);
  EXPECT_EQ(s.lanes[0].spans[1].dur_ns, 0u);
}

TEST(Telemetry, MetricsOnlyModeRecordsNoSpans) {
  obs::ObsOptions opts;
  opts.enabled = true;
  opts.record_spans = false;
  obs::Telemetry t(opts);
  t.record_phase(obs::SpanKind::Pack, 0, 99);
  EXPECT_EQ(t.metrics().histograms.at("phase.pack.ns").count, 1u);
  EXPECT_EQ(t.spans().total_spans(), 0u);
}

TEST(SpanScope, NullTelemetryIsANoop) {
  { obs::SpanScope s(nullptr, obs::SpanKind::Episode); }
  obs::ObsOptions opts;
  opts.enabled = true;
  obs::Telemetry t(opts);
  { obs::SpanScope s(&t, obs::SpanKind::Episode, 42); }
  const obs::RecorderSnapshot snap = t.spans();
  ASSERT_EQ(snap.total_spans(), 1u);
  EXPECT_EQ(snap.lanes[0].spans[0].id, 42u);
}

TEST(ScopedTimer, MonotonicAndRestartable) {
  obs::ScopedTimer timer;
  const std::uint64_t a = obs::ScopedTimer::now_ns();
  const std::uint64_t b = obs::ScopedTimer::now_ns();
  EXPECT_GE(b, a);
  (void)timer.lap();  // restarts: start_ns moves to now
  EXPECT_GE(timer.start_ns(), a);
  const std::uint64_t elapsed = timer.elapsed_ns();
  const std::uint64_t later = obs::ScopedTimer::now_ns();  // strictly after
  EXPECT_LE(timer.start_ns() + elapsed, later);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter

TEST(ChromeTrace, EmitsLanesMetadataAndEvents) {
  obs::ObsOptions opts;
  opts.enabled = true;
  obs::Telemetry t(opts);
  t.set_thread_label("master");
  t.record_phase(obs::SpanKind::Episode, 5000, 1500, 1);
  t.event(obs::SpanKind::Retry, 2);

  obs::NodeTrace node;
  node.rank = 0;
  node.name = "home";
  node.spans = t.spans();
  const std::string json = obs::chrome_trace_json({node});

  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"process_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"home\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"master\""), std::string::npos) << json;
  // The complete event: 1500 ns = 1.500 µs, normalized to ts 0.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"episode\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos) << json;
  // The instant event.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"retry\""), std::string::npos) << json;
}

TEST(ChromeTrace, DistinctPidPerRank) {
  obs::NodeTrace a, b;
  a.rank = 0;
  a.name = "home";
  b.rank = 1;
  b.name = "remote-1";
  obs::LaneSnapshot lane;
  lane.lane = 0;
  lane.label = "x";
  lane.spans.push_back({10, 5, 0, obs::SpanKind::Diff});
  a.spans.lanes.push_back(lane);
  b.spans.lanes.push_back(lane);
  const std::string json = obs::chrome_trace_json({a, b});
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
}

TEST(ChromeTrace, EmptyInputStillValidJson) {
  EXPECT_EQ(obs::chrome_trace_json({}), "{\"traceEvents\":[]}");
}

// ---------------------------------------------------------------------------
// Cluster aggregation + wire forms

TEST(ClusterAggregator, ViewMergesEveryCounter) {
  obs::ClusterAggregator agg;
  obs::NodeSnapshot r1;
  r1.rank = 1;
  r1.epoch = 11;
  r1.metrics.counters["stats.locks"] = 3;
  r1.metrics.histograms["lat"] = snap_of({100});
  obs::NodeSnapshot r2;
  r2.rank = 2;
  r2.epoch = 22;
  r2.metrics.counters["stats.locks"] = 4;
  r2.metrics.histograms["lat"] = snap_of({200, 300});
  agg.report(r1);
  agg.report(r2);

  obs::NodeSnapshot home;
  home.rank = 0;
  home.metrics.counters["stats.locks"] = 5;
  const obs::ClusterTelemetry ct = agg.view(home);
  ASSERT_EQ(ct.nodes.size(), 3u);
  EXPECT_TRUE(ct.retired.empty());
  EXPECT_EQ(ct.merged.counters.at("stats.locks"), 12u);
  EXPECT_EQ(ct.merged.histograms.at("lat"), snap_of({100, 200, 300}));
}

TEST(ClusterAggregator, NewEpochArchivesOldIncarnation) {
  obs::ClusterAggregator agg;
  obs::NodeSnapshot first;
  first.rank = 1;
  first.epoch = 100;
  first.metrics.counters["stats.retries"] = 9;
  agg.report(first);

  obs::NodeSnapshot again = first;  // same incarnation re-reports
  again.metrics.counters["stats.retries"] = 12;
  agg.report(again);

  obs::NodeSnapshot reborn;  // reconnected under a fresh epoch
  reborn.rank = 1;
  reborn.epoch = 101;
  reborn.metrics.counters["stats.retries"] = 2;
  agg.report(reborn);

  const obs::ClusterTelemetry ct = agg.view(obs::NodeSnapshot{});
  ASSERT_EQ(ct.retired.size(), 1u);
  EXPECT_EQ(ct.retired[0].epoch, 100u);
  // The retired incarnation keeps its *last* snapshot (12, not 9): the
  // merged total is 12 + 2, and the per-incarnation delta is recoverable.
  EXPECT_EQ(ct.retired[0].metrics.counters.at("stats.retries"), 12u);
  EXPECT_EQ(ct.merged.counters.at("stats.retries"), 14u);
}

TEST(ClusterTelemetry, SerializeRoundTripRecomputesMerged) {
  obs::ClusterAggregator agg;
  obs::NodeSnapshot r1;
  r1.rank = 1;
  r1.epoch = 7;
  r1.metrics.counters["c"] = 6;
  agg.report(r1);
  obs::NodeSnapshot home;
  home.rank = 0;
  home.metrics.counters["c"] = 1;
  const obs::ClusterTelemetry ct = agg.view(home);

  std::vector<std::byte> wire;
  ct.serialize(wire);
  obs::ClusterTelemetry back;
  ASSERT_TRUE(
      obs::ClusterTelemetry::deserialize(wire.data(), wire.size(), back));
  ASSERT_EQ(back.nodes.size(), 2u);
  EXPECT_EQ(back.nodes[1].epoch, 7u);
  EXPECT_EQ(back.merged.counters.at("c"), 7u);
  EXPECT_EQ(back.merged, ct.merged);

  obs::ClusterTelemetry out;
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_FALSE(obs::ClusterTelemetry::deserialize(wire.data(),
                                                    wire.size() - cut, out));
  }
}

TEST(NodeSnapshot, DeserializeRejectsLengthMismatch) {
  obs::NodeSnapshot n;
  n.rank = 3;
  n.epoch = 5;
  n.metrics.counters["c"] = 1;
  std::vector<std::byte> wire;
  n.serialize(wire);
  obs::NodeSnapshot out;
  ASSERT_TRUE(obs::NodeSnapshot::deserialize(wire.data(), wire.size(), out));
  EXPECT_EQ(out.rank, 3u);
  // A trailing byte: the embedded length no longer matches.
  wire.push_back(std::byte{0});
  EXPECT_FALSE(obs::NodeSnapshot::deserialize(wire.data(), wire.size(), out));
}

// ---------------------------------------------------------------------------
// Concurrency (meaningful under TSan: ctest -L faults in build-tsan)

TEST(ObsConcurrency, WritersVsSnapshotters) {
  obs::ObsOptions opts;
  opts.enabled = true;
  opts.ring_capacity = 64;  // small: force constant overwrite
  obs::Telemetry t(opts);

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&t, w] {
      t.set_thread_label("writer-" + std::to_string(w));
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        t.record_phase(obs::SpanKind::Diff, i, i % 97, i);
        if (i % 3 == 0) t.event(obs::SpanKind::Retry, i);
      }
    });
  }
  std::thread snapshotter([&t, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::RecorderSnapshot s = t.spans();
      for (const auto& lane : s.lanes) {
        for (const obs::SpanRecord& r : lane.spans) {
          // A torn read would show a kind outside the enum.
          ASSERT_LT(static_cast<std::size_t>(r.kind), obs::kSpanKindCount);
        }
      }
      (void)t.metrics();
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  const obs::MetricsSnapshot m = t.metrics();
  const std::uint64_t expected_spans =
      kWriters * (kPerWriter + (kPerWriter + 2) / 3);
  EXPECT_EQ(m.counters.at("obs.spans_pushed"), expected_spans);
  EXPECT_EQ(m.histograms.at("phase.diff.ns").count, kWriters * kPerWriter);
  // Rings hold 64 slots each: nearly everything was dropped, and the drop
  // accounting balances exactly.
  const obs::RecorderSnapshot s = t.spans();
  EXPECT_EQ(m.counters.at("obs.spans_dropped"),
            expected_spans - kWriters * 64);
  EXPECT_EQ(s.total_spans(), static_cast<std::size_t>(kWriters) * 64);
}

TEST(ObsConcurrency, RegistryFindOrCreateRace) {
  obs::Registry reg;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&reg] {
      for (int k = 0; k < 1000; ++k) {
        reg.counter("shared").add();
        reg.histogram("h" + std::to_string(k % 5)).record(k);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.snapshot().counters.at("shared"), 8000u);
}

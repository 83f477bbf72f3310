// Cluster-wide telemetry through the real protocol: MetricsPull scrapes,
// home-side aggregation (merged view == sum of per-node snapshots),
// incarnation-epoch archiving across re-attach, trace validity of the
// scrape events — plus the rehome() × adaptive interaction (byte-identical
// master image, validating trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "dsm/rehome.hpp"
#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"
#include "tags/describe.hpp"

namespace dsm = hdsm::dsm;
namespace obs = hdsm::obs;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;

namespace {

tags::TypePtr small_gthv(std::uint64_t n = 1024) {
  return tags::TypeDesc::struct_of(
      "G", {{"GThP", tags::TypeDesc::pointer()},
            {"A", tags::TypeDesc::array(tags::t_int(), n)},
            {"n", tags::t_int()}});
}

obs::ObsOptions obs_on() {
  obs::ObsOptions o;
  o.enabled = true;
  return o;
}

/// Assert that `ct.merged` equals the sum over all node + retired
/// snapshots, for every counter, gauge, and histogram — the scrape's core
/// correctness contract.
void expect_merged_is_sum(const obs::ClusterTelemetry& ct) {
  obs::MetricsSnapshot sum;
  for (const obs::NodeSnapshot& n : ct.nodes) sum.merge(n.metrics);
  for (const obs::NodeSnapshot& n : ct.retired) sum.merge(n.metrics);
  EXPECT_EQ(ct.merged, sum);
  // Histogram merges preserve total count and per-bucket sums.
  for (const auto& [name, merged] : ct.merged.histograms) {
    std::uint64_t count = 0, total = 0;
    for (const obs::NodeSnapshot& n : ct.nodes) {
      auto it = n.metrics.histograms.find(name);
      if (it == n.metrics.histograms.end()) continue;
      count += it->second.count;
      for (const auto& [idx, c] : it->second.buckets) total += c;
    }
    for (const obs::NodeSnapshot& n : ct.retired) {
      auto it = n.metrics.histograms.find(name);
      if (it == n.metrics.histograms.end()) continue;
      count += it->second.count;
      for (const auto& [idx, c] : it->second.buckets) total += c;
    }
    EXPECT_EQ(merged.count, count) << name;
    std::uint64_t merged_total = 0;
    for (const auto& [idx, c] : merged.buckets) merged_total += c;
    EXPECT_EQ(merged_total, total) << name;
  }
}

const obs::NodeSnapshot* node_of(const obs::ClusterTelemetry& ct,
                                 std::uint32_t rank) {
  for (const obs::NodeSnapshot& n : ct.nodes) {
    if (n.rank == rank) return &n;
  }
  return nullptr;
}

}  // namespace

TEST(ObsCluster, ScrapeEqualsSumOfNodeSnapshots) {
  dsm::ShardedHomeOptions opts;
  opts.obs = obs_on();
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32(), opts);
  dsm::ShardedRemoteOptions ropts;
  ropts.obs = obs_on();
  msg::EndpointPtr e1 = home.attach(1);
  msg::EndpointPtr e2 = home.attach(2);
  dsm::ShardedRemote r1(small_gthv(), plat::linux_ia32(), 1, std::move(e1),
                        ropts);
  dsm::ShardedRemote r2(small_gthv(), plat::solaris_sparc32(), 2, std::move(e2),
                        ropts);
  home.start();

  std::thread t1([&] {
    for (int i = 0; i < 3; ++i) {
      r1.lock(1);
      auto a = r1.space().view<std::int32_t>("A");
      a.set(i, a.get(i) + 1);
      r1.unlock(1);
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 5; ++i) {
      r2.lock(2);
      auto a = r2.space().view<std::int32_t>("A");
      a.set(100 + i, a.get(100 + i) + 1);
      r2.unlock(2);
    }
  });
  t1.join();
  t2.join();

  // Each remote ships its snapshot home; the second pull's reply already
  // contains the first remote's report.
  const obs::ClusterTelemetry v1 = r1.pull_cluster_metrics();
  const obs::ClusterTelemetry v2 = r2.pull_cluster_metrics();
  EXPECT_EQ(node_of(v1, 1)->metrics.counters.at("stats.locks"), 3u);
  ASSERT_EQ(v2.nodes.size(), 3u);  // home + both remotes
  expect_merged_is_sum(v2);

  const obs::NodeSnapshot* n1 = node_of(v2, 1);
  const obs::NodeSnapshot* n2 = node_of(v2, 2);
  ASSERT_NE(n1, nullptr);
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n1->metrics.counters.at("stats.locks"), 3u);
  EXPECT_EQ(n2->metrics.counters.at("stats.locks"), 5u);
  EXPECT_EQ(v2.merged.counters.at("stats.locks"), 8u);  // home holds none
  // Remotes with obs on carry phase histograms; the merged view keeps
  // their sample counts intact.
  EXPECT_GT(v2.merged.histograms.at("phase.episode.ns").count, 0u);

  // The home's own aggregated view agrees with what the wire carried.
  const obs::ClusterTelemetry local = home.cluster_telemetry();
  expect_merged_is_sum(local);
  EXPECT_EQ(local.merged.counters.at("stats.locks"), 8u);

  std::thread j1([&] { r1.join(); });
  std::thread j2([&] { r2.join(); });
  j1.join();
  j2.join();
  home.wait_all_joined();
  home.stop();
}

TEST(ObsCluster, ScrapeWorksWithObsDisabled) {
  // No Telemetry object anywhere: the scrape still answers, carrying the
  // ShareStats mirror only.
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32());
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep));
  home.start();
  EXPECT_EQ(home.telemetry(), nullptr);
  EXPECT_EQ(remote.telemetry(), nullptr);

  remote.lock(0);
  remote.space().view<std::int32_t>("A").set(0, 7);
  remote.unlock(0);

  const obs::ClusterTelemetry ct = remote.pull_cluster_metrics();
  ASSERT_EQ(ct.nodes.size(), 2u);
  expect_merged_is_sum(ct);
  EXPECT_EQ(ct.merged.counters.at("stats.locks"), 1u);
  EXPECT_TRUE(ct.merged.histograms.empty());  // no obs recording anywhere

  remote.join();
  home.wait_all_joined();
  home.stop();
}

TEST(ObsCluster, ReattachArchivesOldIncarnation) {
  dsm::ShardedHomeOptions opts;
  opts.obs = obs_on();
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32(), opts);
  dsm::ShardedRemoteOptions ropts;
  ropts.obs = obs_on();
  home.start();

  std::uint64_t first_epoch = 0;
  {
    msg::EndpointPtr ep = home.attach(1);
    dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                              std::move(ep), ropts);
    for (int i = 0; i < 3; ++i) {
      remote.lock(1);
      remote.unlock(1);
    }
    const obs::ClusterTelemetry ct = remote.pull_cluster_metrics();
    first_epoch = node_of(ct, 1)->epoch;
    remote.join();  // final pull rides along (obs on)
  }
  home.wait_all_joined();

  // Same rank re-attaches as a fresh incarnation (new epoch nonce).
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemote reborn(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep), ropts);
  for (int i = 0; i < 2; ++i) {
    reborn.lock(1);
    reborn.unlock(1);
  }
  const obs::ClusterTelemetry ct = reborn.pull_cluster_metrics();
  expect_merged_is_sum(ct);

  // The first incarnation's final snapshot is archived, not merged away:
  // per-incarnation deltas stay recoverable across the reconnect.
  ASSERT_EQ(ct.retired.size(), 1u);
  EXPECT_EQ(ct.retired[0].rank, 1u);
  EXPECT_EQ(ct.retired[0].epoch, first_epoch);
  EXPECT_EQ(ct.retired[0].metrics.counters.at("stats.locks"), 3u);
  const obs::NodeSnapshot* current = node_of(ct, 1);
  ASSERT_NE(current, nullptr);
  EXPECT_NE(current->epoch, first_epoch);
  EXPECT_EQ(current->metrics.counters.at("stats.locks"), 2u);
  EXPECT_EQ(ct.merged.counters.at("stats.locks"), 5u);

  reborn.join();
  home.wait_all_joined();
  home.stop();
}

TEST(ObsCluster, ScrapeEventsPassTraceValidation) {
  dsm::TraceLog log;
  dsm::ShardedHomeOptions opts;
  opts.obs = obs_on();
  opts.trace = &log;
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32(), opts);
  msg::EndpointPtr ep = home.attach(1);
  dsm::ShardedRemoteOptions ropts;
  ropts.obs = obs_on();
  dsm::ShardedRemote remote(small_gthv(), plat::linux_ia32(), 1,
                            std::move(ep), ropts);
  home.start();

  remote.lock(0);
  remote.unlock(0);
  remote.pull_cluster_metrics();
  remote.join();
  home.wait_all_joined();
  home.stop();

  const std::vector<dsm::TraceEvent> events = log.snapshot();
  const auto error = dsm::validate_trace(events);
  EXPECT_FALSE(error.has_value()) << *error;
  std::size_t scrapes = 0;
  for (const dsm::TraceEvent& e : events) {
    if (e.kind == dsm::TraceEvent::Kind::MetricsScraped) ++scrapes;
  }
  // The explicit pull plus the final pre-join pull.
  EXPECT_EQ(scrapes, 2u);
}

TEST(ObsCluster, ClusterFacadeScrapesAndRecordsSpans) {
  const auto gthv = small_gthv(256);
  dsm::ShardedHomeOptions opts;
  opts.obs = obs_on();
  dsm::ShardedCluster cluster(
      gthv, plat::linux_ia32(),
      {&plat::linux_ia32(), &plat::solaris_sparc32()}, opts);
  // The remotes enter barrier 0 before their lock episodes, so the
  // master's one write is ordered before any grant is packed.  A remote's
  // first grant ships its whole attach-time pending set (the full image),
  // and under release consistency a lock-r grant orders nothing against
  // the master's lock-0 write: with the lock first, the grant's pack could
  // read A[0] while the master wrote it.
  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.lock(0);
        home.space().view<std::int32_t>("A").set(0, 1);
        home.unlock(0);
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        remote.barrier(0);
        remote.lock(remote.rank());
        auto a = remote.space().view<std::int32_t>("A");
        a.set(remote.rank(), static_cast<std::int32_t>(remote.rank()));
        remote.unlock(remote.rank());
        remote.join();
      });

  const obs::ClusterTelemetry ct = cluster.telemetry();
  ASSERT_EQ(ct.nodes.size(), 3u);
  expect_merged_is_sum(ct);
  const dsm::ShareStats total = cluster.total_stats();
  EXPECT_EQ(ct.merged.counters.at("stats.locks"), total.locks);
  EXPECT_EQ(ct.merged.counters.at("stats.barriers"), total.barriers);

  // Every node recorded spans: the master's lane on the home, the
  // application thread lane on each remote.
  ASSERT_NE(cluster.home().telemetry(), nullptr);
  EXPECT_GT(cluster.home().telemetry()->spans().total_spans(), 0u);
  for (std::uint32_t rank = 1; rank <= 2; ++rank) {
    ASSERT_NE(cluster.remote(rank).telemetry(), nullptr);
    EXPECT_GT(cluster.remote(rank).telemetry()->spans().total_spans(), 0u);
  }
  // The JSON rendering of the cluster view is non-trivial.
  EXPECT_NE(ct.to_json().find("\"merged\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// rehome() × CodecMode::Adaptive.  The codec tuner changes traffic (which
// runs ship compressed) but must never change bytes — including through a
// subsequent master migration onto a byte-flipped platform.

namespace {

/// Ints per ownership chunk: 16 × int32 = 64 bytes, one cache line.
constexpr std::uint64_t kChunk = 16;

/// Dense barrier-phase workload: the three threads own interleaved
/// cache-line chunks (chunk index ≡ thread mod 3) and each round every
/// thread rewrites all of its chunks, so every page is fully dirty and
/// each writer ships one 64-byte run per chunk, long enough to encode.
void dense_barrier_workload(dsm::ShardedHome& home, dsm::ShardedRemote* r1,
                            dsm::ShardedRemote* r2, std::uint32_t rounds,
                            std::uint64_t n) {
  const auto write_stripe = [n](auto view, std::uint64_t owner,
                                std::uint32_t round) {
    for (std::uint64_t c = owner; c * kChunk < n; c += 3) {
      for (std::uint64_t i = c * kChunk; i < std::min((c + 1) * kChunk, n);
           ++i) {
        view.set(i, static_cast<std::int32_t>(i * (round + 1) + owner));
      }
    }
  };
  std::thread t1([&, r1] {
    for (std::uint32_t round = 0; round < rounds; ++round) {
      write_stripe(r1->space().view<std::int32_t>("A"), 0, round);
      r1->barrier(0);
    }
    r1->join();
  });
  std::thread t2([&, r2] {
    for (std::uint32_t round = 0; round < rounds; ++round) {
      write_stripe(r2->space().view<std::int32_t>("A"), 1, round);
      r2->barrier(0);
    }
    r2->join();
  });
  for (std::uint32_t round = 0; round < rounds; ++round) {
    write_stripe(home.space().view<std::int32_t>("A"), 2, round);
    home.barrier(0);
  }
  t1.join();
  t2.join();
  home.wait_all_joined();
}

}  // namespace

TEST(RehomeAdaptive, TunedDenseBarriersSurviveRehomeByteIdentical) {
  constexpr std::uint64_t kN = 4096;  // ~4 pages of int32 data
  constexpr std::uint32_t kRounds = 6;
  const auto gthv = small_gthv(kN);

  // `log` (may be null) collects the home's and both remotes' events.
  const auto run = [&](dsm::ShardedHomeOptions opts, dsm::TraceLog* log,
                       dsm::ShareStats* stats_out) -> std::vector<std::byte> {
    opts.trace = log;
    dsm::ShardedHome home(gthv, plat::linux_ia32(), opts);
    dsm::ShardedRemoteOptions ropts;
    ropts.dsd = opts.dsd;
    ropts.trace = log;
    msg::EndpointPtr e1 = home.attach(1);
    msg::EndpointPtr e2 = home.attach(2);
    dsm::ShardedRemote r1(gthv, plat::linux_ia32(), 1, std::move(e1), ropts);
    dsm::ShardedRemote r2(gthv, plat::linux_ia32(), 2, std::move(e2), ropts);
    home.start();
    dense_barrier_workload(home, &r1, &r2, kRounds, kN);
    if (stats_out != nullptr) {
      *stats_out = home.stats();
      *stats_out += r1.stats();
      *stats_out += r2.stats();
    }

    // Master migration onto the byte-flipped platform: the authoritative
    // image is CGT-RMR-converted into sparc64 representation.
    EXPECT_TRUE(home.quiesced());
    auto new_home = dsm::rehome(home, plat::solaris_sparc64());
    auto& region = new_home->space().region();
    std::vector<std::byte> image(region.data(),
                                 region.data() + region.length());
    new_home->stop();
    return image;
  };

  dsm::ShardedHomeOptions off;  // codec off: the reference bytes

  dsm::TraceLog log;
  dsm::ShardedHomeOptions on;  // codec tuner on from the first episode
  on.dsd.codec = dsm::CodecMode::Adaptive;
  on.dsd.tuner.warmup = 1;
  on.dsd.tuner.dwell = 1;

  const std::vector<std::byte> image_off = run(off, nullptr, nullptr);
  dsm::ShareStats stats_on;
  const std::vector<std::byte> image_on = run(on, &log, &stats_on);

  EXPECT_GT(stats_on.adapt_episodes, 0u);

  ASSERT_EQ(image_off.size(), image_on.size());
  EXPECT_EQ(std::memcmp(image_off.data(), image_on.data(), image_off.size()),
            0)
      << "the adaptive tuner changed master-image bytes across rehome";

  const auto error = dsm::validate_trace(log.snapshot());
  EXPECT_FALSE(error.has_value()) << *error;
}

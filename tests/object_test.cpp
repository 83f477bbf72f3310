// Object-granularity sharing mode (hdsm::obj, docs/OBJECTS.md): golden
// object-id placements, layout/stripe/row consistency across platforms,
// dirty-object tracking, and the million-object-style KV workload running
// exactly-once in both page and object mode — including with the adaptive
// engine on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "obj/object_dsm.hpp"
#include "obj/object_space.hpp"
#include "workloads/kv.hpp"

namespace obj = hdsm::obj;
namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace work = hdsm::work;
namespace idx = hdsm::idx;

namespace {

obj::ObjectLayoutPtr small_layout(std::uint32_t regions = 4) {
  obj::ObjectLayoutConfig cfg;
  cfg.num_regions = regions;
  cfg.classes.push_back({"sess", tags::t_int(), 4, 64});
  cfg.classes.push_back({"ctr", tags::t_longlong(), 1, 16});
  return std::make_shared<const obj::ObjectLayout>(std::move(cfg));
}

work::KvConfig small_kv() {
  work::KvConfig cfg;
  cfg.num_objects = 2000;
  cfg.words = 4;
  cfg.num_regions = 8;
  cfg.ops_per_rank = 250;
  cfg.theta = 0.99;
  cfg.seed = 7;
  cfg.remotes = {&plat::linux_ia32(), &plat::solaris_sparc64()};
  return cfg;
}

}  // namespace

// ---- id namespace + placement ----------------------------------------------

TEST(ObjectLayout, GoldenObjectIdPlacementsArePinned) {
  // FNV-1a (64-bit, offset 0xcbf29ce484222325, prime 0x100000001b3) over
  // the object id's eight little-endian bytes, xor-folded, mod num_regions
  // — part of the wire protocol: every node, whatever its platform or
  // standard library, must stripe objects identically (never std::hash).
  // If this test fails, the hash changed and mixed-version clusters will
  // corrupt object→region routing — bump the protocol instead.
  const auto id = [](std::uint32_t cls, std::uint64_t index) {
    return (static_cast<std::uint64_t>(cls + 1) << 48) | index;
  };
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 0), 2), 0u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 4), 2), 1u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 0), 4), 2u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 1), 4), 0u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 100), 16), 7u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 1000), 16), 7u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(1, 0), 16), 5u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(1, 5), 16), 6u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 0), 64), 46u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 1), 64), 36u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 2), 64), 26u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, 999999), 64), 57u);
  EXPECT_EQ(obj::ObjectLayout::hash_region(id(2, 123456), 64), 46u);
  // One region: everything lands on region 0.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(obj::ObjectLayout::hash_region(id(0, i), 1), 0u);
  }
}

TEST(ObjectLayout, IdNamespaceRoundTrips) {
  const auto layout = small_layout();
  const std::uint64_t id = layout->object_id(1, 7);
  EXPECT_EQ(id, (std::uint64_t{2} << 48) | 7u);
  EXPECT_EQ(obj::ObjectLayout::class_of_id(id), 1u);
  EXPECT_EQ(obj::ObjectLayout::index_of_id(id), 7u);
  EXPECT_THROW(layout->object_id(0, 64), std::out_of_range);
  EXPECT_THROW(layout->object_id(2, 0), std::out_of_range);
}

TEST(ObjectLayout, StripesRowsAndSlotsAreConsistent) {
  const auto layout = small_layout();
  // Every object's region matches the pinned hash; slots number the
  // objects of a (class, region) stripe densely from zero.
  for (std::uint32_t c = 0; c < layout->num_classes(); ++c) {
    std::vector<std::uint32_t> next_slot(layout->num_regions(), 0);
    for (std::uint64_t i = 0; i < layout->cls(c).count; ++i) {
      const std::uint32_t r = layout->region_of(c, i);
      EXPECT_EQ(r, obj::ObjectLayout::hash_region(layout->object_id(c, i),
                                                  layout->num_regions()));
      EXPECT_EQ(layout->slot_of(c, i), next_slot[r]++);
    }
    for (std::uint32_t r = 0; r < layout->num_regions(); ++r) {
      EXPECT_EQ(layout->slots_in(c, r), next_slot[r]);
    }
  }
  // Row positions are platform-independent: the same (class, region)
  // stripe resolves to the same row on a 32-bit little-endian and a 64-bit
  // big-endian platform, and that row holds the stripe's elements.
  idx::IndexTable le(layout->gthv(), plat::linux_ia32());
  idx::IndexTable be(layout->gthv(), plat::solaris_sparc64());
  for (std::uint32_t c = 0; c < layout->num_classes(); ++c) {
    for (std::uint32_t r = 0; r < layout->num_regions(); ++r) {
      const std::uint32_t row = layout->row_of(c, r);
      EXPECT_EQ(row, le.row_of_field(layout->field_name(c, r)));
      EXPECT_EQ(row, be.row_of_field(layout->field_name(c, r)));
      const std::uint64_t slots =
          layout->slots_in(c, r) == 0 ? 1 : layout->slots_in(c, r);
      EXPECT_EQ(le.rows().at(row).element_count(),
                slots * layout->cls(c).words);
      EXPECT_EQ(layout->region_of_row(row), r);
    }
  }
  // Non-stripe rows (padding) map to "unguarded".
  std::set<std::uint32_t> stripe_rows;
  for (std::uint32_t c = 0; c < layout->num_classes(); ++c) {
    for (std::uint32_t r = 0; r < layout->num_regions(); ++r) {
      stripe_rows.insert(layout->row_of(c, r));
    }
  }
  for (std::uint32_t row = 0; row < le.rows().size(); ++row) {
    if (!stripe_rows.count(row)) {
      EXPECT_EQ(layout->region_of_row(row), dsm::kAllRegions);
    }
  }
  EXPECT_EQ(layout->region_of_row(10'000'000), dsm::kAllRegions);
}

// ---- dirty-object tracking -------------------------------------------------

TEST(ObjectSpace, TakeDirtyShipsExactlyTheDirtyObjects) {
  const auto layout = small_layout();
  dsm::GlobalSpace space(layout->gthv(), plat::linux_x86_64());
  obj::ObjectSpace objects(space, layout);
  auto sess = objects.accessor<std::int32_t>(0);

  // Find two objects in the same region with adjacent slots, plus one in a
  // different region.
  std::uint32_t region = 0;
  std::uint64_t a = 0, b = 0, other = 0;
  bool found = false;
  for (std::uint64_t i = 0; i < 64 && !found; ++i) {
    for (std::uint64_t j = 0; j < 64; ++j) {
      if (i != j && layout->region_of(0, i) == layout->region_of(0, j) &&
          layout->slot_of(0, j) == layout->slot_of(0, i) + 1) {
        region = layout->region_of(0, i);
        a = i;
        b = j;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (layout->region_of(0, i) != region) {
      other = i;
      break;
    }
  }

  sess.set(a, 11);
  sess.set(b, 22, 3);
  sess.set(other, 33);
  EXPECT_EQ(objects.dirty_objects(), 3u);

  // Draining `region` ships objects a and b — whole, coalesced into one
  // run because their slots are adjacent — and leaves `other` dirty.
  dsm::ObjectRuns runs = objects.take_dirty(region);
  EXPECT_EQ(runs.objects, 2u);
  ASSERT_EQ(runs.runs.size(), 1u);
  EXPECT_EQ(runs.runs[0].row, layout->row_of(0, region));
  EXPECT_EQ(runs.runs[0].first_elem, layout->slot_of(0, a) * 4u);
  EXPECT_EQ(runs.runs[0].count, 8u);  // two objects x four words
  EXPECT_EQ(objects.dirty_objects(), 1u);

  // kAllRegions drains the rest; a second drain ships nothing.
  runs = objects.take_dirty(dsm::kAllRegions);
  EXPECT_EQ(runs.objects, 1u);
  ASSERT_EQ(runs.runs.size(), 1u);
  EXPECT_EQ(runs.runs[0].row,
            layout->row_of(0, layout->region_of(0, other)));
  runs = objects.take_dirty(dsm::kAllRegions);
  EXPECT_EQ(runs.objects, 0u);
  EXPECT_TRUE(runs.runs.empty());

  // clear_dirty forgets marks without shipping (post-population reset).
  sess.set(a, 44);
  objects.clear_dirty();
  EXPECT_EQ(objects.dirty_objects(), 0u);
  EXPECT_EQ(sess.get(a), 44);
}

// ---- Zipfian generator -----------------------------------------------------

TEST(ZipfianGenerator, DeterministicBoundedAndSkewed) {
  work::ZipfianGenerator g1(1000, 0.99, 42);
  work::ZipfianGenerator g2(1000, 0.99, 42);
  std::vector<std::uint64_t> head_hits(4, 0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t a = g1.next();
    ASSERT_EQ(a, g2.next());
    ASSERT_LT(a, 1000u);
    if (a < head_hits.size()) ++head_hits[a];
  }
  // theta = 0.99 concentrates mass on the head keys.
  EXPECT_GT(head_hits[0], 500u);
  EXPECT_GT(head_hits[0], head_hits[1]);

  // theta = 0 degenerates to uniform: the head is not hot.
  work::ZipfianGenerator uniform(1000, 0.0, 42);
  std::uint64_t zero_hits = 0;
  for (int i = 0; i < 5000; ++i) {
    if (uniform.next() == 0) ++zero_hits;
  }
  EXPECT_LT(zero_hits, 50u);

  EXPECT_THROW(work::ZipfianGenerator(0, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(work::ZipfianGenerator(10, 1.0, 1), std::invalid_argument);
}

// ---- KV workload: exactly-once convergence in both modes -------------------

TEST(KvWorkload, ObjectModeConvergesExactlyOnce) {
  work::KvConfig cfg = small_kv();
  cfg.object_mode = true;
  const work::KvResult res = work::run_kv(cfg);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.ops, 750u);
  // Episodes really ran at object granularity...
  EXPECT_GT(res.stats.object_episodes, 0u);
  EXPECT_GE(res.stats.objects_shipped, res.stats.object_episodes);
  // ...with no page machinery.
  EXPECT_EQ(res.stats.dirty_pages, 0u);
}

TEST(KvWorkload, PageModeConvergesOnTheSameWorkload) {
  work::KvConfig cfg = small_kv();
  cfg.object_mode = false;
  const work::KvResult res = work::run_kv(cfg);
  EXPECT_TRUE(res.verified);
  // Page mode keeps its classic machinery: twin diffing runs and no
  // object episodes are ever counted — the off path stays untouched.
  EXPECT_GT(res.stats.dirty_pages, 0u);
  EXPECT_EQ(res.stats.object_episodes, 0u);
  EXPECT_EQ(res.stats.objects_shipped, 0u);
}

TEST(KvWorkload, FewRegionsObjectModeConverges) {
  work::KvConfig cfg = small_kv();
  cfg.num_regions = 4;
  cfg.object_mode = true;
  const work::KvResult res = work::run_kv(cfg);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.stats.object_episodes, 0u);
}

TEST(KvWorkload, AdaptiveEngineOnDoesNotChangeResults) {
  // Object episodes run through the adaptive pack path like page episodes;
  // the codec tuner's decisions may change traffic shape, never results.
  work::KvConfig cfg = small_kv();
  cfg.object_mode = true;
  cfg.dsd.codec = dsm::CodecMode::Adaptive;
  const work::KvResult res = work::run_kv(cfg);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.stats.object_episodes, 0u);
  EXPECT_GT(res.stats.adapt_episodes, 0u);
}

TEST(KvWorkload, UniformSkewAlsoConverges) {
  work::KvConfig cfg = small_kv();
  cfg.theta = 0.0;
  cfg.object_mode = true;
  const work::KvResult res = work::run_kv(cfg);
  EXPECT_TRUE(res.verified);
}

// ---- ObjectCluster surface -------------------------------------------------

TEST(ObjectCluster, HeterogeneousClusterShipsScopedInitialSeeds) {
  // A remote on a big-endian 64-bit platform reads what a little-endian
  // master populated before attach — through the guarding lock, each
  // region's stripe arriving on that region's first grant (entry
  // consistency scopes the initial seed), converted by the existing data
  // plane.
  const auto layout = small_layout(4);
  obj::ObjectCluster cluster(layout, plat::linux_ia32(),
                             {&plat::solaris_sparc64()});

  auto master = cluster.home().accessor<std::int64_t>(1);
  for (std::uint64_t i = 0; i < 16; ++i) {
    master.set(i, static_cast<std::int64_t>(i * 1000 + 1));
  }
  // Population precedes the run; the attach seed ships it, not an episode.
  cluster.home().objects().clear_dirty();

  cluster.run(
      [&](obj::ObjectHome& home) { home.wait_all_joined(); },
      [&](obj::ObjectRemote& remote) {
        auto ctr = remote.accessor<std::int64_t>(1);
        for (std::uint64_t i = 0; i < 16; ++i) {
          const std::uint32_t r = remote.layout().region_of(1, i);
          remote.lock(r);
          EXPECT_EQ(ctr.get(i), static_cast<std::int64_t>(i * 1000 + 1));
          ctr.set(i, ctr.get(i) + 1);
          remote.unlock(r);
        }
        remote.join();
      });

  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(master.get(i), static_cast<std::int64_t>(i * 1000 + 2));
  }
}

TEST(ObjectCluster, RemotesInheritTheHomesObsOptions) {
  // As in dsm::ShardedCluster: tracing the home while leaving the remote
  // options at their default traces the remotes too.
  dsm::ShardedHomeOptions opts;
  opts.obs.enabled = true;
  obj::ObjectCluster cluster(small_layout(), plat::linux_ia32(),
                             {&plat::solaris_sparc64()}, opts);
  EXPECT_NE(cluster.home().node().telemetry(), nullptr);
  EXPECT_NE(cluster.remote(1).node().telemetry(), nullptr);
  cluster.run([](obj::ObjectHome& home) { home.wait_all_joined(); },
              [](obj::ObjectRemote& remote) { remote.join(); });
}

TEST(ObjectCluster, NoNodeArmsTrackingAndEachShippingEpisodeCountsOnce) {
  // Object mode finds a node's writes through its engine's run source, so
  // no node ever arms write tracking; and every release that ships dirty
  // objects counts one object episode on the releasing node (a release
  // with nothing dirty counts none).
  const auto layout = small_layout(4);
  obj::ObjectCluster cluster(layout, plat::linux_ia32(),
                             {&plat::solaris_sparc64(), &plat::linux_ia32()});
  // Two objects of one region and one of another.
  const std::uint32_t r = layout->region_of(1, 0);
  std::uint64_t same = 0;
  std::uint64_t other = 0;
  for (std::uint64_t i = 1; i < 16; ++i) {
    if (same == 0 && layout->region_of(1, i) == r) same = i;
    if (other == 0 && layout->region_of(1, i) != r) other = i;
  }
  ASSERT_NE(same, 0u);
  ASSERT_NE(other, 0u);
  const auto tracking = [](dsm::GlobalSpace& g) {
    return g.region().tracking();
  };

  cluster.run(
      [&](obj::ObjectHome& home) {
        EXPECT_FALSE(tracking(home.node().space()));
        auto ctr = home.accessor<std::int64_t>(1);
        home.lock(r);
        ctr.set(0, 1);
        home.unlock(r);  // ships one object
        home.lock(r);
        home.unlock(r);  // nothing dirty
        EXPECT_FALSE(tracking(home.node().space()));
        home.wait_all_joined();
      },
      [&](obj::ObjectRemote& remote) {
        EXPECT_FALSE(tracking(remote.node().space()));
        auto ctr = remote.accessor<std::int64_t>(1);
        remote.lock(r);
        ctr.set(0, ctr.get(0) + 1);
        ctr.set(same, ctr.get(same) + 1);
        remote.unlock(r);  // ships two objects
        remote.lock(r);
        remote.unlock(r);  // nothing dirty
        ctr.set(other, 5);
        EXPECT_FALSE(tracking(remote.node().space()));
        remote.join();  // ships the one object written outside a lock
        EXPECT_FALSE(tracking(remote.node().space()));
      });

  EXPECT_FALSE(tracking(cluster.home().node().space()));
  const dsm::ShareStats home_stats = cluster.home().node().stats();
  EXPECT_EQ(home_stats.object_episodes, 1u);
  EXPECT_EQ(home_stats.objects_shipped, 1u);
  for (std::uint32_t rank = 1; rank <= 2; ++rank) {
    const dsm::ShareStats& s = cluster.remote(rank).node().stats();
    EXPECT_EQ(s.object_episodes, 2u) << "rank " << rank;
    EXPECT_EQ(s.objects_shipped, 3u) << "rank " << rank;
    EXPECT_EQ(s.dirty_pages, 0u) << "rank " << rank;
  }
}

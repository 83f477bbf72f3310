// Tests for shared arenas: array-of-struct fields addressed per slot,
// portable pointer tokens, allocation state that rides the DSM, and a
// linked list built by a big-endian node and traversed by a little-endian
// one.
#include <gtest/gtest.h>

#include <thread>

#include "dsm/arena.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "tags/describe.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
using tags::TypeDesc;

namespace {

constexpr std::uint64_t kSlots = 16;

tags::TypePtr node_type() {
  return tags::describe_struct("node")
      .field<int>("value")
      .field<double>("weight")
      .pointer("next")  // slot token
      .build();
}

tags::TypePtr arena_gthv() {
  return tags::describe_struct("G")
      .pointer("head")  // token of the list head
      .nested("pool", TypeDesc::array(node_type(), kSlots))
      .array<int>("pool_used", kSlots)
      .build();
}

}  // namespace

TEST(ArenaView, SlotMemberAccessBothPlatforms) {
  for (const plat::PlatformDesc* p :
       {&plat::linux_ia32(), &plat::solaris_sparc64()}) {
    dsm::GlobalSpace g(arena_gthv(), *p);
    dsm::ArenaView pool(g, "pool");
    EXPECT_EQ(pool.slots(), kSlots);
    pool.set<std::int32_t>(3, "value", -77);
    pool.set<double>(3, "weight", 2.25);
    pool.set<std::uint64_t>(3, "next", dsm::arena_token(5));
    EXPECT_EQ(pool.get<std::int32_t>(3, "value"), -77) << p->name;
    EXPECT_EQ(pool.get<double>(3, "weight"), 2.25) << p->name;
    EXPECT_EQ(pool.get<std::uint64_t>(3, "next"), dsm::arena_token(5));
    // Other slots untouched.
    EXPECT_EQ(pool.get<std::int32_t>(4, "value"), 0);
  }
}

TEST(ArenaView, RejectsBadShapesAndBounds) {
  dsm::GlobalSpace g(arena_gthv(), plat::linux_ia32());
  EXPECT_THROW(dsm::ArenaView(g, "head"), std::invalid_argument);
  EXPECT_THROW(dsm::ArenaView(g, "nope"), std::out_of_range);
  dsm::ArenaView pool(g, "pool");
  EXPECT_THROW(pool.get<std::int32_t>(kSlots, "value"), std::out_of_range);
  EXPECT_THROW(pool.get<std::int32_t>(0, "ghost"), std::out_of_range);
}

TEST(ArenaAllocator, AllocateFreeCycle) {
  dsm::GlobalSpace g(arena_gthv(), plat::linux_ia32());
  dsm::ArenaAllocator alloc(g, "pool_used");
  EXPECT_EQ(alloc.capacity(), kSlots);
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    const std::uint64_t t = alloc.allocate();
    ASSERT_NE(t, dsm::kArenaNull);
    tokens.push_back(t);
  }
  EXPECT_EQ(alloc.used(), kSlots);
  EXPECT_EQ(alloc.allocate(), dsm::kArenaNull);  // full
  alloc.deallocate(tokens[7]);
  EXPECT_TRUE(alloc.allocate() == tokens[7]);  // slot reused
  EXPECT_THROW(alloc.deallocate(dsm::kArenaNull), std::logic_error);
  alloc.deallocate(tokens[3]);
  EXPECT_THROW(alloc.deallocate(tokens[3]), std::logic_error);
  EXPECT_FALSE(alloc.in_use(tokens[3]));
}

TEST(Arena, LinkedListCrossesHeterogeneityBoundary) {
  // A big-endian remote builds the list 30 -> 20 -> 10 in the shared
  // arena; the little-endian home traverses it after the sync.
  dsm::ShardedHome home(arena_gthv(), plat::linux_ia32());
  dsm::ShardedRemote remote(arena_gthv(), plat::solaris_sparc32(), 1,
                            home.attach(1));
  home.start();

  std::thread builder([&] {
    remote.lock(0);
    dsm::ArenaView pool(remote.space(), "pool");
    dsm::ArenaAllocator alloc(remote.space(), "pool_used");
    std::uint64_t head = dsm::kArenaNull;
    for (int v = 10; v <= 30; v += 10) {
      const std::uint64_t t = alloc.allocate();
      ASSERT_NE(t, dsm::kArenaNull);
      pool.set<std::int32_t>(dsm::arena_slot(t), "value", v);
      pool.set<double>(dsm::arena_slot(t), "weight", v / 4.0);
      pool.set<std::uint64_t>(dsm::arena_slot(t), "next", head);
      head = t;
    }
    remote.space().view<std::uint64_t>("head").set(head);
    remote.unlock(0);
    remote.join();
  });
  builder.join();
  home.wait_all_joined();

  dsm::ArenaView pool(home.space(), "pool");
  dsm::ArenaAllocator alloc(home.space(), "pool_used");
  EXPECT_EQ(alloc.used(), 3u);

  std::vector<std::int32_t> values;
  std::vector<double> weights;
  std::uint64_t cursor = home.space().view<std::uint64_t>("head").get();
  while (cursor != dsm::kArenaNull) {
    const std::uint64_t slot = dsm::arena_slot(cursor);
    values.push_back(pool.get<std::int32_t>(slot, "value"));
    weights.push_back(pool.get<double>(slot, "weight"));
    cursor = pool.get<std::uint64_t>(slot, "next");
  }
  EXPECT_EQ(values, (std::vector<std::int32_t>{30, 20, 10}));
  EXPECT_EQ(weights, (std::vector<double>{7.5, 5.0, 2.5}));
  home.stop();
}

TEST(Arena, AllocatorStateMigratesWithTheData) {
  // The home allocates; a late-joining node must see the same occupancy
  // and continue allocating without collisions.
  dsm::ShardedHome home(arena_gthv(), plat::linux_ia32());
  home.start();
  home.lock(0);
  dsm::ArenaAllocator halloc(home.space(), "pool_used");
  dsm::ArenaView hpool(home.space(), "pool");
  const std::uint64_t a = halloc.allocate();
  const std::uint64_t b = halloc.allocate();
  hpool.set<std::int32_t>(dsm::arena_slot(a), "value", 1);
  hpool.set<std::int32_t>(dsm::arena_slot(b), "value", 2);
  home.unlock(0);

  dsm::ShardedRemote late(arena_gthv(), plat::windows_x64(), 4,
                          home.attach(4));
  std::thread joiner([&] {
    late.lock(0);
    dsm::ArenaAllocator ralloc(late.space(), "pool_used");
    EXPECT_EQ(ralloc.used(), 2u);
    const std::uint64_t c = ralloc.allocate();
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    dsm::ArenaView rpool(late.space(), "pool");
    rpool.set<std::int32_t>(dsm::arena_slot(c), "value", 3);
    late.unlock(0);
    late.join();
  });
  joiner.join();
  home.wait_all_joined();
  EXPECT_EQ(dsm::ArenaAllocator(home.space(), "pool_used").used(), 3u);
  home.stop();
}

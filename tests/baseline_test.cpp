// Tests for the homogeneous page-based DSM baseline: raw twin/diff update
// collection, the whole-page-send threshold, and two-node propagation.
#include <gtest/gtest.h>

#include <cstring>

#include "baseline/page_dsm.hpp"

namespace base = hdsm::base;
namespace mem = hdsm::mem;

TEST(PageDsm, CollectsRawByteUpdates) {
  base::PageDsmNode node(4096);
  node.start_tracking();
  node.data()[100] = std::byte{1};
  node.data()[101] = std::byte{2};
  node.data()[500] = std::byte{3};
  const auto updates = node.collect_updates();
  node.stop_tracking();
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(updates[0].offset, 100u);
  EXPECT_EQ(updates[0].data.size(), 2u);
  EXPECT_EQ(updates[1].offset, 500u);
  EXPECT_FALSE(updates[0].whole_page);
}

TEST(PageDsm, WholePageThresholdTriggers) {
  const std::size_t ps = mem::Region::host_page_size();
  base::PageDsmOptions opts;
  opts.whole_page_threshold = 0.5;
  base::PageDsmNode node(2 * ps, opts);
  node.start_tracking();
  // Dirty > half of page 0.
  for (std::size_t i = 0; i < ps / 2 + 16; ++i) {
    node.data()[i] = std::byte{7};
  }
  const auto updates = node.collect_updates();
  node.stop_tracking();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_TRUE(updates[0].whole_page);
  EXPECT_EQ(updates[0].data.size(), ps);
  EXPECT_EQ(node.stats().whole_pages, 1u);
}

TEST(PageDsm, ThresholdDisabled) {
  const std::size_t ps = mem::Region::host_page_size();
  base::PageDsmOptions opts;
  opts.whole_page_threshold = 1.0;  // no page can change more than all of it
  base::PageDsmNode node(ps, opts);
  node.start_tracking();
  for (std::size_t i = 0; i < ps; i += 2) node.data()[i] = std::byte{1};
  const auto updates = node.collect_updates();
  node.stop_tracking();
  // Every other byte differs: one range per byte, no whole page.
  EXPECT_EQ(updates.size(), ps / 2);
  EXPECT_EQ(node.stats().whole_pages, 0u);
}

TEST(PageDsm, TwoNodePropagation) {
  base::PageDsmNode a(8192), b(8192);
  a.start_tracking();
  const char msg[] = "hello page dsm";
  std::memcpy(a.data() + 1000, msg, sizeof(msg));
  const auto updates = a.collect_updates();
  a.stop_tracking();
  b.apply_updates(updates);
  EXPECT_EQ(std::memcmp(b.data() + 1000, msg, sizeof(msg)), 0);
  EXPECT_GT(a.stats().bytes_sent, 0u);
  EXPECT_GT(b.stats().apply_ns, 0u);
}

TEST(PageDsm, FalseSharingShipsUntouchedNeighborBytes) {
  // Two "objects" on one page, each written by a different writer.  The
  // page-granularity baseline with the threshold on ships the whole page —
  // the false-sharing cost the paper's object-level updates avoid.
  const std::size_t ps = mem::Region::host_page_size();
  base::PageDsmNode node(ps);
  node.start_tracking();
  for (std::size_t i = 0; i < ps; ++i) {
    node.data()[i] = std::byte{0x10};  // whole page modified
  }
  const auto updates = node.collect_updates();
  node.stop_tracking();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_TRUE(updates[0].whole_page);
}

TEST(PageDsm, ApplyBoundsChecked) {
  base::PageDsmNode node(128);
  base::PageUpdate u;
  u.offset = 4096;
  u.data.assign(4, std::byte{0});
  EXPECT_THROW(node.apply_updates({u}), std::out_of_range);
}

TEST(PageDsm, RepeatedIntervals) {
  base::PageDsmNode node(4096);
  node.start_tracking();
  for (int round = 0; round < 4; ++round) {
    node.data()[round * 8] = std::byte{static_cast<unsigned char>(round + 1)};
    const auto updates = node.collect_updates();
    ASSERT_EQ(updates.size(), 1u) << round;
    EXPECT_EQ(updates[0].offset, static_cast<std::size_t>(round * 8));
  }
  node.stop_tracking();
  EXPECT_EQ(node.stats().dirty_pages, 4u);
}

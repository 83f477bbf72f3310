// Tests for the index table (paper Table 1) and the diff-range -> element
// run mapping with coalescing.
#include <gtest/gtest.h>

#include <random>

#include "index/index_table.hpp"

namespace idx = hdsm::idx;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
using tags::TypeDesc;

namespace {

tags::TypePtr table1_gthv() {
  // Figure 4: struct GThV_t { void* GThP; int A,B,C[237*237]; int n; }
  const std::uint64_t nn = 237 * 237;
  return TypeDesc::struct_of("GThV_t",
                             {{"GThP", TypeDesc::pointer()},
                              {"A", TypeDesc::array(tags::t_int(), nn)},
                              {"B", TypeDesc::array(tags::t_int(), nn)},
                              {"C", TypeDesc::array(tags::t_int(), nn)},
                              {"n", tags::t_int()}});
}

}  // namespace

TEST(IndexTable, ReproducesTable1) {
  // Table 1 of the paper, built on the Linux/IA-32 machine at base address
  // 0x40058000.
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<idx::IndexRow>& rows = t.rows();
  ASSERT_EQ(rows.size(), 10u);

  const std::uint64_t base = 0x40058000;
  struct Expect {
    std::uint64_t addr;
    std::uint32_t size;
    std::int64_t number;
  };
  const Expect expected[10] = {
      {0x40058000, 4, -1},    {0x40058004, 0, 0}, {0x40058004, 4, 56169},
      {0x4008eda8, 0, 0},     {0x4008eda8, 4, 56169}, {0x400c5b4c, 0, 0},
      {0x400c5b4c, 4, 56169}, {0x400fc8f0, 0, 0}, {0x400fc8f0, 4, 1},
      {0x400fc8f4, 0, 0},
  };
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(base + rows[i].offset, expected[i].addr) << "row " << i;
    EXPECT_EQ(rows[i].size, expected[i].size) << "row " << i;
    EXPECT_EQ(rows[i].number, expected[i].number) << "row " << i;
  }
}

TEST(IndexTable, Table1StringRendering) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::string s = t.to_table_string(0x40058000);
  EXPECT_NE(s.find("0x40058000  4  -1"), std::string::npos);
  EXPECT_NE(s.find("0x40058004  4  56169"), std::string::npos);
  EXPECT_NE(s.find("0x400fc8f4  0  0"), std::string::npos);
}

TEST(IndexTable, RowIndexesArePlatformInvariant) {
  // "while the data-type sizes may differ within the tables, the indexes
  //  of each element will remain the same."
  auto t = TypeDesc::struct_of("S", {{"p", TypeDesc::pointer()},
                                     {"l", tags::t_long()},
                                     {"a", TypeDesc::array(tags::t_int(), 7)}});
  const idx::IndexTable a(t, plat::linux_ia32());
  const idx::IndexTable b(t, plat::solaris_sparc64());
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (std::size_t i = 0; i < a.rows().size(); ++i) {
    EXPECT_EQ(a.rows()[i].number < 0, b.rows()[i].number < 0) << i;
    EXPECT_EQ(a.rows()[i].is_padding(), b.rows()[i].is_padding()) << i;
    if (!a.rows()[i].is_padding()) {
      EXPECT_EQ(a.rows()[i].element_count(), b.rows()[i].element_count());
    }
  }
  // Sizes differ: pointer/long are 4 on IA-32, 8 on SPARC64.
  EXPECT_EQ(a.rows()[0].size, 4u);
  EXPECT_EQ(b.rows()[0].size, 8u);
}

TEST(IndexTable, FieldNameLookup) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  EXPECT_EQ(t.row_of_field("GThP"), 0u);
  EXPECT_EQ(t.row_of_field("A"), 2u);
  EXPECT_EQ(t.row_of_field("B"), 4u);
  EXPECT_EQ(t.row_of_field("C"), 6u);
  EXPECT_EQ(t.row_of_field("n"), 8u);
  EXPECT_EQ(t.row_of_field(std::size_t{1}), 2u);
  EXPECT_THROW(t.row_of_field("nope"), std::out_of_range);
}

TEST(IndexTable, LocateMapsOffsetsToRowsAndElements) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  auto loc = t.locate(0);  // the pointer
  EXPECT_EQ(loc.row, 0u);
  EXPECT_EQ(loc.elem, 0u);
  loc = t.locate(4);  // A[0]
  EXPECT_EQ(loc.row, 2u);
  EXPECT_EQ(loc.elem, 0u);
  loc = t.locate(4 + 4 * 1000 + 2);  // inside A[1000]
  EXPECT_EQ(loc.row, 2u);
  EXPECT_EQ(loc.elem, 1000u);
  loc = t.locate(4 + 4 * 56169);  // B[0]
  EXPECT_EQ(loc.row, 4u);
  EXPECT_EQ(loc.elem, 0u);
  EXPECT_THROW(t.locate(t.image_size()), std::out_of_range);
}

TEST(IndexTable, PaddingRowsWithRealPadding) {
  auto t = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                     {"d", tags::t_double()}});
  const idx::IndexTable tab(t, plat::solaris_sparc32());
  ASSERT_EQ(tab.rows().size(), 4u);
  EXPECT_EQ(tab.rows()[1].size, 7u);  // 7 bytes padding after the char
  EXPECT_EQ(tab.rows()[1].number, 0);
  EXPECT_TRUE(tab.rows()[1].is_padding());
  // locate() inside padding returns the padding row.
  EXPECT_EQ(tab.locate(3).row, 1u);
}

// ---- diff-range -> run mapping ---------------------------------------------

TEST(MapRanges, PartialElementShipsWholeElement) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  // One byte inside A[5].
  const std::uint64_t off = 4 + 5 * 4 + 1;
  const std::vector<hdsm::mem::ByteRange> ranges = {{off, off + 1}};
  const auto runs = idx::map_ranges_to_runs(t, ranges);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].row, 2u);
  EXPECT_EQ(runs[0].first_elem, 5u);
  EXPECT_EQ(runs[0].count, 1u);
}

TEST(MapRanges, RangeSpanningElementsCoversAll) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  // From mid-A[2] to mid-A[6]: elements 2..6.
  const std::vector<hdsm::mem::ByteRange> ranges = {{4 + 2 * 4 + 3,
                                                     4 + 6 * 4 + 1}};
  const auto runs = idx::map_ranges_to_runs(t, ranges);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_elem, 2u);
  EXPECT_EQ(runs[0].count, 5u);
}

TEST(MapRanges, RangeCrossingRowsSplits) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  // Last 2 elements of A and first 3 of B.
  const std::uint64_t a_end = 4 + 56169 * 4;
  const std::vector<hdsm::mem::ByteRange> ranges = {{a_end - 8, a_end + 12}};
  const auto runs = idx::map_ranges_to_runs(t, ranges);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].row, 2u);
  EXPECT_EQ(runs[0].first_elem, 56167u);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_EQ(runs[1].row, 4u);
  EXPECT_EQ(runs[1].first_elem, 0u);
  EXPECT_EQ(runs[1].count, 3u);
}

TEST(MapRanges, AdjacentRangesCoalesceIntoOneRun) {
  // "our system attempts to group consecutive array elements into a single
  //  tag ... distill many (hundreds, perhaps thousands) indexes into a
  //  single tag."
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  std::vector<hdsm::mem::ByteRange> ranges;
  for (int e = 0; e < 1000; ++e) {
    const std::uint64_t off = 4 + e * 4;
    ranges.push_back({off, off + 4});
  }
  const auto coalesced = idx::map_ranges_to_runs(t, ranges, true);
  ASSERT_EQ(coalesced.size(), 1u);
  EXPECT_EQ(coalesced[0].count, 1000u);
  const auto split = idx::map_ranges_to_runs(t, ranges, false);
  EXPECT_EQ(split.size(), 1000u);
}

TEST(MapRanges, OverlappingRangesDoNotDoubleCount) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<hdsm::mem::ByteRange> ranges = {{4, 20}, {12, 28}};
  const auto runs = idx::map_ranges_to_runs(t, ranges, true);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_elem, 0u);
  EXPECT_EQ(runs[0].count, 6u);
}

TEST(MapRanges, PaddingOnlyRangesVanish) {
  auto ty = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                      {"d", tags::t_double()}});
  const idx::IndexTable t(ty, plat::solaris_sparc32());
  const std::vector<hdsm::mem::ByteRange> ranges = {{2, 6}};  // inside padding
  EXPECT_TRUE(idx::map_ranges_to_runs(t, ranges).empty());
}

TEST(MapRanges, RunGeometryHelpers) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  idx::UpdateRun run;
  run.row = 4;  // B
  run.first_elem = 10;
  run.count = 25;
  EXPECT_EQ(idx::run_offset(t, run), 4u + 56169u * 4 + 10 * 4);
  EXPECT_EQ(idx::run_byte_length(t, run), 100u);
}

TEST(MapRanges, RandomPropertyRunsCoverExactlyTouchedElements) {
  auto ty = TypeDesc::struct_of(
      "S", {{"p", TypeDesc::pointer()},
            {"a", TypeDesc::array(tags::t_short(), 333)},
            {"d", TypeDesc::array(tags::t_double(), 55)},
            {"n", tags::t_int()}});
  const idx::IndexTable t(ty, plat::solaris_sparc32());
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    // Generate sorted, disjoint byte ranges.
    std::vector<hdsm::mem::ByteRange> ranges;
    std::uint64_t pos = rng() % 16;
    while (pos < t.image_size()) {
      const std::uint64_t len = 1 + rng() % 40;
      const std::uint64_t end = std::min<std::uint64_t>(pos + len,
                                                        t.image_size());
      ranges.push_back({pos, end});
      pos = end + 1 + rng() % 64;
    }
    const auto runs = idx::map_ranges_to_runs(t, ranges, true);
    // Every touched non-padding byte is covered by some run.
    for (const auto& r : ranges) {
      for (std::uint64_t b = r.begin; b < r.end; ++b) {
        const auto loc = t.locate(b);
        if (t.rows()[loc.row].is_padding()) continue;
        bool covered = false;
        for (const auto& run : runs) {
          if (run.row == loc.row && loc.elem >= run.first_elem &&
              loc.elem < run.first_elem + run.count) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "byte " << b;
      }
    }
    // No run extends past its row.
    for (const auto& run : runs) {
      EXPECT_LE(run.first_elem + run.count,
                t.rows()[run.row].element_count());
      EXPECT_GT(run.count, 0u);
    }
  }
}

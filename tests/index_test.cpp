// Tests for the index table (paper Table 1) and the element walk that turns
// written windows into element runs, contiguous and strided.  The
// randomized walk property (both write-trap backends, against a greedy
// constant-stride oracle) is in data_plane_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

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

// ---- element walk: written windows -> element runs -------------------------

namespace {

/// Walk `after` against `before` window by window, as the collect walks
/// written pages.
std::vector<idx::UpdateRun> walk(const idx::IndexTable& t,
                                 const std::vector<std::byte>& after,
                                 const std::vector<std::byte>& before,
                                 idx::RunRules rules = {},
                                 std::size_t window = 4096) {
  std::vector<idx::UpdateRun> out;
  for (std::size_t base = 0; base < after.size(); base += window) {
    const std::size_t len = std::min(window, after.size() - base);
    idx::diff_runs(t, base, after.data() + base, before.data() + base, len,
                   rules, out);
  }
  return out;
}

void touch(std::vector<std::byte>& image, std::uint64_t begin,
           std::uint64_t end) {
  for (std::uint64_t b = begin; b < end; ++b) image[b] ^= std::byte{0x5a};
}

}  // namespace

TEST(DiffRuns, PartialElementShipsWholeElement) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 4 + 5 * 4 + 1, 4 + 5 * 4 + 2);  // one byte inside A[5]
  const auto runs = walk(t, after, before);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (idx::UpdateRun{2, 5, 1}));
}

TEST(DiffRuns, ChangeSpanningElementsCoversAll) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 4 + 2 * 4 + 3, 4 + 6 * 4 + 1);  // mid-A[2] to mid-A[6]
  const auto runs = walk(t, after, before);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (idx::UpdateRun{2, 2, 5}));
}

TEST(DiffRuns, ChangeCrossingRowsSplits) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  const std::uint64_t a_end = 4 + 56169 * 4;
  touch(after, a_end - 8, a_end + 12);  // last 2 of A, first 3 of B
  const auto runs = walk(t, after, before);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (idx::UpdateRun{2, 56167, 2}));
  EXPECT_EQ(runs[1], (idx::UpdateRun{4, 0, 3}));
}

TEST(DiffRuns, CoalesceJoinsConsecutiveElementsSplitShipsEachAlone) {
  // "our system attempts to group consecutive array elements into a single
  //  tag ... distill many (hundreds, perhaps thousands) indexes into a
  //  single tag."
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 4, 4 + 1000 * 4);
  const auto coalesced = walk(t, after, before);
  ASSERT_EQ(coalesced.size(), 1u);
  EXPECT_EQ(coalesced[0], (idx::UpdateRun{2, 0, 1000}));
  const auto split = walk(t, after, before, {.coalesce = false});
  ASSERT_EQ(split.size(), 1000u);
  for (std::uint64_t e = 0; e < split.size(); ++e) {
    EXPECT_EQ(split[e], (idx::UpdateRun{2, e, 1}));
  }
}

TEST(DiffRuns, SplitModeShipsOneRunPerElementWhateverItsBytes) {
  // A[7] with its first and last byte changed and the middle two equal:
  // one changed element, so one run.
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 4 + 7 * 4, 4 + 7 * 4 + 1);
  touch(after, 4 + 7 * 4 + 3, 4 + 7 * 4 + 4);
  for (const bool coalesce : {false, true}) {
    const auto runs = walk(t, after, before, {.coalesce = coalesce});
    ASSERT_EQ(runs.size(), 1u) << coalesce;
    EXPECT_EQ(runs[0], (idx::UpdateRun{2, 7, 1}));
  }
}

TEST(DiffRuns, PaddingOnlyChangesVanish) {
  auto ty = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                      {"d", tags::t_double()}});
  const idx::IndexTable t(ty, plat::solaris_sparc32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 2, 6);  // inside the 7 padding bytes after the char
  EXPECT_TRUE(walk(t, after, before).empty());
}

TEST(DiffRuns, EveryOtherElementIsOneStridedRun) {
  // A red/black half-sweep's cells: A[10], A[12], ..., A[40] are one run
  // of stride 2, and no element between them is shipped.
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  for (std::uint64_t e = 10; e <= 40; e += 2) {
    touch(after, 4 + e * 4, 5 + e * 4);
  }
  EXPECT_EQ(walk(t, after, before),
            (std::vector<idx::UpdateRun>{{2, 10, 16, 2}}));
  // Split mode ships each element alone.
  const auto split = walk(t, after, before, {.coalesce = false});
  ASSERT_EQ(split.size(), 16u);
  EXPECT_EQ(split[3], (idx::UpdateRun{2, 16, 1}));
}

TEST(DiffRuns, StridedRunsAreGreedyByConstantStride) {
  // A[10] takes its stride from A[13] and A[16] continues it.  A[17] is
  // not one stride on, so it starts a run whose stride A[20] sets and A[23]
  // continues; A[100] starts a third.
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  for (const std::uint64_t e : {10, 13, 16, 17, 20, 23, 100}) {
    touch(after, 4 + e * 4, 5 + e * 4);
  }
  using Runs = std::vector<idx::UpdateRun>;
  EXPECT_EQ(walk(t, after, before),
            (Runs{{2, 10, 3, 3}, {2, 17, 3, 3}, {2, 100, 1}}));
}

TEST(DiffRuns, StridesNeverCrossRows) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  const std::uint64_t a_end = 4 + 56169 * 4;
  touch(after, a_end - 12, a_end - 11);  // A[56166]
  touch(after, a_end - 4, a_end - 3);    // A[56168]
  touch(after, a_end + 4, a_end + 5);    // B[1]
  EXPECT_EQ(walk(t, after, before),
            (std::vector<idx::UpdateRun>{{2, 56166, 2, 2}, {4, 1, 1}}));
}

TEST(DiffRuns, AppendElementCapsTheStrideAtThirtyTwoBits) {
  // Two elements more than 2^32 - 1 apart stay two runs: the stride is a
  // 32-bit field.
  std::vector<idx::UpdateRun> out;
  idx::append_element(out, 0, 5);
  idx::append_element(out, 0, 5 + (std::uint64_t{1} << 32));
  EXPECT_EQ(out, (std::vector<idx::UpdateRun>{
                     {0, 5, 1}, {0, 5 + (std::uint64_t{1} << 32), 1}}));
  idx::append_element(out, 0, 6 + (std::uint64_t{1} << 32));
  idx::append_element(out, 0, 5 + (std::uint64_t{1} << 32));  // shipped
  EXPECT_EQ(out.back(), (idx::UpdateRun{0, 5 + (std::uint64_t{1} << 32), 2}));
  static_assert(sizeof(idx::UpdateRun) == 24);
}

TEST(DiffRuns, ElementStraddlingAWindowEdgeIsOneRun) {
  // ia32 aligns a double to 4 in a struct, so d[1] = [12, 20) straddles
  // the edge of 16-byte windows.
  auto ty = TypeDesc::struct_of(
      "S", {{"n", tags::t_int()}, {"d", TypeDesc::array(tags::t_double(), 8)}});
  const idx::IndexTable t(ty, plat::linux_ia32());
  ASSERT_EQ(t.rows()[2].offset, 4u);
  const std::vector<std::byte> before(t.image_size());
  for (const auto& [lo, hi] : {std::pair{13, 14}, std::pair{18, 19},
                               std::pair{12, 20}}) {
    std::vector<std::byte> after = before;
    touch(after, lo, hi);
    for (const bool coalesce : {false, true}) {
      EXPECT_EQ(walk(t, after, before, {.coalesce = coalesce}, 16),
                (std::vector<idx::UpdateRun>{{2, 1, 1}}))
          << lo << ".." << hi << " coalesce=" << coalesce;
    }
  }
}

TEST(DiffRuns, RunContinuesIntoTheNextWindow) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 4, 4 + 100 * 4);
  EXPECT_EQ(walk(t, after, before, {}, 64),
            (std::vector<idx::UpdateRun>{{2, 0, 100}}));
}

TEST(DiffRuns, OutOfOrderWindowsRejected) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  const std::vector<std::byte> before(t.image_size());
  std::vector<std::byte> after = before;
  touch(after, 64, 65);  // A[15]
  std::vector<idx::UpdateRun> out;
  idx::diff_runs(t, 64, after.data() + 64, before.data() + 64, 64, {}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_THROW(
      idx::diff_runs(t, 0, after.data(), before.data(), 64, {}, out),
      std::invalid_argument);
  // The run list is untouched by the rejected call.
  EXPECT_EQ(out, (std::vector<idx::UpdateRun>{{2, 15, 1}}));
}

TEST(DiffRuns, RunGeometryHelpers) {
  const idx::IndexTable t(table1_gthv(), plat::linux_ia32());
  idx::UpdateRun run;
  run.row = 4;  // B
  run.first_elem = 10;
  run.count = 25;
  EXPECT_EQ(idx::run_offset(t, run), 4u + 56169u * 4 + 10 * 4);
  EXPECT_EQ(run.last_elem(), 34u);
  run.stride = 3;
  EXPECT_EQ(run.last_elem(), 82u);
}

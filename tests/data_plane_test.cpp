// Tests for the two-phase (validate-then-apply) data plane: all-or-nothing
// payload application that leaves write tracking armed, zero-copy
// single-buffer packing, the run lists of multi-page collects (and the
// element walk against a greedy constant-stride oracle), a multi-page
// heterogeneous apply (these page-mode round trips on both write-trap
// backends), the one-lane option check, when the codec tuner is built and
// that it never joins a stride-2 collect across unwritten cells, the
// per-(sender, row) conversion-plan cache, the pending-set merge against a
// set-of-elements oracle, strided releases and grants that leave the
// elements between their cells intact, and the pack/apply round trip that
// returns the packed runs exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/coherence_core.hpp"
#include "dsm/global_space.hpp"
#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"
#include "msg/message.hpp"
#include "trap_backends.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
using tags::TypeDesc;

namespace {

tags::TypePtr small_gthv(std::uint64_t n = 64) {
  return TypeDesc::struct_of("G", {{"GThP", TypeDesc::pointer()},
                                   {"A", TypeDesc::array(tags::t_int(), n)},
                                   {"D", TypeDesc::array(tags::t_double(), 8)},
                                   {"n", tags::t_int()}});
}

/// A multi-page GThV: 1 MiB of ints plus 32 KiB of doubles.
tags::TypePtr big_gthv(std::uint64_t ints = 1 << 18) {
  return TypeDesc::struct_of(
      "G", {{"A", TypeDesc::array(tags::t_int(), ints)},
            {"D", TypeDesc::array(tags::t_double(), 1 << 12)}});
}

std::vector<std::byte> image_snapshot(const dsm::GlobalSpace& g) {
  const std::byte* base = g.region().data();
  return std::vector<std::byte>(base, base + g.table().image_size());
}

}  // namespace

// The page-mode diff/pack round trips run on both write-trap backends.
class TrackedApply : public hdsm::test::TrapBackendTest {};
class ZeroCopyPack : public hdsm::test::TrapBackendTest {};
class CollectRuns : public hdsm::test::TrapBackendTest {};
class HeterogeneousApply : public hdsm::test::TrapBackendTest {};
HDSM_ON_BOTH_TRAP_BACKENDS(TrackedApply);
HDSM_ON_BOTH_TRAP_BACKENDS(ZeroCopyPack);
HDSM_ON_BOTH_TRAP_BACKENDS(CollectRuns);
HDSM_ON_BOTH_TRAP_BACKENDS(HeterogeneousApply);

// ---- atomic (all-or-nothing) application -----------------------------------

TEST(AtomicApply, ValidPrefixIsNotAppliedWhenALaterBlockIsMalformed) {
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine engine(receiver, {}, rs);
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());

  dsm::UpdateBlock good;
  good.row = 2;  // "A"
  good.first_elem = 0;
  good.tag = "(4,1)";
  good.data.assign(4, std::byte{0x5a});
  dsm::UpdateBlock bad = good;
  bad.row = 999;  // validation fails on the *second* block

  const std::vector<std::byte> before = image_snapshot(receiver);
  EXPECT_THROW(engine.apply_payload(dsm::encode_update_blocks({good, bad}),
                                    summary),
               std::runtime_error);
  // Phase 1 rejected the payload before phase 2 wrote anything: the valid
  // first block must not have landed (the pre-refactor engine interleaved
  // validate and apply, leaving a torn update here).
  EXPECT_EQ(image_snapshot(receiver), before);
  EXPECT_EQ(rs.updates_received, 0u);

  // The same good block alone still applies.
  engine.apply_payload(dsm::encode_update_blocks({good}), summary);
  EXPECT_EQ(receiver.view<std::int32_t>("A").get(0), 0x5a5a5a5a);
}

TEST_P(TrackedApply, RejectedPayloadLeavesTrackingArmed) {
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32(), GetParam());
  dsm::ShareStats rs;
  dsm::SyncEngine engine(receiver, {}, rs);
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());

  receiver.region().begin_tracking();
  receiver.view<std::int32_t>("A").set(1, 11);
  (void)engine.collect_runs();  // consume the interval; region re-armed

  // Mid-interval, a malformed payload arrives: one valid block, then one
  // whose data length disagrees with its tag.
  dsm::UpdateBlock good;
  good.row = 2;
  good.first_elem = 3;
  good.tag = "(4,1)";
  good.data.assign(4, std::byte{0x77});
  dsm::UpdateBlock torn;
  torn.row = 2;
  torn.first_elem = 10;
  torn.tag = "(4,2)";
  torn.data.assign(4, std::byte{0x13});  // 4 bytes, tag says 8

  const std::vector<std::byte> before = image_snapshot(receiver);
  EXPECT_THROW(engine.apply_payload(dsm::encode_update_blocks({good, torn}),
                                    summary),
               std::runtime_error);

  // No torn bytes, and write tracking is still armed: a rejected payload
  // must not leave any later write untracked for the rest of the run.
  EXPECT_EQ(image_snapshot(receiver), before);
  EXPECT_TRUE(receiver.region().tracking());
  receiver.view<std::int32_t>("A").set(5, 55);
  const auto runs = engine.collect_runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_elem, 5u);
  EXPECT_EQ(runs[0].count, 1u);
  receiver.region().end_tracking();
}

TEST(AtomicApply, HomeDetachesSenderOfMalformedPayload) {
  // End to end through the home node: a malformed-block unlock payload
  // must apply nothing to the master image, leave the home operational,
  // and detach the sender.
  dsm::TraceLog log;
  dsm::ShardedHomeOptions hopts;
  hopts.trace = &log;
  dsm::ShardedHome home(small_gthv(), plat::linux_ia32(), hopts);
  msg::EndpointPtr ep = home.attach(1);
  home.start();
  const std::string tag = home.space().image_tag_text();

  const auto raw = [](msg::MsgType t, std::uint32_t seq, std::uint32_t sync_id,
                      const std::string& hello_tag = "",
                      std::vector<std::byte> payload = {}) {
    msg::Message m;
    m.type = t;
    m.seq = seq;
    m.sync_id = sync_id;
    m.rank = 1;
    m.sender = msg::PlatformSummary::of(plat::linux_ia32());
    m.tag = hello_tag;
    m.payload = std::move(payload);
    return m;
  };

  ep->send(raw(msg::MsgType::Hello, 0, /*epoch=*/1, tag));
  ep->send(raw(msg::MsgType::LockRequest, 1, 0));
  ASSERT_EQ(ep->recv().type, msg::MsgType::LockGrant);

  dsm::UpdateBlock good;
  good.row = 2;
  good.first_elem = 0;
  good.tag = "(4,1)";
  good.data.assign(4, std::byte{0x21});
  dsm::UpdateBlock bad = good;
  bad.first_elem = 63;
  bad.tag = "(4,2)";  // overruns the row
  bad.data.assign(8, std::byte{0x42});
  ep->send(raw(msg::MsgType::UnlockRequest, 2, 0, "",
               dsm::encode_update_blocks({good, bad})));

  // The home detaches rank 1 instead of acking.
  ASSERT_TRUE([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      for (const dsm::TraceEvent& e : log.snapshot()) {
        if (e.kind == dsm::TraceEvent::Kind::Detached && e.rank == 1) {
          return true;
        }
      }
      std::this_thread::yield();
    }
    return false;
  }());
  EXPECT_TRUE(home.active_ranks().empty());

  // Nothing landed — not even the valid first block.
  home.lock(0);
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(0), 0);
  home.space().view<std::int32_t>("A").set(7, 77);  // still tracked
  home.unlock(0);
  home.stop();
}

// ---- zero-copy packing -----------------------------------------------------

TEST_P(ZeroCopyPack, PayloadByteIdenticalToGoldenEncoding) {
  // pack_payload writes blocks straight into the wire buffer; pin its byte
  // form against the reference block codec: decoding the payload and
  // re-encoding the blocks must reproduce the exact same bytes.
  dsm::GlobalSpace g(small_gthv(), plat::solaris_sparc32(), GetParam());
  dsm::ShareStats s1;
  dsm::SyncEngine engine(g, {}, s1);

  g.region().begin_tracking();
  auto a = g.view<std::int32_t>("A");
  for (int i = 0; i < 20; ++i) a.set(i * 3, i - 9);
  g.view<double>("D").set(4, 0.125);
  g.view<std::uint64_t>("GThP").set(0xbeef);
  const auto runs = engine.collect_runs();
  g.region().end_tracking();
  ASSERT_FALSE(runs.empty());

  const std::vector<std::byte> wire = engine.pack_payload(runs);
  const auto blocks = dsm::decode_update_blocks(wire);
  EXPECT_EQ(blocks.size(), runs.size());
  EXPECT_EQ(wire, dsm::encode_update_blocks(blocks));
}

TEST_P(ZeroCopyPack, Stride2RunsByteIdenticalToGoldenEncoding) {
  // The red/black SOR shape: every other double dirty.  The collect makes
  // it one strided run, whose block carries the written doubles alone under
  // the tag "((8,1)(8,0),n)"; prebuilt one-element runs of the same cells
  // still ship as (8,1) blocks.  A second pack of the same runs reuses the
  // engine's render buffer and comes out byte-identical.
  constexpr std::uint64_t kRuns = 4096;
  dsm::GlobalSpace g(
      TypeDesc::struct_of(
          "G", {{"D", TypeDesc::array(tags::t_double(), 2 * kRuns)}}),
      plat::solaris_sparc32(), GetParam());
  dsm::ShareStats s;
  dsm::SyncEngine engine(g, {}, s);

  g.region().begin_tracking();
  auto d = g.view<double>("D");
  for (std::uint64_t i = 0; i < kRuns; ++i) d.set(2 * i, 0.5 + i);
  const auto runs = engine.collect_runs();
  g.region().end_tracking();
  ASSERT_EQ(runs, (std::vector<hdsm::idx::UpdateRun>{{0, 0, kRuns, 2}}));

  const std::vector<std::byte> wire = engine.pack_payload(runs);
  const auto blocks = dsm::decode_update_blocks(wire);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].first_elem, 0u);
  EXPECT_EQ(blocks[0].tag, "((8,1)(8,0)," + std::to_string(kRuns) + ")");
  ASSERT_EQ(blocks[0].data.size(), 8 * kRuns);
  const std::byte* image = g.region().data();
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    ASSERT_EQ(std::memcmp(blocks[0].data.data() + 8 * i, image + 16 * i, 8),
              0)
        << i;
  }
  EXPECT_EQ(wire, dsm::encode_update_blocks(blocks));
  EXPECT_EQ(engine.pack_payload(runs), wire);
  EXPECT_EQ(s.tags_generated, 2u);

  std::vector<hdsm::idx::UpdateRun> singles;
  for (std::uint64_t i = 0; i < kRuns; ++i) singles.push_back({0, 2 * i, 1});
  const std::vector<std::byte> single_wire = engine.pack_payload(singles);
  const auto single_blocks = dsm::decode_update_blocks(single_wire);
  ASSERT_EQ(single_blocks.size(), kRuns);
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(single_blocks[i].first_elem, 2 * i);
    EXPECT_EQ(single_blocks[i].tag, "(8,1)");
  }
  EXPECT_EQ(single_wire, dsm::encode_update_blocks(single_blocks));
}

// ---- multi-page collect and apply ------------------------------------------

TEST_P(CollectRuns, DenseMultiPageWriteIsOneRunPerRow) {
  // Every element of A rewritten (every page dirty) plus every third D:
  // the diff of each page must join across the page seams into one A run,
  // and the sparse D writes into one run of stride 3.
  dsm::GlobalSpace g(big_gthv(), plat::linux_ia32(), GetParam());
  dsm::ShareStats s;
  dsm::SyncEngine engine(g, {}, s);
  g.region().begin_tracking();
  auto a = g.view<std::int32_t>("A");
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    a.set(i, static_cast<std::int32_t>(i * 2654435761u) | 1);
  }
  auto d = g.view<double>("D");
  for (std::uint64_t i = 0; i < d.size(); i += 3) d.set(i, 0.5 * i + 1.0);
  const auto runs = engine.collect_runs();
  g.region().end_tracking();

  const auto row_a = static_cast<std::uint32_t>(g.table().row_of_field("A"));
  const auto row_d = static_cast<std::uint32_t>(g.table().row_of_field("D"));
  const std::vector<hdsm::idx::UpdateRun> expected = {
      {row_a, 0, a.size()}, {row_d, 0, (d.size() + 2) / 3, 3}};
  EXPECT_EQ(runs, expected);
  EXPECT_EQ(s.dirty_pages,
            (g.table().image_size() + hdsm::mem::Region::host_page_size() -
             1) / hdsm::mem::Region::host_page_size());
}

TEST_P(CollectRuns, ScatteredWritesAndADenseBand) {
  // Writes every 997th element across many pages, plus a dense band that
  // crosses page boundaries: the scattered elements before and after the
  // band are one run of stride 997 each, and the band one contiguous run.
  dsm::GlobalSpace g(big_gthv(), plat::linux_ia32(), GetParam());
  dsm::ShareStats s;
  dsm::SyncEngine engine(g, {}, s);
  g.region().begin_tracking();
  auto a = g.view<std::int32_t>("A");
  constexpr std::uint64_t kBandBegin = 40000;
  constexpr std::uint64_t kBandEnd = 48000;
  for (std::uint64_t i = 0; i < a.size(); i += 997) a.set(i, 7);
  for (std::uint64_t i = kBandBegin; i < kBandEnd; ++i) a.set(i, -1);
  const auto runs = engine.collect_runs();
  g.region().end_tracking();

  const auto row_a = static_cast<std::uint32_t>(g.table().row_of_field("A"));
  const std::uint64_t after_band = (kBandEnd + 996) / 997 * 997;
  const std::vector<hdsm::idx::UpdateRun> expected = {
      {row_a, 0, kBandBegin / 997 + 1, 997},
      {row_a, kBandBegin, kBandEnd - kBandBegin},
      {row_a, after_band, (a.size() - 1 - after_band) / 997 + 1, 997}};
  EXPECT_EQ(runs, expected);
}

TEST_P(CollectRuns, IA32DoublesStraddlingAPageJoinTheirStridedRun) {
  // ia32 aligns a double to 4 in a struct, so behind an int every 512th
  // double straddles a page edge (D[511] is bytes 4092..4100).  Each
  // half-sweep is one run of stride 2 whichever page a cell begins on,
  // and a straddling cell is counted once.
  dsm::GlobalSpace g(
      TypeDesc::struct_of(
          "G", {{"n", tags::t_int()},
                {"D", TypeDesc::array(tags::t_double(), 2048)}}),
      plat::linux_ia32(), GetParam());
  ASSERT_EQ(hdsm::mem::Region::host_page_size(), 4096u);
  dsm::ShareStats s;
  dsm::SyncEngine engine(g, {}, s);
  const auto row_d = static_cast<std::uint32_t>(g.table().row_of_field("D"));
  ASSERT_EQ(g.table().rows()[row_d].offset, 4u);
  auto d = g.view<double>("D");
  g.region().begin_tracking();
  for (std::uint64_t color = 0; color < 2; ++color) {
    for (std::uint64_t i = color; i < d.size(); i += 2) d.set(i, 1.0 + i);
    EXPECT_EQ(engine.collect_runs(),
              (std::vector<hdsm::idx::UpdateRun>{{row_d, color, 1024, 2}}))
        << "color " << color;
  }
  g.region().end_tracking();
}

TEST_P(CollectRuns, RandomScheduleMatchesABruteForceDiff) {
  // A seeded schedule of local writes, grants' applied updates and
  // collects over pages going hot and cold.  Each collect's runs must equal
  // one diff_runs of the whole image against a snapshot of it taken at the
  // previous collect with every applied update written in, and it must
  // count exactly the pages that differ from that snapshot.  On ia32 the
  // doubles behind the leading int straddle page edges.
  dsm::GlobalSpace g(
      TypeDesc::struct_of("G",
                          {{"n", tags::t_int()},
                           {"D", TypeDesc::array(tags::t_double(), 3000)},
                           {"A", TypeDesc::array(tags::t_int(), 4096)}}),
      plat::linux_ia32(), GetParam());
  dsm::ShareStats s;
  dsm::SyncEngine engine(g, {}, s);
  hdsm::mem::TrackedRegion& region = g.region();
  const std::size_t ps = hdsm::mem::Region::host_page_size();
  const std::uint64_t image = g.table().image_size();
  const std::size_t pages = (image + ps - 1) / ps;
  auto d = g.view<double>("D");
  auto a = g.view<std::int32_t>("A");
  const std::uint64_t a_offset =
      g.table().rows()[g.table().row_of_field("A")].offset;
  std::mt19937_64 rng(1009);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };

  region.begin_tracking();
  std::vector<std::byte> reference = image_snapshot(g);
  for (int round = 0; round < 300; ++round) {
    // Quiet rounds let pages cool; a busy one heats several again.
    const std::uint64_t ops = pick(4) == 0 ? pick(24) : pick(3);
    for (std::uint64_t k = 0; k < ops; ++k) {
      switch (pick(4)) {
        case 0: {
          // A run of doubles, every other one as in a red/black sweep.
          const std::uint64_t first = pick(d.size() - 40);
          const std::uint64_t step = 1 + pick(2);
          for (std::uint64_t i = first; i < first + 40; i += step) {
            d.set(i, static_cast<double>(pick(3)));  // often unchanged
          }
          break;
        }
        case 1:
          a.set(pick(a.size()), static_cast<std::int32_t>(pick(3)));
          break;
        case 2: {
          const std::uint64_t at = a_offset + 4 * pick(a.size() - 8);
          std::int32_t upd[8];
          for (std::int32_t& v : upd) v = static_cast<std::int32_t>(pick(5));
          region.apply_update(at, upd, sizeof(upd));
          std::memcpy(reference.data() + at, upd, sizeof(upd));
          break;
        }
        default: {
          const std::uint64_t at = a_offset + 4 * pick(a.size() - 16);
          std::int32_t upd[4];
          for (std::int32_t& v : upd) v = static_cast<std::int32_t>(pick(5));
          region.apply_strided(at, upd, 4, 4, 12);
          for (std::size_t e = 0; e < 4; ++e) {
            std::memcpy(reference.data() + at + 12 * e, &upd[e], 4);
          }
          break;
        }
      }
    }
    const std::byte* now = region.data();
    std::vector<hdsm::idx::UpdateRun> expected;
    hdsm::idx::diff_runs(g.table(), 0, now, reference.data(), image,
                         hdsm::idx::RunRules{}, expected);
    std::uint64_t changed = 0;
    for (std::size_t p = 0; p < pages; ++p) {
      const std::size_t len = std::min<std::size_t>(ps, image - p * ps);
      changed += std::memcmp(now + p * ps, reference.data() + p * ps, len) != 0;
    }
    const std::uint64_t dirty_before = s.dirty_pages;
    ASSERT_EQ(engine.collect_runs(), expected) << "round " << round;
    ASSERT_EQ(s.dirty_pages - dirty_before, changed) << "round " << round;
    reference = image_snapshot(g);
  }
  region.end_tracking();
}

// ---- element-walk property -------------------------------------------------

namespace {

/// A random GThV on which page-mode collects are checked: scalars,
/// pointers, scalar and pointer arrays and arrays of small structs (every
/// member followed by its padding row), then an int and a large array, so
/// the image spans several pages and, on ia32, 4-aligned doubles and
/// 12-byte long doubles straddle page edges.
tags::TypePtr random_gthv(std::mt19937_64& rng) {
  const std::vector<tags::TypePtr> scalars = {
      tags::t_char(),   tags::t_short(),    tags::t_int(),
      tags::t_long(),   tags::t_longlong(), tags::t_float(),
      tags::t_double(), tags::t_longdouble()};
  const auto scalar = [&] { return scalars[rng() % scalars.size()]; };
  std::vector<tags::Field> fields;
  const std::size_t nfields = 2 + rng() % 6;
  for (std::size_t f = 0; f < nfields; ++f) {
    tags::TypePtr ty;
    switch (rng() % 5) {
      case 0:
        ty = scalar();
        break;
      case 1:
        ty = TypeDesc::pointer();
        break;
      case 2:
        ty = TypeDesc::array(scalar(), 1 + rng() % 1500);
        break;
      case 3:
        ty = TypeDesc::array(TypeDesc::pointer(), 1 + rng() % 64);
        break;
      default:
        ty = TypeDesc::array(
            TypeDesc::struct_of("E", {{"c", tags::t_char()},
                                      {"x", scalar()},
                                      {"s", tags::t_short()}}),
            1 + rng() % 40);
        break;
    }
    fields.push_back({"f" + std::to_string(f), ty});
  }
  fields.push_back({"lead", tags::t_int()});
  fields.push_back({"big", TypeDesc::array(scalar(), 2000 + rng() % 4000)});
  return TypeDesc::struct_of("G", std::move(fields));
}

/// The oracle: mark every element whose bytes differ between the two
/// images, then, when coalescing, join them greedily by constant stride in
/// row and element order — a run takes its stride from its second element
/// and grows while the next marked element of its row lies exactly one
/// stride on.
std::vector<hdsm::idx::UpdateRun> oracle_runs(
    const hdsm::idx::IndexTable& t, const std::vector<std::byte>& before,
    const std::vector<std::byte>& after, bool coalesce) {
  std::vector<hdsm::idx::UpdateRun> out;
  for (std::uint32_t r = 0; r < t.rows().size(); ++r) {
    const hdsm::idx::IndexRow& row = t.rows()[r];
    if (row.is_padding()) continue;
    std::vector<std::uint64_t> marked;
    for (std::uint64_t e = 0; e < row.element_count(); ++e) {
      const std::uint64_t off = row.offset + e * row.size;
      if (std::memcmp(before.data() + off, after.data() + off, row.size) !=
          0) {
        marked.push_back(e);
      }
    }
    const std::size_t first = out.size();
    for (const std::uint64_t e : marked) {
      if (coalesce && out.size() > first) {
        hdsm::idx::UpdateRun& run = out.back();
        const std::uint64_t last =
            run.first_elem + (run.count - 1) * run.stride;
        if (run.count == 1) {
          run.stride = static_cast<std::uint32_t>(e - last);
          run.count = 2;
          continue;
        }
        if (e - last == run.stride) {
          ++run.count;
          continue;
        }
      }
      out.push_back({r, e, 1});
    }
  }
  return out;
}

/// Random writes: short bursts anywhere (padding included), a few long
/// ones, and about a quarter of the stored bytes equal to what they
/// overwrite, so written pages also hold unchanged words.
void random_writes(dsm::GlobalSpace& g, std::mt19937_64& rng) {
  std::byte* image = g.region().data();
  const std::uint64_t size = g.table().image_size();
  const std::size_t bursts = 1 + rng() % 60;
  for (std::size_t b = 0; b < bursts; ++b) {
    const std::uint64_t begin = rng() % size;
    const std::uint64_t len = rng() % 8 == 0 ? 1 + rng() % 600 : 1 + rng() % 24;
    const std::uint64_t end = std::min(size, begin + len);
    for (std::uint64_t i = begin; i < end; ++i) {
      image[i] = rng() % 4 == 0 ? image[i] : static_cast<std::byte>(rng());
    }
  }
}

/// Flip one byte of every `step`-th element of random rows (step 2 or 3),
/// from a random start.
void strided_writes(dsm::GlobalSpace& g, std::mt19937_64& rng) {
  std::byte* image = g.region().data();
  for (const hdsm::idx::IndexRow& row : g.table().rows()) {
    if (row.is_padding() || rng() % 2 == 0) continue;
    const std::uint64_t step = 2 + rng() % 2;
    for (std::uint64_t e = rng() % step; e < row.element_count(); e += step) {
      image[row.offset + e * row.size + rng() % row.size] ^= std::byte{0x41};
    }
  }
}

}  // namespace

TEST_P(CollectRuns, ElementWalkMatchesTheStridedOracle) {
  const std::vector<const plat::PlatformDesc*> platforms = {
      &plat::linux_ia32(), &plat::linux_x86_64(), &plat::solaris_sparc32(),
      &plat::solaris_sparc64()};
  std::mt19937_64 rng(2606);
  for (int table = 0; table < 24; ++table) {
    const tags::TypePtr ty = random_gthv(rng);
    const plat::PlatformDesc& platform = *platforms[table % platforms.size()];
    for (const bool coalesce : {true, false}) {
      dsm::GlobalSpace g(ty, platform, GetParam());
      const std::uint64_t size = g.table().image_size();
      for (std::uint64_t i = 0; i < size; ++i) {
        g.region().data()[i] = static_cast<std::byte>(rng());
      }
      dsm::SyncOptions opts;
      opts.coalesce_runs = coalesce;
      dsm::ShareStats s;
      dsm::SyncEngine engine(g, opts, s);
      g.region().begin_tracking();
      // Several intervals, so later collects diff against refreshed twins;
      // odd rounds also write every other or every third element of random
      // rows, the sweeps strided runs are for.
      for (int round = 0; round < 4; ++round) {
        const std::vector<std::byte> before = image_snapshot(g);
        random_writes(g, rng);
        if (round % 2 == 1) strided_writes(g, rng);
        const std::vector<std::byte> after = image_snapshot(g);
        const auto runs = engine.collect_runs();
        ASSERT_EQ(runs, oracle_runs(g.table(), before, after, coalesce))
            << "table " << table << " on " << platform.name
            << " coalesce=" << coalesce << " round=" << round;
      }
      g.region().end_tracking();
    }
  }
}

TEST(PayloadRoundTrip, ApplyReturnsThePackedRunsExactly) {
  // A replication standby rebuilds a master event's runs as apply_payload's
  // result on the packed bytes, so pack must emit one block per run, in
  // order, and apply must return one run per block: one-element,
  // contiguous and strided runs alike, raw or compressed.
  std::mt19937_64 rng(3107);
  std::size_t singles = 0, contiguous = 0, strided = 0;
  std::uint64_t coded_blocks = 0;
  for (int table = 0; table < 12; ++table) {
    const tags::TypePtr ty = random_gthv(rng);
    const plat::PlatformDesc& platform =
        table % 2 == 0 ? plat::linux_x86_64() : plat::solaris_sparc32();
    dsm::GlobalSpace sender(ty, platform);
    dsm::GlobalSpace receiver(ty, platform);
    const std::vector<std::byte> before = image_snapshot(sender);
    random_writes(sender, rng);
    strided_writes(sender, rng);
    const std::vector<hdsm::idx::UpdateRun> runs = oracle_runs(
        sender.table(), before, image_snapshot(sender), /*coalesce=*/true);
    for (const hdsm::idx::UpdateRun& r : runs) {
      (r.count == 1 ? singles : r.stride == 1 ? contiguous : strided) += 1;
    }
    for (const dsm::CodecMode codec :
         {dsm::CodecMode::Off, dsm::CodecMode::Forced}) {
      dsm::SyncOptions opts;
      opts.codec = codec;
      dsm::ShareStats ss, rs;
      const std::vector<std::byte> payload =
          dsm::SyncEngine(sender, opts, ss).pack_payload(runs);
      coded_blocks += ss.codec_blocks;
      EXPECT_EQ(dsm::SyncEngine(receiver, opts, rs)
                    .apply_payload(payload, msg::PlatformSummary::of(platform)),
                runs)
          << "table " << table << " codec " << static_cast<int>(codec);
    }
  }
  EXPECT_GT(singles, 0u);
  EXPECT_GT(contiguous, 0u);
  EXPECT_GT(strided, 0u);
  EXPECT_GT(coded_blocks, 0u);
}

TEST_P(HeterogeneousApply, BigEndianPayloadLandsInEveryElement) {
  // Big-endian sender, little-endian receiver: the bulk-swap route runs on
  // every block of a 1 MiB payload, and every A and D element must read
  // back as the sender wrote it.
  dsm::GlobalSpace sender(big_gthv(), plat::solaris_sparc32(), GetParam());
  dsm::ShareStats ss;
  dsm::SyncEngine se(sender, {}, ss);
  sender.region().begin_tracking();
  auto a = sender.view<std::int32_t>("A");
  for (std::uint64_t i = 0; i < a.size(); i += 2) {
    a.set(i, static_cast<std::int32_t>(i ^ 0x55aa));
  }
  auto d = sender.view<double>("D");
  for (std::uint64_t i = 0; i < d.size(); ++i) d.set(i, i * 1.25 - 3.0);
  const std::vector<hdsm::idx::UpdateRun> sent = se.collect_runs();
  const std::vector<std::byte> payload = se.pack_payload(sent);
  sender.region().end_tracking();

  dsm::GlobalSpace receiver(big_gthv(), plat::linux_ia32(), GetParam());
  dsm::ShareStats rs;
  dsm::SyncEngine re(receiver, {}, rs);
  const auto applied = re.apply_payload(
      payload, msg::PlatformSummary::of(plat::solaris_sparc32()));
  EXPECT_EQ(applied, sent);
  EXPECT_EQ(rs.updates_received, sent.size());

  auto ra = receiver.view<std::int32_t>("A");
  for (std::uint64_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra.get(i), a.get(i)) << "A[" << i << "]";
  }
  auto rd = receiver.view<double>("D");
  for (std::uint64_t i = 0; i < rd.size(); ++i) {
    ASSERT_EQ(rd.get(i), d.get(i)) << "D[" << i << "]";
  }
}

TEST(OneLane, ConvThreadsAboveOneThrows) {
  // The data plane has one lane per node.  The old option values that
  // meant one lane (conv_threads 0/1, pin -1/1) still construct; values
  // that asked for a worker pool are refused, not silently ignored.
  dsm::GlobalSpace g(small_gthv(), plat::linux_ia32());
  dsm::ShareStats s;
  for (const unsigned lanes : {0u, 1u}) {
    dsm::SyncOptions o;
    o.conv_threads = lanes;
    EXPECT_NO_THROW((dsm::SyncEngine{g, o, s})) << "conv_threads=" << lanes;
  }
  for (const int pin : {-1, 1}) {
    dsm::SyncOptions o;
    o.codec = dsm::CodecMode::Adaptive;
    o.tuner.pin_conv_threads = pin;
    EXPECT_NO_THROW((dsm::SyncEngine{g, o, s})) << "pin_conv_threads=" << pin;
  }
  dsm::SyncOptions four;
  four.conv_threads = 4;
  EXPECT_THROW((dsm::SyncEngine{g, four, s}), std::invalid_argument);
  dsm::SyncOptions pinned;
  pinned.codec = dsm::CodecMode::Adaptive;
  pinned.tuner.pin_conv_threads = 2;
  EXPECT_THROW((dsm::SyncEngine{g, pinned, s}), std::invalid_argument);
}

// ---- the codec tuner -------------------------------------------------------

TEST(CodecTuner, AdaptiveFlagAloneBuildsNoTuner) {
  // SyncOptions::adaptive changes nothing: without CodecMode::Adaptive no
  // tuner is built, so a collect, a pack and an apply sample no episode.
  dsm::SyncOptions opts;
  opts.adaptive = true;
  dsm::GlobalSpace sender(small_gthv(), plat::linux_ia32());
  dsm::ShareStats ss;
  dsm::SyncEngine se(sender, opts, ss);
  EXPECT_EQ(se.tuner(), nullptr);
  sender.region().begin_tracking();
  sender.view<std::int32_t>("A").set(3, 7);
  const std::vector<std::byte> payload = se.pack_payload(se.collect_runs());
  sender.region().end_tracking();

  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine re(receiver, opts, rs);
  EXPECT_EQ(re.tuner(), nullptr);
  re.apply_payload(payload, msg::PlatformSummary::of(plat::linux_ia32()));
  EXPECT_EQ(receiver.view<std::int32_t>("A").get(3), 7);
  EXPECT_EQ(ss.updates_sent, 1u);
  EXPECT_EQ(ss.adapt_episodes, 0u);
  EXPECT_EQ(rs.adapt_episodes, 0u);
}

TEST_P(CollectRuns, Stride2CollectUnderALiveCodecTunerIsOneStridedRun) {
  // The tuner's only knob is the codec's, so no pack signal can make a
  // collect ship the unchanged cells between the written ones: each
  // half-sweep is one run of stride 2, with every written cell and no
  // other.  Compressed packs of those runs gather the cells first.
  dsm::SyncOptions opts;
  opts.adaptive = true;
  opts.codec = dsm::CodecMode::Adaptive;
  opts.tuner.warmup = 1;
  opts.tuner.dwell = 1;
  dsm::GlobalSpace g(big_gthv(), plat::linux_ia32(), GetParam());
  dsm::ShareStats s;
  dsm::SyncEngine engine(g, opts, s);
  ASSERT_NE(engine.tuner(), nullptr);
  auto d = g.view<double>("D");
  g.region().begin_tracking();
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t i = round % 2; i < d.size(); i += 2) {
      d.set(i, static_cast<double>(round * d.size() + i + 1));
    }
    const std::vector<hdsm::idx::UpdateRun> runs = engine.collect_runs();
    const auto row_d = static_cast<std::uint32_t>(g.table().row_of_field("D"));
    ASSERT_EQ(runs, (std::vector<hdsm::idx::UpdateRun>{
                        {row_d, round % 2, d.size() / 2, 2}}))
        << "round " << round;
    engine.pack_payload(runs);
  }
  g.region().end_tracking();
  EXPECT_EQ(s.adapt_episodes, 32u);  // one collect and one pack per round
}

// ---- conversion-plan cache -------------------------------------------------

TEST(PlanCache, RepeatedRowsHitAfterFirstParse) {
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine engine(receiver, {}, rs);
  const auto summary = msg::PlatformSummary::of(plat::solaris_sparc32());

  // 16 disjoint single-element blocks of the same row: identical tags.
  std::vector<dsm::UpdateBlock> blocks;
  for (int i = 0; i < 16; ++i) {
    dsm::UpdateBlock b;
    b.row = 2;
    b.first_elem = static_cast<std::uint64_t>(i * 2);
    b.tag = "(4,1)";
    b.data.assign(4, std::byte{static_cast<unsigned char>(i)});
    blocks.push_back(std::move(b));
  }
  const auto payload = dsm::encode_update_blocks(blocks);

  engine.apply_payload(payload, summary);
  EXPECT_EQ(rs.plan_cache_misses, 1u);
  EXPECT_EQ(rs.plan_cache_hits, 15u);

  // Second application of the same payload: pure hits.
  engine.apply_payload(payload, summary);
  EXPECT_EQ(rs.plan_cache_misses, 1u);
  EXPECT_EQ(rs.plan_cache_hits, 31u);

  // A different count re-parses (the tag text changed) once.
  dsm::UpdateBlock wide;
  wide.row = 2;
  wide.first_elem = 40;
  wide.tag = "(4,3)";
  wide.data.assign(12, std::byte{1});
  engine.apply_payload(dsm::encode_update_blocks({wide}), summary);
  EXPECT_EQ(rs.plan_cache_misses, 2u);
}

TEST(PlanCache, DistinctSendersGetDistinctCaches) {
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine engine(receiver, {}, rs);

  dsm::UpdateBlock b;
  b.row = 2;
  b.first_elem = 0;
  b.tag = "(4,1)";
  b.data.assign(4, std::byte{3});
  const auto payload = dsm::encode_update_blocks({b});

  engine.apply_payload(payload, msg::PlatformSummary::of(plat::linux_ia32()));
  engine.apply_payload(payload,
                       msg::PlatformSummary::of(plat::solaris_sparc32()));
  // Each sender platform planned its own route: two misses, no hits.
  EXPECT_EQ(rs.plan_cache_misses, 2u);
  EXPECT_EQ(rs.plan_cache_hits, 0u);
  // Same senders again: hits.
  engine.apply_payload(payload, msg::PlatformSummary::of(plat::linux_ia32()));
  EXPECT_EQ(rs.plan_cache_hits, 1u);
}

TEST(PlanCache, DisabledCacheCountsNothingAndStillApplies) {
  dsm::SyncOptions opts;
  opts.plan_cache = false;
  dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine engine(receiver, opts, rs);

  dsm::UpdateBlock b;
  b.row = 2;
  b.first_elem = 0;
  b.tag = "(4,2)";
  b.data.assign(8, std::byte{9});
  const auto summary = msg::PlatformSummary::of(plat::solaris_sparc32());
  engine.apply_payload(dsm::encode_update_blocks({b}), summary);
  engine.apply_payload(dsm::encode_update_blocks({b}), summary);
  EXPECT_EQ(rs.plan_cache_hits, 0u);
  EXPECT_EQ(rs.plan_cache_misses, 0u);
  EXPECT_EQ(receiver.view<std::int32_t>("A").get(0), 0x09090909);
}

TEST(PlanCache, RejectedBlockDoesNotPoisonTheCache) {
  // Two receivers: the stock engine, and an adaptive one warmed on a
  // stream of good same-platform payloads, so it holds a cached Memcpy
  // plan for the row and a settled tuner.  A cached plan must never vouch
  // for a block whose own tag is wrong.
  dsm::SyncOptions adaptive;
  adaptive.codec = dsm::CodecMode::Adaptive;
  adaptive.tuner.warmup = 1;
  const std::pair<dsm::SyncOptions, int> inputs[] = {{{}, 0}, {adaptive, 12}};
  for (const auto& [opts, warm_payloads] : inputs) {
    SCOPED_TRACE(opts.codec == dsm::CodecMode::Adaptive ? "adaptive"
                                                        : "stock");
    dsm::GlobalSpace receiver(small_gthv(), plat::linux_ia32());
    dsm::ShareStats rs;
    dsm::SyncEngine engine(receiver, opts, rs);
    const auto summary = msg::PlatformSummary::of(plat::linux_ia32());

    dsm::UpdateBlock warm;
    warm.row = 2;  // "A"
    warm.first_elem = 0;
    warm.tag = "(4,4)";
    warm.data.assign(16, std::byte{3});
    for (int i = 0; i < warm_payloads; ++i) {
      engine.apply_payload(dsm::encode_update_blocks({warm}), summary);
    }

    // Each tag fails validation: a pointer tag for the int row (after
    // parsing), an unparsable tag, and a count the 16 data bytes do not
    // carry.  The cache entry must not be left claiming it is valid.
    for (const char* tag : {"(4,-1)", "garbage", "(4,9)"}) {
      dsm::UpdateBlock bad = warm;
      bad.tag = tag;
      bad.data.assign(16, std::byte{1});
      const std::vector<std::byte> before = image_snapshot(receiver);
      EXPECT_THROW(
          engine.apply_payload(dsm::encode_update_blocks({bad}), summary),
          std::exception)
          << tag;
      // An identical tag must re-validate (and fail again), not hit a
      // cached plan and slip through.
      EXPECT_THROW(
          engine.apply_payload(dsm::encode_update_blocks({bad}), summary),
          std::exception)
          << tag;
      EXPECT_EQ(image_snapshot(receiver), before) << tag;
    }

    dsm::UpdateBlock good;
    good.row = 2;
    good.first_elem = 0;
    good.tag = "(4,1)";
    good.data.assign(4, std::byte{2});
    engine.apply_payload(dsm::encode_update_blocks({good}), summary);
    EXPECT_EQ(receiver.view<std::int32_t>("A").get(0), 0x02020202);
  }
}

// ---- merge_runs edge cases -------------------------------------------------

TEST(MergeRunsEdges, AdjacentButNotOverlappingRunsUnify) {
  // collect_runs under coalesce_runs=false can legitimately produce
  // touching runs; the pending-set merge must still unify them.
  std::vector<hdsm::idx::UpdateRun> into = {{2, 0, 3}};
  dsm::merge_runs(into, {{2, 3, 4}});
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0].first_elem, 0u);
  EXPECT_EQ(into[0].count, 7u);

  // Same row, gap of one element: stays split.
  dsm::merge_runs(into, {{2, 8, 2}});
  ASSERT_EQ(into.size(), 2u);
  EXPECT_EQ(into[1].first_elem, 8u);
}

TEST(MergeRunsEdges, DuplicateIdenticalRunsCollapse) {
  std::vector<hdsm::idx::UpdateRun> into = {{4, 10, 5}};
  dsm::merge_runs(into, {{4, 10, 5}, {4, 10, 5}});
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0].row, 4u);
  EXPECT_EQ(into[0].first_elem, 10u);
  EXPECT_EQ(into[0].count, 5u);
}

TEST(MergeRunsEdges, ContainedAndSpanningRuns) {
  // A run already covering the whole row absorbs anything inside it, and
  // a partial run extends to the row-spanning union.
  std::vector<hdsm::idx::UpdateRun> into = {{2, 0, 64}};
  dsm::merge_runs(into, {{2, 10, 5}});
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0].count, 64u);

  std::vector<hdsm::idx::UpdateRun> grow = {{2, 0, 40}};
  dsm::merge_runs(grow, {{2, 30, 34}});
  ASSERT_EQ(grow.size(), 1u);
  EXPECT_EQ(grow[0].first_elem, 0u);
  EXPECT_EQ(grow[0].count, 64u);

  // Merging never crosses rows even when element indexes touch.
  std::vector<hdsm::idx::UpdateRun> rows = {{2, 60, 4}};
  dsm::merge_runs(rows, {{3, 0, 2}});
  ASSERT_EQ(rows.size(), 2u);
}

TEST(MergeRunsEdges, LinearMergeMatchesASortOfTheUnion) {
  // The sort-based merge the linear one replaced: append, sort the whole
  // set, unify neighbours.
  const auto sort_merge = [](std::vector<hdsm::idx::UpdateRun> into,
                             const std::vector<hdsm::idx::UpdateRun>& add) {
    if (add.empty()) return into;
    into.insert(into.end(), add.begin(), add.end());
    std::sort(into.begin(), into.end(), [](const auto& a, const auto& b) {
      return a.row != b.row ? a.row < b.row : a.first_elem < b.first_elem;
    });
    std::size_t w = 0;
    for (std::size_t r = 1; r < into.size(); ++r) {
      hdsm::idx::UpdateRun& prev = into[w];
      const hdsm::idx::UpdateRun& cur = into[r];
      if (cur.row == prev.row &&
          cur.first_elem <= prev.first_elem + prev.count) {
        prev.count = std::max(prev.first_elem + prev.count,
                              cur.first_elem + cur.count) -
                     prev.first_elem;
      } else {
        into[++w] = cur;
      }
    }
    into.resize(w + 1);
    return into;
  };

  std::mt19937_64 rng(1234);
  const auto draw = [&rng](std::size_t n) {
    std::vector<hdsm::idx::UpdateRun> runs(n);
    for (hdsm::idx::UpdateRun& r : runs) {
      r.row = static_cast<std::uint32_t>(rng() % 4);
      r.first_elem = rng() % 64;
      r.count = 1 + rng() % 6;  // overlapping and adjacent runs are common
    }
    return runs;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    // `into` is always a merged set; `add` is raw — unsorted half the
    // time, sorted (as a diff's runs are) the other half.
    const std::vector<hdsm::idx::UpdateRun> into =
        sort_merge({}, draw(rng() % 12));
    std::vector<hdsm::idx::UpdateRun> add = draw(rng() % 12);
    if (trial % 2 == 0) add = sort_merge({}, add);
    std::vector<hdsm::idx::UpdateRun> got = into;
    dsm::merge_runs(got, add);
    ASSERT_EQ(got, sort_merge(into, add)) << "trial " << trial;
  }

  // Strided inputs, against a set-of-elements oracle: the merge covers
  // exactly the union of both sets' elements, and stays a pending set —
  // sorted, no two runs of a row with overlapping spans, one-element runs
  // of stride 1.
  using Element = std::pair<std::uint32_t, std::uint64_t>;
  const auto elements = [](const std::vector<hdsm::idx::UpdateRun>& runs) {
    std::set<Element> out;
    for (const hdsm::idx::UpdateRun& r : runs) {
      for (std::uint64_t k = 0; k < r.count; ++k) {
        out.insert({r.row, r.first_elem + k * r.stride});
      }
    }
    return out;
  };
  const auto well_formed = [](const std::vector<hdsm::idx::UpdateRun>& runs) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const hdsm::idx::UpdateRun& r = runs[i];
      if (r.count == 0 || r.stride == 0 || (r.count == 1 && r.stride != 1)) {
        return false;
      }
      if (i == 0) continue;
      const hdsm::idx::UpdateRun& p = runs[i - 1];
      if (p.row > r.row || (p.row == r.row && p.last_elem() >= r.first_elem)) {
        return false;
      }
    }
    return true;
  };
  const auto draw_strided = [&rng](std::size_t n) {
    std::vector<hdsm::idx::UpdateRun> runs(n);
    for (hdsm::idx::UpdateRun& r : runs) {
      r.row = static_cast<std::uint32_t>(rng() % 3);
      r.first_elem = rng() % 48;
      r.count = 1 + rng() % 8;
      r.stride = r.count == 1 ? 1 : static_cast<std::uint32_t>(1 + rng() % 4);
    }
    return runs;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<hdsm::idx::UpdateRun> into;
    dsm::merge_runs(into, draw_strided(rng() % 10));
    ASSERT_TRUE(well_formed(into)) << "trial " << trial;
    const std::vector<hdsm::idx::UpdateRun> add = draw_strided(rng() % 10);
    std::set<Element> want = elements(into);
    const std::set<Element> added = elements(add);
    want.insert(added.begin(), added.end());
    std::vector<hdsm::idx::UpdateRun> got = into;
    dsm::merge_runs(got, add);
    ASSERT_EQ(elements(got), want) << "trial " << trial;
    ASSERT_TRUE(well_formed(got)) << "trial " << trial;
  }
}

TEST(MergeRunsEdges, RedAndBlackRunsUnionToOneContiguousRun) {
  // Interleaved red/black half-sweeps of a row (and of parts of one)
  // union to stride 1.
  std::vector<hdsm::idx::UpdateRun> into = {{2, 0, 32, 2}};
  dsm::merge_runs(into, {{2, 1, 32, 2}});
  EXPECT_EQ(into, (std::vector<hdsm::idx::UpdateRun>{{2, 0, 64}}));

  std::vector<hdsm::idx::UpdateRun> parts = {{2, 0, 8, 2}, {2, 40, 8, 2}};
  dsm::merge_runs(parts, {{2, 1, 8, 2}, {2, 41, 4, 2}});
  EXPECT_EQ(parts, (std::vector<hdsm::idx::UpdateRun>{
                       {2, 0, 16}, {2, 40, 9}, {2, 50, 3, 2}}));

  // A strided run inside a contiguous one adds nothing; one in another
  // row's span never mixes with it.
  std::vector<hdsm::idx::UpdateRun> image = {{2, 0, 1000}, {3, 0, 4}};
  dsm::merge_runs(image, {{2, 10, 100, 3}, {3, 5, 3, 2}});
  EXPECT_EQ(image, (std::vector<hdsm::idx::UpdateRun>{
                       {2, 0, 1000}, {3, 0, 4}, {3, 5, 3, 2}}));
}

// ---- strided releases and grants ----------------------------------------

namespace {

/// The red/black SOR shape: one double written at every other index.
constexpr std::uint64_t kStride2Runs = 512;

tags::TypePtr stride2_gthv() {
  return TypeDesc::struct_of(
      "G", {{"D", TypeDesc::array(tags::t_double(), 2 * kStride2Runs)}});
}

/// A sparc32 home core with rank 1, an ia32 peer, attached and past its
/// Hello, and the master's half-sweep of kStride2Runs cells as the one
/// strided run its collect makes of them.
struct ReleaseHarness {
  dsm::GlobalSpace home{stride2_gthv(), plat::solaris_sparc32()};
  dsm::GlobalSpace peer{stride2_gthv(), plat::linux_ia32()};
  dsm::ShareStats stats;
  /// The home's data plane, handed to the bare core as its codec.
  dsm::SyncEngine engine{home, {}, stats};
  dsm::CoherenceCore core{[this] {
                            dsm::CoherenceConfig cfg;
                            cfg.self = msg::PlatformSummary::of(
                                home.platform());
                            cfg.image_tag_text = home.image_tag_text();
                            cfg.layout_runs = home.table().layout().runs;
                            return cfg;
                          }(),
                          engine, stats};
  std::vector<hdsm::idx::UpdateRun> runs;

  ReleaseHarness() {
    auto d = home.view<double>("D");
    const auto row =
        static_cast<std::uint32_t>(home.table().row_of_field("D"));
    for (std::uint64_t i = 0; i < 2 * kStride2Runs; ++i) {
      d.set(i, 0.5 + static_cast<double>(i));  // gaps hold data too
    }
    runs.push_back({row, 0, kStride2Runs, 2});
    core.step(dsm::CoherenceEvent::peer_attached(1, {}));
    msg::Message hello = request(msg::MsgType::Hello, 0, 1);
    hello.tag = peer.image_tag_text();
    core.step(dsm::CoherenceEvent::msg_received(1, hello));
  }

  msg::Message request(msg::MsgType type, std::uint32_t seq,
                       std::uint32_t sync_id = 0) const {
    msg::Message m;
    m.type = type;
    m.rank = 1;
    m.seq = seq;
    m.sync_id = sync_id;
    m.sender = msg::PlatformSummary::of(peer.platform());
    if (type != msg::MsgType::Hello && type != msg::MsgType::LockRequest) {
      m.payload = dsm::encode_update_blocks({});
    }
    return m;
  }

  /// The payload of the one message `actions` sends to rank 1.
  static std::vector<std::byte> sent(
      const std::vector<dsm::CoherenceAction>& actions, msg::MsgType type) {
    for (const dsm::CoherenceAction& a : actions) {
      if (a.kind == dsm::CoherenceAction::Kind::Send && a.rank == 1) {
        EXPECT_EQ(a.message.type, type);
        return a.message.payload;
      }
    }
    ADD_FAILURE() << "nothing sent to rank 1";
    return {};
  }

  /// `packed` packed by a second engine on the image.
  std::vector<std::byte> pack(
      const std::vector<hdsm::idx::UpdateRun>& packed) {
    dsm::ShareStats s;
    return dsm::SyncEngine(home, {}, s).pack_payload(packed);
  }
};

}  // namespace

TEST(StridedRelease, Stride2ReleaseIsOneStridedBlock) {
  ReleaseHarness h;
  h.core.step(dsm::CoherenceEvent::master_barrier(0, h.runs));
  const std::vector<std::byte> release = ReleaseHarness::sent(
      h.core.step(dsm::CoherenceEvent::msg_received(
          1, h.request(msg::MsgType::BarrierEnter, 1))),
      msg::MsgType::BarrierRelease);

  const auto blocks = dsm::decode_update_block_views(release);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].first_elem, 0u);
  EXPECT_EQ(blocks[0].tag,
            "((8,1)(8,0)," + std::to_string(kStride2Runs) + ")");
  EXPECT_EQ(blocks[0].data_len, 8 * kStride2Runs);
  // Under half of the same cells as one-element runs: 2 x (24 B header +
  // "(8,1)" + 8 B) per cell pair against 16 B.
  std::vector<hdsm::idx::UpdateRun> singles;
  for (std::uint64_t i = 0; i < kStride2Runs; ++i) {
    singles.push_back({h.runs[0].row, 2 * i, 1});
  }
  EXPECT_LT(release.size(), h.pack(singles).size() / 2);

  // The peer gets the written cells and keeps its own values between them.
  dsm::ShareStats ps;
  dsm::SyncEngine(h.peer, {}, ps)
      .apply_payload(release, msg::PlatformSummary::of(h.home.platform()));
  auto got = h.peer.view<double>("D");
  auto want = h.home.view<double>("D");
  for (std::uint64_t i = 0; i < 2 * kStride2Runs; ++i) {
    ASSERT_EQ(got.get(i), i % 2 == 0 ? want.get(i) : 0.0) << i;
  }
}

TEST(StridedRelease, LockGrantShipsThePendingSetAsItStands) {
  // A grant packs the pending set exactly as a release does: the strided
  // run, with no element between its cells.
  ReleaseHarness h;
  h.core.step(dsm::CoherenceEvent::master_lock(0));
  h.core.step(dsm::CoherenceEvent::master_unlock(0, h.runs));
  const std::vector<std::byte> grant = ReleaseHarness::sent(
      h.core.step(dsm::CoherenceEvent::msg_received(
          1, h.request(msg::MsgType::LockRequest, 1))),
      msg::MsgType::LockGrant);
  EXPECT_EQ(grant, h.pack(h.runs));
  EXPECT_EQ(dsm::decode_update_block_views(grant).size(), 1u);
}

TEST(StridedRelease, GranteesUnsentWriteInAPaddingSlotSurvivesTheGrant) {
  // The master writes every even D cell under mutex 0.  Rank 1, holding
  // mutex 1, has written D[1] and not released it yet.  When it then takes
  // mutex 0, the grant carries the master's cells as one strided run, and
  // D[1] sits in one of its padding slots: the cells land around it.
  const auto gthv = TypeDesc::struct_of(
      "G", {{"D", TypeDesc::array(tags::t_double(), 64)}});
  dsm::ShardedCluster cluster(gthv, plat::solaris_sparc32(),
                              {&plat::linux_ia32()});
  double own = 0, even = 0, home_sees = 0;
  cluster.run(
      [&](dsm::ShardedHome& home) {
        home.lock(0);
        home.barrier(0);  // rank 1 asks for mutex 0 only after this
        auto d = home.space().view<double>("D");
        for (std::uint64_t i = 0; i < d.size(); i += 2) d.set(i, 1.5 + i);
        home.unlock(0);
        home.barrier(0);
        home_sees = d.get(1);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        remote.barrier(0);
        remote.lock(1);
        auto d = remote.space().view<double>("D");
        d.set(1, -7.25);
        remote.lock(0);
        own = d.get(1);
        even = d.get(62);
        remote.unlock(0);
        remote.unlock(1);
        remote.barrier(0);
        remote.join();
      });
  EXPECT_EQ(own, -7.25);
  EXPECT_EQ(even, 63.5);
  EXPECT_EQ(home_sees, -7.25);  // and rank 1's unlock still shipped it
}

TEST(StridedRelease, IA32LongDoubleInAGapKeepsItsExactBytes) {
  // x87 extended 1 + 2^-63: its lowest mantissa bit is lost on the way
  // through double to the sparc32 home's binary128, so shipping this
  // element back would change it.  Rank 2 writes both neighbours, so rank
  // 1's release carries them as one strided run, converted elementwise,
  // whose padding slot is rank 1's element.
  const auto gthv = TypeDesc::struct_of(
      "G", {{"L", TypeDesc::array(tags::t_longdouble(), 3)}});
  const std::array<unsigned char, 12> x87 = {0x01, 0, 0, 0, 0, 0, 0, 0x80,
                                             0xff, 0x3f, 0, 0};
  dsm::ShardedCluster cluster(gthv, plat::solaris_sparc32(),
                              {&plat::linux_ia32(), &plat::linux_ia32()});
  std::array<unsigned char, 12> after{};
  long double neighbour = 0;
  cluster.run(
      [](dsm::ShardedHome& home) {
        home.barrier(0);  // drains the attach-time full-image pending set
        home.barrier(0);
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        remote.barrier(0);
        dsm::GlobalSpace& g = remote.space();
        std::byte* l = g.region().data() + g.table().rows().at(
                                               g.table().row_of_field("L"))
                                               .offset;
        if (remote.rank() == 1) {
          std::memcpy(l + 12, x87.data(), x87.size());
        } else {
          g.view<long double>("L").set(0, 2.0L);
          g.view<long double>("L").set(2, 3.0L);
        }
        remote.barrier(0);
        if (remote.rank() == 1) {
          std::memcpy(after.data(), l + 12, after.size());
          neighbour = g.view<long double>("L").get(2);
        }
        remote.join();
      });
  EXPECT_EQ(after, x87);
  EXPECT_EQ(neighbour, 3.0L);  // the release did reach rank 1
  // Two one-block releases of the full image, then one block each: rank
  // 2's two elements as one strided run, and rank 1's one element.
  EXPECT_EQ(cluster.home().stats().updates_sent, 4u);
}

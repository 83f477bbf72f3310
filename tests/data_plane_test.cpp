// Tests for the two-phase (validate-then-apply) data plane: all-or-nothing
// payload application that leaves write tracking armed, zero-copy
// single-buffer packing, the run lists of multi-page collects (and the
// element walk against a brute-force oracle under every option), a multi-page
// heterogeneous apply (these page-mode round trips on both write-trap
// backends), the one-lane option check, the per-(sender, row)
// conversion-plan cache, the pending-set merge, and the barrier-release
// gap fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <random>
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
#include "memory/diff.hpp"
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
  // The red/black SOR shape: every other double dirty, so coalescing cannot
  // merge anything and each element ships as its own (8,1) run.  Thousands
  // of tags share the engine's render buffer; a second pack of the same
  // runs must reuse it and come out byte-identical.
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
  ASSERT_EQ(runs.size(), kRuns);

  const std::vector<std::byte> wire = engine.pack_payload(runs);
  const auto blocks = dsm::decode_update_blocks(wire);
  ASSERT_EQ(blocks.size(), kRuns);
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(blocks[i].first_elem, 2 * i);
    EXPECT_EQ(blocks[i].tag, "(8,1)");
  }
  EXPECT_EQ(wire, dsm::encode_update_blocks(blocks));
  EXPECT_EQ(engine.pack_payload(runs), wire);
  EXPECT_EQ(s.tags_generated, 2 * kRuns);
}

// ---- multi-page collect and apply ------------------------------------------

TEST_P(CollectRuns, DenseMultiPageWriteIsOneRunPerRow) {
  // Every element of A rewritten (every page dirty) plus every third D:
  // the diff of each page must join across the page seams into one A run,
  // and the sparse D writes stay one run each.
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
  std::vector<hdsm::idx::UpdateRun> expected = {{row_a, 0, a.size()}};
  for (std::uint64_t i = 0; i < d.size(); i += 3) {
    expected.push_back({row_d, i, 1});
  }
  EXPECT_EQ(runs, expected);
  EXPECT_EQ(s.dirty_pages,
            (g.table().image_size() + hdsm::mem::Region::host_page_size() -
             1) / hdsm::mem::Region::host_page_size());
}

TEST_P(CollectRuns, ScatteredWritesAndADenseBand) {
  // Scattered single-element writes across many pages, plus a dense band
  // that crosses page boundaries: one run per scattered element outside
  // the band, and the band as one run.
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
  std::vector<hdsm::idx::UpdateRun> expected;
  bool band_added = false;
  for (std::uint64_t i = 0; i < a.size(); i += 997) {
    if (i >= kBandBegin && i < kBandEnd) continue;
    if (i > kBandBegin && !band_added) {
      expected.push_back({row_a, kBandBegin, kBandEnd - kBandBegin});
      band_added = true;
    }
    expected.push_back({row_a, i, 1});
  }
  EXPECT_EQ(runs, expected);
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

/// The oracle: every element whose bytes differ between the two images,
/// joined under `rules` — consecutive elements of a row when coalescing,
/// and across at most merge_slack bytes of unchanged elements of the row.
std::vector<hdsm::idx::UpdateRun> brute_force_runs(
    const hdsm::idx::IndexTable& t, const std::vector<std::byte>& before,
    const std::vector<std::byte>& after, const hdsm::idx::RunRules& rules) {
  std::vector<hdsm::idx::UpdateRun> out;
  for (std::uint32_t r = 0; r < t.rows().size(); ++r) {
    const hdsm::idx::IndexRow& row = t.rows()[r];
    if (row.is_padding()) continue;
    for (std::uint64_t e = 0; e < row.element_count(); ++e) {
      const std::uint64_t off = row.offset + e * row.size;
      if (std::memcmp(before.data() + off, after.data() + off, row.size) ==
          0) {
        continue;
      }
      if (rules.coalesce && !out.empty() && out.back().row == r &&
          (e - out.back().first_elem - out.back().count) * row.size <=
              rules.merge_slack) {
        out.back().count = e + 1 - out.back().first_elem;
      } else {
        out.push_back({r, e, 1});
      }
    }
  }
  return out;
}

/// The byte-range mapping the element walk replaced, kept here as the
/// reference for the default options: each differing byte range, cut at
/// row edges, becomes the run of elements it touches, and touching or
/// overlapping runs of a row coalesce.
std::vector<hdsm::idx::UpdateRun> ranges_to_runs(
    const hdsm::idx::IndexTable& t,
    const std::vector<hdsm::mem::ByteRange>& ranges) {
  std::vector<hdsm::idx::UpdateRun> out;
  for (const hdsm::mem::ByteRange& range : ranges) {
    std::uint64_t pos = range.begin;
    while (pos < range.end) {
      const auto loc = t.locate(pos);
      const hdsm::idx::IndexRow& row = t.rows()[loc.row];
      const std::uint64_t seg_end = std::min<std::uint64_t>(range.end,
                                                            row.end());
      if (!row.is_padding()) {
        const hdsm::idx::UpdateRun run{
            static_cast<std::uint32_t>(loc.row), loc.elem,
            (seg_end - 1 - row.offset) / row.size - loc.elem + 1};
        if (!out.empty() && out.back().row == run.row &&
            out.back().first_elem + out.back().count >= run.first_elem) {
          out.back().count =
              std::max(out.back().first_elem + out.back().count,
                       run.first_elem + run.count) -
              out.back().first_elem;
        } else {
          out.push_back(run);
        }
      }
      pos = seg_end;
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

}  // namespace

TEST_P(CollectRuns, ElementWalkMatchesBruteForceUnderEveryOption) {
  const std::vector<const plat::PlatformDesc*> platforms = {
      &plat::linux_ia32(), &plat::linux_x86_64(), &plat::solaris_sparc32(),
      &plat::solaris_sparc64()};
  std::mt19937_64 rng(2606);
  for (int table = 0; table < 24; ++table) {
    const tags::TypePtr ty = random_gthv(rng);
    const plat::PlatformDesc& platform = *platforms[table % platforms.size()];
    for (const bool coalesce : {true, false}) {
      for (const std::size_t slack : {0u, 8u, 32u, 64u}) {
        dsm::GlobalSpace g(ty, platform, GetParam());
        const std::uint64_t size = g.table().image_size();
        for (std::uint64_t i = 0; i < size; ++i) {
          g.region().data()[i] = static_cast<std::byte>(rng());
        }
        dsm::SyncOptions opts;
        opts.coalesce_runs = coalesce;
        opts.merge_slack = slack;
        dsm::ShareStats s;
        dsm::SyncEngine engine(g, opts, s);
        g.region().begin_tracking();
        // Several intervals, so later collects diff against refreshed twins.
        for (int round = 0; round < 3; ++round) {
          const std::vector<std::byte> before = image_snapshot(g);
          random_writes(g, rng);
          const std::vector<std::byte> after = image_snapshot(g);
          const auto runs = engine.collect_runs();
          const std::string where =
              "table " + std::to_string(table) + " on " + platform.name +
              " coalesce=" + std::to_string(coalesce) +
              " slack=" + std::to_string(slack) +
              " round=" + std::to_string(round);
          ASSERT_EQ(runs, brute_force_runs(g.table(), before, after,
                                           {coalesce, slack}))
              << where;
          if (coalesce && slack == 0) {
            std::vector<hdsm::mem::ByteRange> ranges;
            hdsm::mem::diff_bytes(after.data(), before.data(), size, 0,
                                  ranges);
            ASSERT_EQ(runs, ranges_to_runs(g.table(), ranges)) << where;
          }
        }
        g.region().end_tracking();
      }
    }
  }
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
  std::vector<hdsm::idx::UpdateRun> sent;
  const std::vector<std::byte> payload = se.collect_payload(&sent);
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
    o.adaptive = true;
    o.tuner.pin_conv_threads = pin;
    EXPECT_NO_THROW((dsm::SyncEngine{g, o, s})) << "pin_conv_threads=" << pin;
  }
  dsm::SyncOptions four;
  four.conv_threads = 4;
  EXPECT_THROW((dsm::SyncEngine{g, four, s}), std::invalid_argument);
  dsm::SyncOptions pinned;
  pinned.adaptive = true;
  pinned.tuner.pin_conv_threads = 2;
  EXPECT_THROW((dsm::SyncEngine{g, pinned, s}), std::invalid_argument);
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
  adaptive.adaptive = true;
  adaptive.tuner.warmup = 1;
  const std::pair<dsm::SyncOptions, int> inputs[] = {{{}, 0}, {adaptive, 12}};
  for (const auto& [opts, warm_payloads] : inputs) {
    SCOPED_TRACE(opts.adaptive ? "adaptive" : "stock");
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
}

// ---- barrier-release gap fill ----------------------------------------------

namespace {

/// One data row of each kind whose route can differ between platforms.
tags::TypePtr fill_gthv() {
  return TypeDesc::struct_of(
      "G", {{"D", TypeDesc::array(tags::t_double(), 64)},
            {"L", TypeDesc::array(tags::t_longdouble(), 8)},
            {"W", TypeDesc::array(tags::t_long(), 8)}});
}

/// What a peer on `p` announces in its Hello: every data row's element
/// size there.
dsm::PeerShape shape_of(const tags::TypePtr& gthv,
                        const plat::PlatformDesc& p) {
  dsm::PeerShape shape;
  shape.platform = msg::PlatformSummary::of(p);
  const hdsm::idx::IndexTable table(gthv, p);
  for (const hdsm::idx::IndexRow& row : table.rows()) {
    if (!row.is_padding()) shape.elem_sizes.push_back(row.size);
  }
  return shape;
}

/// Two one-element runs of `row` with `gap` untouched elements between.
std::vector<hdsm::idx::UpdateRun> split_pair(std::uint32_t row,
                                             std::uint64_t gap) {
  return {{row, 0, 1}, {row, 1 + gap, 1}};
}

}  // namespace

TEST(FillGaps, JoinsOnlyShortGapsOnExactRoutes) {
  dsm::GlobalSpace home(fill_gthv(), plat::solaris_sparc32());
  dsm::ShareStats stats;
  dsm::SyncEngine engine(home, {}, stats);
  const std::uint32_t d = static_cast<std::uint32_t>(
      home.table().row_of_field("D"));
  const std::uint32_t l = static_cast<std::uint32_t>(
      home.table().row_of_field("L"));
  const std::uint32_t w = static_cast<std::uint32_t>(
      home.table().row_of_field("W"));
  const auto filled = [&](std::vector<hdsm::idx::UpdateRun> runs,
                          const plat::PlatformDesc& peer) {
    engine.fill_gaps(runs, shape_of(fill_gthv(), peer));
    return runs.size();
  };
  const plat::PlatformDesc& ia32 = plat::linux_ia32();

  // double sparc32 -> ia32 is BulkSwap: a gap of up to one block header
  // (3 doubles = 24 B) is joined, 4 doubles is not.
  EXPECT_EQ(filled(split_pair(d, 1), ia32), 1u);
  EXPECT_EQ(filled(split_pair(d, 3), ia32), 1u);
  EXPECT_EQ(filled(split_pair(d, 4), ia32), 2u);
  // The same row to a sparc32 peer is Memcpy.
  EXPECT_EQ(filled(split_pair(d, 3), plat::solaris_sparc32()), 1u);

  // long double: binary128 (16 B) -> x87 (12 B) is Elementwise through
  // double, so even a one-element gap stays; sparc32 -> sparc64 is Memcpy.
  EXPECT_EQ(filled(split_pair(l, 1), ia32), 2u);
  EXPECT_EQ(filled(split_pair(l, 1), plat::solaris_sparc64()), 1u);

  // long: 4 B here, 4 B on ia32 (BulkSwap), 8 B on x86_64 (Elementwise).
  EXPECT_EQ(filled(split_pair(w, 1), ia32), 1u);
  EXPECT_EQ(filled(split_pair(w, 1), plat::linux_x86_64()), 2u);

  // Never across rows; no shape (no Hello seen) joins nothing.
  EXPECT_EQ(filled({{d, 63, 1}, {l, 0, 1}}, ia32), 2u);
  std::vector<hdsm::idx::UpdateRun> runs = split_pair(d, 1);
  engine.fill_gaps(runs, dsm::PeerShape{});
  EXPECT_EQ(runs.size(), 2u);

  // A join spans both runs and the gap, and the pass is linear over a
  // whole pending set: runs in D and W, a far gap in D, L untouched.
  runs = {{d, 0, 1}, {d, 2, 2}, {d, 7, 1}, {d, 40, 1}, {l, 0, 1},
          {l, 2, 1}, {w, 1, 1}, {w, 3, 1}};
  engine.fill_gaps(runs, shape_of(fill_gthv(), ia32));
  const std::vector<hdsm::idx::UpdateRun> want = {
      {d, 0, 8}, {d, 40, 1}, {l, 0, 1}, {l, 2, 1}, {w, 1, 3}};
  EXPECT_EQ(runs, want);
}

namespace {

/// The home's data plane behind a bare CoherenceCore.
struct EngineCodec final : dsm::UpdateCodec {
  explicit EngineCodec(dsm::SyncEngine& e) : engine(e) {}
  std::vector<std::byte> pack(
      const std::vector<hdsm::idx::UpdateRun>& runs) override {
    return engine.pack_payload(runs);
  }
  std::vector<hdsm::idx::UpdateRun> apply(
      const std::vector<std::byte>& payload,
      const msg::PlatformSummary& sender) override {
    return engine.apply_payload(payload, sender);
  }
  void fill_gaps(std::vector<hdsm::idx::UpdateRun>& runs,
                 const dsm::PeerShape& peer) override {
    engine.fill_gaps(runs, peer);
  }
  dsm::SyncEngine& engine;
};

/// The red/black SOR shape: one double written at every other index.
constexpr std::uint64_t kStride2Runs = 512;

tags::TypePtr stride2_gthv() {
  return TypeDesc::struct_of(
      "G", {{"D", TypeDesc::array(tags::t_double(), 2 * kStride2Runs)}});
}

/// A sparc32 home core with rank 1, an ia32 peer, attached and past its
/// Hello, and a master pending set of kStride2Runs one-double runs.
struct ReleaseHarness {
  dsm::GlobalSpace home{stride2_gthv(), plat::solaris_sparc32()};
  dsm::GlobalSpace peer{stride2_gthv(), plat::linux_ia32()};
  dsm::ShareStats stats;
  dsm::SyncEngine engine{home, {}, stats};
  EngineCodec codec{engine};
  dsm::CoherenceCore core{[this] {
                            dsm::CoherenceConfig cfg;
                            cfg.self = msg::PlatformSummary::of(
                                home.platform());
                            cfg.image_tag_text = home.image_tag_text();
                            cfg.layout_runs = home.table().layout().runs;
                            return cfg;
                          }(),
                          codec, stats};
  std::vector<hdsm::idx::UpdateRun> runs;

  ReleaseHarness() {
    auto d = home.view<double>("D");
    const auto row =
        static_cast<std::uint32_t>(home.table().row_of_field("D"));
    for (std::uint64_t i = 0; i < 2 * kStride2Runs; ++i) {
      d.set(i, 0.5 + static_cast<double>(i));  // gaps hold data too
      if (i % 2 == 0) runs.push_back({row, i, 1});
    }
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

  /// The pending set packed as it stands, by a second engine on the image.
  std::vector<std::byte> unfilled_pack() {
    dsm::ShareStats s;
    return dsm::SyncEngine(home, {}, s).pack_payload(runs);
  }
};

}  // namespace

TEST(BarrierFill, Stride2ReleaseOnABulkSwapLinkIsOneBlock) {
  ReleaseHarness h;
  h.core.step(dsm::CoherenceEvent::master_barrier(0, h.runs));
  const std::vector<std::byte> release = ReleaseHarness::sent(
      h.core.step(dsm::CoherenceEvent::msg_received(
          1, h.request(msg::MsgType::BarrierEnter, 1))),
      msg::MsgType::BarrierRelease);

  const auto blocks = dsm::decode_update_block_views(release);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].first_elem, 0u);
  EXPECT_EQ(blocks[0].tag, "(8," + std::to_string(2 * kStride2Runs - 1) + ")");
  // 16 B per run pair filled against 2 x (24 B header + "(8,1)" + 8 B).
  EXPECT_LT(release.size(), h.unfilled_pack().size() / 2);

  // The peer ends up with the home's values, the filled gaps included.
  dsm::ShareStats ps;
  dsm::SyncEngine(h.peer, {}, ps)
      .apply_payload(release, msg::PlatformSummary::of(h.home.platform()));
  auto got = h.peer.view<double>("D");
  auto want = h.home.view<double>("D");
  for (std::uint64_t i = 0; i + 1 < 2 * kStride2Runs; ++i) {
    ASSERT_EQ(got.get(i), want.get(i)) << i;
  }
  EXPECT_EQ(got.get(2 * kStride2Runs - 1), 0.0);  // past the last run
}

TEST(BarrierFill, LockGrantShipsThePendingSetUnfilled) {
  // A grantee may hold unsent writes in a gap under another mutex, so a
  // grant packs the pending set exactly as it stands.
  ReleaseHarness h;
  h.core.step(dsm::CoherenceEvent::master_lock(0));
  h.core.step(dsm::CoherenceEvent::master_unlock(0, h.runs));
  const std::vector<std::byte> grant = ReleaseHarness::sent(
      h.core.step(dsm::CoherenceEvent::msg_received(
          1, h.request(msg::MsgType::LockRequest, 1))),
      msg::MsgType::LockGrant);
  EXPECT_EQ(grant, h.unfilled_pack());
  EXPECT_EQ(dsm::decode_update_block_views(grant).size(), kStride2Runs);
}

TEST(BarrierFill, IA32LongDoubleInAGapKeepsItsExactBytes) {
  // x87 extended 1 + 2^-63: its lowest mantissa bit is lost on the way
  // through double to the sparc32 home's binary128, so shipping this
  // element back would change it.  Rank 2 writes both neighbours, which
  // leaves it a 16 B gap in rank 1's release — inside the fill bound, on
  // a row whose route is Elementwise.
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
}

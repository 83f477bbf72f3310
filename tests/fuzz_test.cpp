// Robustness sweeps: every wire-facing decoder must reject arbitrary
// garbage with an exception — never crash, hang, or silently accept.
// Deterministic pseudo-random corpora stand in for a fuzzer (no libFuzzer
// in this environment); mutation tests flip bits in valid inputs.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <iterator>
#include <random>

#include "codec/codec.hpp"
#include "dsm/image_io.hpp"
#include "dsm/replication.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/update.hpp"
#include "mig/io_state.hpp"
#include "mig/thread_state.hpp"
#include "msg/message.hpp"
#include "obs/telemetry.hpp"
#include "platform/int_codec.hpp"
#include "tags/describe.hpp"
#include "tags/tag.hpp"

namespace codec = hdsm::codec;
namespace dsm = hdsm::dsm;
namespace mig = hdsm::mig;
namespace msg = hdsm::msg;
namespace obs = hdsm::obs;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

namespace {

std::vector<std::byte> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng());
  return out;
}

std::string random_ascii(std::mt19937_64& rng, std::size_t n) {
  static const char chars[] = "()0123456789,-x ";
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(chars[rng() % (sizeof(chars) - 1)]);
  }
  return s;
}

}  // namespace

TEST(Fuzz, TagParseNeverCrashes) {
  std::mt19937_64 rng(101);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string text = random_ascii(rng, rng() % 64);
    try {
      const tags::Tag t = tags::Tag::parse(text);
      // Accepted input must round-trip.
      EXPECT_EQ(tags::Tag::parse(t.to_string()), t);
    } catch (const std::invalid_argument&) {
      // rejection is fine
    }
  }
}

TEST(Fuzz, FrameDecoderRejectsGarbageStreams) {
  std::mt19937_64 rng(103);
  for (int iter = 0; iter < 1000; ++iter) {
    msg::FrameDecoder dec;
    const std::vector<std::byte> buf = random_bytes(rng, 16 + rng() % 256);
    dec.feed(buf.data(), buf.size());
    msg::Message out;
    try {
      while (dec.next(out)) {
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, FrameDecoderBitflipMutations) {
  msg::Message m;
  m.type = msg::MsgType::UnlockRequest;
  m.sync_id = 2;
  m.rank = 3;
  m.tag = "(4,10)";
  m.payload.assign(40, std::byte{7});
  const std::vector<std::byte> frame = msg::encode_frame(m);
  std::mt19937_64 rng(104);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> mut = frame;
    const std::size_t pos = rng() % mut.size();
    mut[pos] ^= static_cast<std::byte>(1 << (rng() % 8));
    msg::FrameDecoder dec;
    msg::Message out;
    try {
      dec.feed(mut.data(), mut.size());
      if (dec.next(out)) {
        // A surviving frame must at least be self-consistent in length.
        EXPECT_LE(out.payload.size(), mut.size());
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, UpdateBlockDecoderNeverCrashes) {
  std::mt19937_64 rng(105);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::vector<std::byte> buf = random_bytes(rng, rng() % 200);
    try {
      (void)dsm::decode_update_blocks(buf);
    } catch (const std::runtime_error&) {
    } catch (const std::bad_alloc&) {
    } catch (const std::length_error&) {
    }
  }
}

TEST(Fuzz, UpdateBlockBitflipMutations) {
  std::vector<dsm::UpdateBlock> blocks(2);
  blocks[0].row = 2;
  blocks[0].tag = "(4,8)";
  blocks[0].data.assign(32, std::byte{1});
  blocks[1].row = 4;
  blocks[1].tag = "(8,1)";
  blocks[1].data.assign(8, std::byte{2});
  const std::vector<std::byte> payload = dsm::encode_update_blocks(blocks);
  std::mt19937_64 rng(106);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> mut = payload;
    mut[rng() % mut.size()] ^= static_cast<std::byte>(1 << (rng() % 8));
    try {
      (void)dsm::decode_update_blocks(mut);
    } catch (const std::runtime_error&) {
    } catch (const std::bad_alloc&) {
    } catch (const std::length_error&) {
    }
  }
}

TEST(Fuzz, ThreadStateUnpackNeverCrashes) {
  mig::StateSchema schema;
  schema.register_frame(
      "f", tags::TypeDesc::struct_of("L", {{"i", tags::t_int()}}));
  std::mt19937_64 rng(107);
  const auto summary = msg::PlatformSummary::of(plat::solaris_sparc32());
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<std::byte> buf = random_bytes(rng, rng() % 160);
    try {
      (void)mig::unpack_state(buf, schema, plat::linux_ia32(), summary);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, ThreadStateBitflipMutations) {
  mig::StateSchema schema;
  const tags::TypePtr locals =
      tags::TypeDesc::struct_of("L", {{"i", tags::t_int()},
                                      {"d", tags::t_double()}});
  schema.register_frame("f", locals);
  mig::ThreadState state;
  state.rank = 1;
  state.frames.push_back(
      mig::Frame{"f", 2, mig::StructImage(locals, plat::linux_ia32())});
  const std::vector<std::byte> packed = mig::pack_state(state);
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());
  std::mt19937_64 rng(108);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> mut = packed;
    mut[rng() % mut.size()] ^= static_cast<std::byte>(1 << (rng() % 8));
    try {
      (void)mig::unpack_state(mut, schema, plat::solaris_sparc64(), summary);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, FileRecordsNeverCrash) {
  std::mt19937_64 rng(109);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<std::byte> buf = random_bytes(rng, rng() % 64);
    try {
      (void)mig::FileStateRecord::unpack(buf.data(), buf.size());
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, MalformedPayloadsDetachPeerNotHome) {
  // A peer that speaks garbage must be detached; the home node, its other
  // peers, and the master must keep working.
  namespace hdsm_dsm = hdsm::dsm;
  const tags::TypePtr gthv = tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), 16)}});
  hdsm_dsm::ShardedHome home(gthv, plat::linux_ia32());
  msg::EndpointPtr evil_ep = home.attach(1);
  auto good_ep = home.attach(2);
  hdsm_dsm::ShardedRemote good(gthv, plat::solaris_sparc32(), 2,
                               std::move(good_ep));
  home.start();

  // The evil peer sends an unlock for a lock it does not hold, with a
  // garbage payload.
  msg::Message evil;
  evil.type = msg::MsgType::UnlockRequest;
  evil.sync_id = 0;
  evil.rank = 1;
  evil.payload.assign(13, std::byte{0xEE});
  evil_ep->send(evil);

  // The good peer still makes progress.
  good.lock(0);
  good.space().view<std::int32_t>("A").set(0, 5);
  good.unlock(0);
  good.join();
  home.wait_all_joined();  // evil rank was detached, not wedged
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(0), 5);
  home.stop();
}

namespace {

std::string to_hex(const std::vector<std::byte>& b) {
  static const char digits[] = "0123456789abcdef";
  std::string s;
  for (std::byte x : b) {
    const auto v = std::to_integer<unsigned>(x);
    s.push_back(digits[v >> 4]);
    s.push_back(digits[v & 15]);
  }
  return s;
}

/// One wire structure: a fixed value's encoding, the hex it must equal,
/// and a decoder that returns true on accept.  Rejection is an exception
/// (every dsm/mig/codec decoder) or `false` (the obs `deserialize`s).
struct GoldenCase {
  const char* name;
  std::vector<std::byte> bytes;
  const char* hex;
  std::function<bool(const std::vector<std::byte>&)> decodes;
};

bool rejects(const GoldenCase& c, const std::vector<std::byte>& in) {
  try {
    return !c.decodes(in);
  } catch (const std::runtime_error&) {
    return true;
  }
}

tags::TypePtr golden_locals() {
  return tags::TypeDesc::struct_of("L", {{"i", tags::t_int()},
                                         {"d", tags::t_double()}});
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(raw.data());
  return std::vector<std::byte>(p, p + raw.size());
}

void write_file(const std::string& path, const std::vector<std::byte>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// The GThV of the strided golden payload: an int, then eight ints.
tags::TypePtr strided_gthv() {
  return tags::describe_struct("G").field<int>("n").array<int>("v", 8).build();
}

std::uint32_t strided_row() {
  return static_cast<std::uint32_t>(
      hdsm::idx::IndexTable(strided_gthv(), plat::linux_ia32())
          .row_of_field("v"));
}

obs::MetricsSnapshot golden_metrics() {
  obs::MetricsSnapshot m;
  m.counters["c"] = 0x0102;
  m.gauges["g"] = -2;
  obs::HistogramSnapshot h;
  h.count = 3;
  h.sum = 0x30;
  h.buckets = {{1, 1}, {5, 2}};
  m.histograms["h"] = h;
  return m;
}

/// The compressed form of 16 little-endian int32s in a stride-3 ramp.
std::vector<std::byte> ramp_stream() {
  std::vector<std::byte> raw(64);
  for (std::size_t i = 0; i < 16; ++i) {
    plat::write_uint(raw.data() + 4 * i, 4, plat::Endian::Little,
                     100 + 3 * i);
  }
  std::vector<std::byte> stream;
  EXPECT_TRUE(codec::encode_run(raw.data(), raw.size(), 4, stream).encoded);
  return stream;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;

  {  // update payload: one raw block, one compressed block
    std::vector<dsm::UpdateBlock> blocks(2);
    blocks[0].row = 2;
    blocks[0].first_elem = 1;
    blocks[0].tag = "(4,2)";
    blocks[0].data = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
                      std::byte{5}, std::byte{6}, std::byte{7}, std::byte{8}};
    blocks[1].row = 3;
    blocks[1].tag = "(4,16)";
    blocks[1].data = ramp_stream();
    std::vector<std::byte> payload = dsm::encode_update_blocks(blocks);
    // Flag the second block compressed, as SyncEngine's pack does.
    const std::size_t tag_len_at = 4 + 24 + 5 + 8 + 4 + 8;
    plat::write_uint(payload.data() + tag_len_at, 4, plat::Endian::Big,
                     6 | dsm::kCompressedTagFlag);
    cases.push_back({"update payload", payload,
                     "00000002000000020000000000000001000000050000000000000008"
                     "28342c32290102030405060708000000030000000000000000800000"
                     "06000000000000001b28342c313629c500040000000000000000406b"
                     "918d296400000003db6db6db6db0",
                     [](const std::vector<std::byte>& in) {
                       const auto views = dsm::decode_update_block_views(in);
                       return views.size() == 2 && !views[0].compressed &&
                              views[1].compressed;
                     }});
  }

  {  // update payload: one strided block, as SyncEngine packs it
    const std::uint32_t row = strided_row();
    dsm::GlobalSpace sender(strided_gthv(), plat::solaris_sparc32());
    auto v = sender.view<std::int32_t>("v");
    for (std::uint64_t i = 1; i < 6; i += 2) {
      v.set(i, static_cast<std::int32_t>(0x0a0b0c00 + i));
    }
    dsm::ShareStats stats;
    const std::vector<std::byte> payload =
        dsm::SyncEngine(sender, {}, stats).pack_payload({{row, 1, 3, 2}});
    cases.push_back({"strided update payload", payload,
                     "000000010000000200000000000000010000000e000000000000000c"
                     "2828342c312928342c30292c33290a0b0c010a0b0c030a0b0c05",
                     [](const std::vector<std::byte>& in) {
                       dsm::GlobalSpace receiver(strided_gthv(),
                                                 plat::linux_ia32());
                       dsm::ShareStats rs;
                       dsm::SyncEngine(receiver, {}, rs)
                           .apply_payload(in, msg::PlatformSummary::of(
                                                  plat::solaris_sparc32()));
                       auto got = receiver.view<std::int32_t>("v");
                       return got.get(3) == 0x0a0b0c03 && got.get(2) == 0;
                     }});
  }

  {  // frame
    msg::Message m;
    m.type = msg::MsgType::UnlockRequest;
    m.sync_id = 2;
    m.rank = 3;
    m.seq = 4;
    m.aux = 5;
    m.sender = msg::PlatformSummary::of(plat::solaris_sparc64());
    m.tag = "(4,1)";
    m.payload = {std::byte{0xAB}, std::byte{0xCD}, std::byte{0xEF},
                 std::byte{0x01}};
    cases.push_back({"frame", msg::encode_frame(m),
                     "4844534d040102040000000200000003000000040000000500000005"
                     "0000000428342c3129abcdef01",
                     [](const std::vector<std::byte>& in) {
                       msg::FrameDecoder dec;
                       dec.feed(in.data(), in.size());
                       msg::Message out;
                       if (!dec.next(out)) return false;
                       return out.wire_size() == in.size();
                     }});
  }

  {  // replication log record: an embedded message
    dsm::LogRecord r;
    msg::Message m;
    m.type = msg::MsgType::LockRequest;
    m.sync_id = 1;
    m.rank = 2;
    m.seq = 7;
    m.tag = "(4,1)";
    m.payload = {std::byte{9}, std::byte{8}, std::byte{7}, std::byte{6}};
    r.event = dsm::CoherenceEvent::msg_received(2, m);
    cases.push_back({"log record", dsm::encode_record(r),
                     "0100000002000000000000000000000000000000294844534d020000"
                     "0400000001000000020000000700000000000000050000000428342c"
                     "31290908070600000000000000000000",
                     [](const std::vector<std::byte>& in) {
                       return dsm::decode_record(in).event.message.seq == 7;
                     }});
  }

  {  // replication log record: a master barrier ships its payload, never
     // its runs
    dsm::LogRecord r;
    r.event = dsm::CoherenceEvent::master_barrier(3, {{1, 2, 3, 2}, {4, 5, 6}});
    r.master_payload = {std::byte{0x33}};
    r.master_sender = msg::PlatformSummary::of(plat::linux_ia32());
    cases.push_back({"master log record", dsm::encode_record(r),
                     "040000000000000003000000000000000000000001330001",
                     [](const std::vector<std::byte>& in) {
                       const dsm::LogRecord back = dsm::decode_record(in);
                       return back.event.runs.empty() &&
                              back.master_payload.size() == 1;
                     }});
  }

  {  // replication log record: a configuration event
    dsm::LogRecord r;
    r.event = dsm::CoherenceEvent::bind_lock(5, 9);
    cases.push_back({"config log record", dsm::encode_record(r),
                     "0700000000000000050000000900000000000000000000",
                     [](const std::vector<std::byte>& in) {
                       return dsm::decode_record(in).event.value == 9;
                     }});
  }

  {  // thread state: one frame, one heap object
    const tags::TypePtr locals = golden_locals();
    mig::ThreadState state;
    state.rank = 1;
    mig::StructImage img(locals, plat::linux_ia32());
    img.set<std::int32_t>("i", 0x01020304);
    img.set<double>("d", 1.5);
    state.frames.push_back(mig::Frame{"f", 2, img});
    state.heap.push_back(mig::HeapObject{9, "L", img});
    cases.push_back({"thread state", mig::pack_state(state),
                     "00000001000000010000000166000000020000001428342c31292830"
                     "2c302928382c312928302c3029000000000000000c04030201000000"
                     "000000f83f000000010000000000000009000000014c000000142834"
                     "2c312928302c302928382c312928302c3029000000000000000c0403"
                     "0201000000000000f83f",
                     [](const std::vector<std::byte>& in) {
                       mig::StateSchema schema;
                       schema.register_frame("f", golden_locals());
                       schema.register_heap_type("L", golden_locals());
                       const mig::ThreadState s = mig::unpack_state(
                           in, schema, plat::linux_ia32(),
                           msg::PlatformSummary::of(plat::linux_ia32()));
                       return s.frames.size() == 1 && s.heap.size() == 1;
                     }});
  }

  {  // io record
    mig::FileStateRecord f;
    f.path = "/tmp/x";
    f.mode = mig::FileMode::Append;
    f.offset = 0x1234;
    cases.push_back({"file record", f.pack(),
                     "000000062f746d702f78030000000000001234",
                     [](const std::vector<std::byte>& in) {
                       return mig::FileStateRecord::unpack(in.data(),
                                                           in.size())
                                  .offset == 0x1234;
                     }});
  }

  {  // codec stream
    cases.push_back({"codec stream", ramp_stream(),
                     "c500040000000000000000406b918d296400000003db6db6db6db0",
                     [](const std::vector<std::byte>& in) {
                       std::vector<std::byte> dst(64);
                       codec::decode_run(in.data(), in.size(), dst.data(),
                                         dst.size(), 4);
                       return true;
                     }});
  }

  {  // image file: header + the image of a two-int struct
    const std::string path = ::testing::TempDir() + "hdsm_golden_image.bin";
    const tags::TypePtr gthv =
        tags::describe_struct("G").array<int>("v", 2).build();
    dsm::GlobalSpace space(gthv, plat::linux_ia32());
    space.view<std::int32_t>("v").set(0, 7);
    space.view<std::int32_t>("v").set(1, -1);
    dsm::save_image(space, path);
    cases.push_back({"image file", read_file(path),
                     "4844534d494d473100010000000a28342c322928302c302907000000"
                     "ffffffff",
                     [path, gthv](const std::vector<std::byte>& in) {
                       write_file(path, in);
                       dsm::GlobalSpace g(gthv, plat::linux_ia32());
                       dsm::load_image(g, path);
                       return g.view<std::int32_t>("v").get(1) == -1;
                     }});
  }

  {  // obs snapshots
    std::vector<std::byte> w;
    golden_metrics().serialize(w);
    cases.push_back({"metrics snapshot", w,
                     "4f42533200000001000163000000000000010200000001000167ffff"
                     "fffffffffffe00000001000168000000000000000300000000000000"
                     "30000000020000000100000000000000010000000500000000000000"
                     "02",
                     [](const std::vector<std::byte>& in) {
                       obs::MetricsSnapshot out;
                       return obs::MetricsSnapshot::deserialize(
                           in.data(), in.size(), out);
                     }});
    obs::NodeSnapshot node;
    node.rank = 2;
    node.epoch = 0x0A0B;
    node.metrics = golden_metrics();
    w.clear();
    node.serialize(w);
    cases.push_back({"node snapshot", w,
                     "000000020000000000000a0b000000554f4253320000000100016300"
                     "0000000000010200000001000167fffffffffffffffe000000010001"
                     "68000000000000000300000000000000300000000200000001000000"
                     "0000000001000000050000000000000002",
                     [](const std::vector<std::byte>& in) {
                       obs::NodeSnapshot out;
                       return obs::NodeSnapshot::deserialize(
                           in.data(), in.size(), out);
                     }});
    obs::ClusterTelemetry ct;
    ct.nodes.push_back(node);
    node.metrics = obs::MetricsSnapshot{};
    node.metrics.counters["r"] = 1;
    ct.retired.push_back(node);
    w.clear();
    ct.serialize(w);
    cases.push_back({"cluster telemetry", w,
                     "0000000100000065000000020000000000000a0b000000554f425332"
                     "00000001000163000000000000010200000001000167ffffffffffff"
                     "fffe0000000100016800000000000000030000000000000030000000"
                     "02000000010000000000000001000000050000000000000002000000"
                     "010000002b000000020000000000000a0b0000001b4f425332000000"
                     "0100017200000000000000010000000000000000",
                     [](const std::vector<std::byte>& in) {
                       obs::ClusterTelemetry out;
                       return obs::ClusterTelemetry::deserialize(
                           in.data(), in.size(), out);
                     }});
  }
  return cases;
}

}  // namespace

// Every structure that crosses a node boundary (or a checkpoint file) keeps
// its exact bytes, decodes back, and rejects every proper prefix and one
// appended byte.
TEST(Fuzz, GoldenBytesAndTruncationSweep) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(to_hex(c.bytes), c.hex);
    EXPECT_FALSE(rejects(c, c.bytes));
    for (std::size_t n = 0; n < c.bytes.size(); ++n) {
      const std::vector<std::byte> prefix(c.bytes.begin(),
                                          c.bytes.begin() + n);
      EXPECT_TRUE(rejects(c, prefix)) << "prefix of " << n << " bytes";
    }
    std::vector<std::byte> longer = c.bytes;
    longer.push_back(std::byte{0});
    EXPECT_TRUE(rejects(c, longer)) << "one appended byte";
  }
}

// A strided block's tag must be exactly "((m,1)(p,0),n)" with p a whole
// number of m-byte elements and n of them fitting in the row.  Each
// hostile form throws from apply, and the valid block in front of it in
// the same payload does not land either.
TEST(Fuzz, HostileStridedTagsAreRejectedBeforeAnyByteLands) {
  const tags::TypePtr gthv = tags::TypeDesc::struct_of(
      "G", {{"D", tags::TypeDesc::array(tags::t_double(), 16)},
            {"I", tags::TypeDesc::array(tags::t_int(), 32)}});
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());
  dsm::GlobalSpace g(gthv, plat::linux_ia32());
  const auto row_d = static_cast<std::uint32_t>(g.table().row_of_field("D"));
  const auto row_i = static_cast<std::uint32_t>(g.table().row_of_field("I"));
  dsm::ShareStats stats;
  dsm::SyncEngine engine(g, {}, stats);

  dsm::UpdateBlock valid;
  valid.row = row_d;
  valid.tag = "((8,1)(8,0),2)";
  valid.data.assign(16, std::byte{0x11});
  // The compressed form of 16 ints, in front of a tag that claims 15.
  dsm::UpdateBlock wrong_count;
  wrong_count.row = row_i;
  wrong_count.tag = "((4,1)(4,0),15)";
  wrong_count.data = ramp_stream();

  struct Case {
    const char* why;
    dsm::UpdateBlock block;
    bool compressed;
  };
  const auto block = [](std::uint32_t row, std::uint64_t first,
                        const char* tag, std::size_t data_len) {
    dsm::UpdateBlock b;
    b.row = row;
    b.first_elem = first;
    b.tag = tag;
    b.data.assign(data_len, std::byte{0x22});
    return b;
  };
  const std::vector<Case> cases = {
      {"zero-byte elements, so no stride", block(row_d, 0, "((0,1)(8,0),2)", 0),
       false},
      {"stride 1 as an aggregate", block(row_d, 0, "((8,1)(0,0),2)", 16),
       false},
      {"p % m != 0", block(row_d, 0, "((8,1)(4,0),2)", 16), false},
      {"span past the row end", block(row_d, 2, "((8,1)(8,0),8)", 64), false},
      {"span overflowing 64 bits",
       block(row_d, 1, "((8,1)(8,0),9223372036854775809)", 16), false},
      {"stride overflowing 32 bits",
       block(row_d, 0, "((8,1)(34359738368,0),2)", 16), false},
      {"nested aggregate", block(row_d, 0, "(((8,1)(8,0),2)(8,0),2)", 32),
       false},
      {"two elements per slot", block(row_d, 0, "((8,2)(8,0),2)", 32), false},
      {"no padding slot", block(row_d, 0, "((8,1),2)", 16), false},
      {"two padding slots", block(row_d, 0, "((8,1)(8,0)(8,0),2)", 16),
       false},
      {"one element", block(row_d, 0, "((8,1)(8,0),1)", 8), false},
      {"data for the span, not the elements",
       block(row_d, 0, "((8,1)(8,0),2)", 24), false},
      {"pointer-ness mismatch", block(row_d, 0, "((8,-1)(8,0),2)", 16), false},
      {"compressed stream with the wrong count", wrong_count, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.why);
    std::vector<std::byte> payload =
        dsm::encode_update_blocks({valid, c.block});
    if (c.compressed) {
      const std::size_t tag_len_at =
          4 + dsm::update_block_wire_size(valid.tag.size(), 16) + 4 + 8;
      plat::write_uint(payload.data() + tag_len_at, 4, plat::Endian::Big,
                       static_cast<std::uint32_t>(c.block.tag.size()) |
                           dsm::kCompressedTagFlag);
    }
    const std::vector<std::byte> before(
        g.region().data(), g.region().data() + g.table().image_size());
    EXPECT_THROW(engine.apply_payload(payload, summary), std::runtime_error);
    EXPECT_TRUE(std::equal(before.begin(), before.end(), g.region().data()));
  }
  // The valid block alone lands, at its stride.
  engine.apply_payload(dsm::encode_update_blocks({valid}), summary);
  EXPECT_NE(g.view<double>("D").get(2), 0.0);
  EXPECT_EQ(g.view<double>("D").get(1), 0.0);
}

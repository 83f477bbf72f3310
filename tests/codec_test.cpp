// Tests for hdsm::codec (docs/COMPRESSION.md): lossless round trips across
// element sizes and value distributions, strict rejection of every
// malformed stream shape (truncation, trailing bytes, bit flips, header
// lies), and the engine-level contracts — pinned-off wire stability,
// forced-on cross-ABI equivalence, and all-or-nothing rejection of
// payloads carrying a corrupt compressed block.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "codec/codec.hpp"
#include "dsm/global_space.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/update.hpp"
#include "msg/message.hpp"

namespace codec = hdsm::codec;
namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
using tags::TypeDesc;

namespace {

std::vector<std::byte> as_bytes(const void* p, std::size_t n) {
  std::vector<std::byte> out(n);
  std::memcpy(out.data(), p, n);
  return out;
}

/// Encode, then decode back, asserting byte equality.  Returns the encode
/// result so tests can also assert on ratio / engagement.
codec::EncodeResult round_trip(const std::vector<std::byte>& raw,
                               std::uint32_t elem_size) {
  std::vector<std::byte> wire;
  const codec::EncodeResult r =
      codec::encode_run(raw.data(), raw.size(), elem_size, wire);
  if (!r.encoded) {
    EXPECT_TRUE(wire.empty());
    return r;
  }
  EXPECT_EQ(wire.size(), r.bytes);
  EXPECT_LT(wire.size(), raw.size());
  std::vector<std::byte> back(raw.size());
  codec::decode_run(wire.data(), wire.size(), back.data(), back.size(),
                    elem_size);
  EXPECT_EQ(back, raw);
  return r;
}

template <typename T>
std::vector<std::byte> pattern_bytes(std::size_t count,
                                     T (*gen)(std::size_t)) {
  std::vector<T> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = gen(i);
  return as_bytes(v.data(), count * sizeof(T));
}

tags::TypePtr codec_gthv(std::uint64_t ints = 4096) {
  return TypeDesc::struct_of("G",
                             {{"GThP", TypeDesc::pointer()},
                              {"A", TypeDesc::array(tags::t_int(), ints)},
                              {"D", TypeDesc::array(tags::t_double(), 256)},
                              {"n", tags::t_int()}});
}

/// Dirty a smooth (highly compressible) region plus a noisy one.
void write_workload(dsm::GlobalSpace& g, std::uint64_t ints, int salt) {
  auto a = g.view<std::int32_t>("A");
  for (std::uint64_t i = 0; i < ints; ++i) {
    a.set(i, static_cast<std::int32_t>(i * 3 + static_cast<unsigned>(salt)));
  }
  auto d = g.view<double>("D");
  for (std::uint64_t i = 0; i < 256; ++i) {
    d.set(i, 1.0 + static_cast<double>(i) * 0.25 + salt);
  }
  g.view<std::int32_t>("n").set(salt);
}

}  // namespace

// ---- round trips across element sizes and distributions --------------------

TEST(CodecRoundTrip, ConstantRunsCompressHard) {
  for (const std::uint32_t es : {1u, 2u, 4u, 8u}) {
    std::vector<std::byte> raw(256 * es, std::byte{0x5a});
    const auto r = round_trip(raw, es);
    ASSERT_TRUE(r.encoded) << "elem size " << es;
    // All-zero residuals: header + element 0 + one width byte per chunk.
    EXPECT_LT(r.bytes, raw.size() / 4) << "elem size " << es;
  }
}

TEST(CodecRoundTrip, RampPrefersLinearPredictor) {
  const auto raw = pattern_bytes<std::int64_t>(
      512, +[](std::size_t i) { return static_cast<std::int64_t>(i) * 1000; });
  const auto r = round_trip(raw, 8);
  ASSERT_TRUE(r.encoded);
  EXPECT_EQ(r.predictor, codec::Predictor::Linear);
  EXPECT_LT(r.bytes, raw.size() / 2);
}

TEST(CodecRoundTrip, SmoothDoublesCompress) {
  const auto raw = pattern_bytes<double>(
      512, +[](std::size_t i) { return 100.0 + 0.125 * static_cast<double>(i); });
  const auto r = round_trip(raw, 8);
  EXPECT_TRUE(r.encoded);
}

TEST(CodecRoundTrip, WhiteNoiseShipsRaw) {
  std::mt19937_64 rng(7);
  std::vector<std::byte> raw(1024);
  for (auto& b : raw) b = static_cast<std::byte>(rng());
  std::vector<std::byte> wire;
  const auto r = codec::encode_run(raw.data(), raw.size(), 8, wire);
  // Incompressible input: the encoder must decline, leaving `out` alone.
  EXPECT_FALSE(r.encoded);
  EXPECT_TRUE(wire.empty());
}

TEST(CodecRoundTrip, DenormalsNansAndInfinitiesAreLossless) {
  std::vector<double> v = {std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           -0.0,
                           0.0};
  while (v.size() < 64) v.push_back(v[v.size() % 8]);
  round_trip(as_bytes(v.data(), v.size() * 8), 8);  // asserts byte equality
}

TEST(CodecRoundTrip, RandomizedAcrossSizesAndDistributions) {
  std::mt19937_64 rng(42);
  for (const std::uint32_t es : {1u, 2u, 4u, 8u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t count = 8 + rng() % 700;
      std::vector<std::byte> raw(count * es);
      // Mix distributions: step ramps with random noise amplitude.
      const std::uint64_t noise_mask = (1ull << (rng() % 16)) - 1;
      std::uint64_t acc = rng();
      for (std::size_t i = 0; i < count; ++i) {
        acc += 3 + (rng() & noise_mask);
        std::uint64_t x = acc;
        for (std::uint32_t b = 0; b < es; ++b) {
          raw[i * es + b] = static_cast<std::byte>(x & 0xff);
          x >>= 8;
        }
      }
      round_trip(raw, es);  // asserts losslessness whenever it encodes
    }
  }
}

TEST(CodecRoundTrip, UnencodableElementSizeDeclines) {
  std::vector<std::byte> raw(120, std::byte{1});
  std::vector<std::byte> wire;
  EXPECT_FALSE(codec::encode_run(raw.data(), raw.size(), 3, wire).encoded);
  EXPECT_TRUE(wire.empty());
}

// ---- malformed stream rejection --------------------------------------------

namespace {

/// A compressible stream to mutate in the rejection tests.
struct Encoded {
  std::vector<std::byte> raw;
  std::vector<std::byte> wire;
};

Encoded make_encoded() {
  Encoded e;
  e.raw = pattern_bytes<std::int32_t>(
      256, +[](std::size_t i) { return static_cast<std::int32_t>(i * 7 + 1); });
  const auto r = codec::encode_run(e.raw.data(), e.raw.size(), 4, e.wire);
  EXPECT_TRUE(r.encoded);
  return e;
}

}  // namespace

TEST(CodecReject, EveryTruncationThrows) {
  const Encoded e = make_encoded();
  std::vector<std::byte> dst(e.raw.size());
  for (std::size_t len = 0; len < e.wire.size(); ++len) {
    EXPECT_THROW(
        codec::decode_run(e.wire.data(), len, dst.data(), dst.size(), 4),
        std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(CodecReject, TrailingBytesThrow) {
  Encoded e = make_encoded();
  e.wire.push_back(std::byte{0});
  std::vector<std::byte> dst(e.raw.size());
  EXPECT_THROW(
      codec::decode_run(e.wire.data(), e.wire.size(), dst.data(), dst.size(),
                        4),
      std::runtime_error);
}

TEST(CodecReject, OversizedStreamThrows) {
  // A "compressed" stream at least as large as the raw bytes can never be
  // legitimate (the encoder never emits one); the decoder refuses up front.
  const Encoded e = make_encoded();
  std::vector<std::byte> dst(e.wire.size());  // pretend raw == wire size
  EXPECT_THROW(codec::decode_run(e.wire.data(), e.wire.size(), dst.data(),
                                 e.wire.size(), 4),
               std::runtime_error);
}

TEST(CodecReject, EverySingleBitFlipThrows) {
  const Encoded e = make_encoded();
  std::vector<std::byte> dst(e.raw.size());
  for (std::size_t pos = 0; pos < e.wire.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> mutated = e.wire;
      mutated[pos] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      EXPECT_THROW(codec::decode_run(mutated.data(), mutated.size(),
                                     dst.data(), dst.size(), 4),
                   std::runtime_error)
          << "byte " << pos << " bit " << bit;
    }
  }
}

TEST(CodecReject, ElementSizeDisagreementThrows) {
  const Encoded e = make_encoded();
  std::vector<std::byte> dst(e.raw.size());
  EXPECT_THROW(codec::decode_run(e.wire.data(), e.wire.size(), dst.data(),
                                 dst.size(), 8),
               std::runtime_error);
}

TEST(CodecReject, RawLengthDisagreementThrows) {
  const Encoded e = make_encoded();
  std::vector<std::byte> dst(e.raw.size() + 4);
  EXPECT_THROW(codec::decode_run(e.wire.data(), e.wire.size(), dst.data(),
                                 dst.size(), 4),
               std::runtime_error);
}

// ---- engine-level contracts ------------------------------------------------

TEST(CodecEngine, PinnedOffIsByteIdenticalAndUnflagged) {
  // codec = Off must produce the exact pre-codec wire: every block's tag_len
  // high bit clear and the payload re-encodable via the reference codec.
  const std::uint64_t ints = 4096;
  dsm::GlobalSpace g(codec_gthv(ints), plat::linux_ia32());
  dsm::ShareStats st;
  dsm::SyncOptions opts;  // codec defaults to Off
  dsm::SyncEngine se(g, opts, st);
  EXPECT_FALSE(se.codec_engaged());

  g.region().begin_tracking();
  write_workload(g, ints, 1);
  const auto payload = se.pack_payload(se.collect_runs());
  g.region().end_tracking();

  for (const auto& v : dsm::decode_update_block_views(payload)) {
    EXPECT_FALSE(v.compressed);
  }
  const auto blocks = dsm::decode_update_blocks(payload);
  EXPECT_EQ(payload, dsm::encode_update_blocks(blocks));
  EXPECT_EQ(st.codec_blocks, 0u);
}

TEST(CodecEngine, ForcedShrinksPayloadAndApplies) {
  const std::uint64_t ints = 4096;
  dsm::GlobalSpace off_g(codec_gthv(ints), plat::linux_ia32());
  dsm::GlobalSpace on_g(codec_gthv(ints), plat::linux_ia32());
  dsm::ShareStats off_st, on_st;
  dsm::SyncOptions off_opts;
  dsm::SyncOptions on_opts;
  on_opts.codec = dsm::CodecMode::Forced;
  dsm::SyncEngine off_se(off_g, off_opts, off_st);
  dsm::SyncEngine on_se(on_g, on_opts, on_st);
  EXPECT_TRUE(on_se.codec_engaged());

  off_g.region().begin_tracking();
  write_workload(off_g, ints, 2);
  const auto raw_payload = off_se.pack_payload(off_se.collect_runs());
  off_g.region().end_tracking();

  on_g.region().begin_tracking();
  write_workload(on_g, ints, 2);
  const auto coded_payload = on_se.pack_payload(on_se.collect_runs());
  on_g.region().end_tracking();

  EXPECT_LT(coded_payload.size(), raw_payload.size());
  EXPECT_GT(on_st.codec_blocks, 0u);
  EXPECT_GT(on_st.codec_raw_bytes, on_st.codec_wire_bytes);

  // Same-ABI receiver reproduces the exact image the raw payload builds.
  dsm::GlobalSpace ra(codec_gthv(ints), plat::linux_ia32());
  dsm::GlobalSpace rb(codec_gthv(ints), plat::linux_ia32());
  dsm::ShareStats sa, sb;
  dsm::SyncEngine rea(ra, {}, sa), reb(rb, {}, sb);
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());
  rea.apply_payload(raw_payload, summary);
  reb.apply_payload(coded_payload, summary);
  EXPECT_GT(sb.codec_decoded_blocks, 0u);
  for (std::uint64_t i = 0; i < ints; ++i) {
    ASSERT_EQ(ra.view<std::int32_t>("A").get(i),
              rb.view<std::int32_t>("A").get(i))
        << "element " << i;
  }
  for (std::uint64_t i = 0; i < 256; ++i) {
    ASSERT_EQ(ra.view<double>("D").get(i), rb.view<double>("D").get(i));
  }
}

TEST(CodecEngine, ForcedCrossAbiApplies) {
  // Big-endian SPARC sender, little-endian IA-32 receiver: the codec
  // reproduces the sender's exact bytes, then the normal conversion path
  // runs — heterogeneity and compression compose.
  const std::uint64_t ints = 2048;
  dsm::GlobalSpace sender(codec_gthv(ints), plat::solaris_sparc32());
  dsm::GlobalSpace receiver(codec_gthv(ints), plat::linux_ia32());
  dsm::ShareStats ss, rs;
  dsm::SyncOptions sopts;
  sopts.codec = dsm::CodecMode::Forced;
  dsm::SyncEngine se(sender, sopts, ss), re(receiver, {}, rs);

  sender.region().begin_tracking();
  write_workload(sender, ints, 3);
  const auto payload = se.pack_payload(se.collect_runs());
  sender.region().end_tracking();
  ASSERT_GT(ss.codec_blocks, 0u);

  re.apply_payload(payload, msg::PlatformSummary::of(plat::solaris_sparc32()));
  auto a = receiver.view<std::int32_t>("A");
  for (std::uint64_t i = 0; i < ints; ++i) {
    ASSERT_EQ(a.get(i), static_cast<std::int32_t>(i * 3 + 3)) << i;
  }
  EXPECT_EQ(receiver.view<double>("D").get(8), 1.0 + 8 * 0.25 + 3);
}

TEST(CodecEngine, CorruptCompressedBlockRejectsWholePayload) {
  const std::uint64_t ints = 4096;
  dsm::GlobalSpace sender(codec_gthv(ints), plat::linux_ia32());
  dsm::ShareStats ss;
  dsm::SyncOptions sopts;
  sopts.codec = dsm::CodecMode::Forced;
  dsm::SyncEngine se(sender, sopts, ss);

  sender.region().begin_tracking();
  write_workload(sender, ints, 4);
  auto payload = se.pack_payload(se.collect_runs());
  sender.region().end_tracking();

  // Flip one bit inside the *last* compressed block's data, so every
  // earlier block validates fine — then assert none of them applied.
  const auto views = dsm::decode_update_block_views(payload);
  const dsm::UpdateBlockView* victim = nullptr;
  for (const auto& v : views) {
    if (v.compressed) victim = &v;
  }
  ASSERT_NE(victim, nullptr) << "no compressed block in forced payload";
  const std::size_t off =
      static_cast<std::size_t>(victim->data - payload.data()) +
      static_cast<std::size_t>(victim->data_len) / 2;
  payload[off] ^= std::byte{0x10};

  dsm::GlobalSpace receiver(codec_gthv(ints), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine re(receiver, {}, rs);
  EXPECT_THROW(
      re.apply_payload(payload, msg::PlatformSummary::of(plat::linux_ia32())),
      std::runtime_error);
  EXPECT_EQ(rs.codec_decode_rejects, 1u);
  // All-or-nothing: even the blocks before the corrupt one left no trace.
  for (std::uint64_t i = 0; i < ints; ++i) {
    ASSERT_EQ(receiver.view<std::int32_t>("A").get(i), 0) << "element " << i;
  }
  EXPECT_EQ(receiver.view<std::int32_t>("n").get(), 0);
}

TEST(CodecEngine, SmallRunsShipRawUnderForced) {
  dsm::GlobalSpace g(codec_gthv(64), plat::linux_ia32());
  dsm::ShareStats st;
  dsm::SyncOptions opts;
  opts.codec = dsm::CodecMode::Forced;
  dsm::SyncEngine se(g, opts, st);

  g.region().begin_tracking();
  g.view<std::int32_t>("n").set(9);  // 4-byte run, far below kMinEncodeBytes
  const auto payload = se.pack_payload(se.collect_runs());
  g.region().end_tracking();

  for (const auto& v : dsm::decode_update_block_views(payload)) {
    EXPECT_FALSE(v.compressed);
  }
  EXPECT_EQ(st.codec_blocks, 0u);

  dsm::GlobalSpace r(codec_gthv(64), plat::linux_ia32());
  dsm::ShareStats rs;
  dsm::SyncEngine re(r, {}, rs);
  re.apply_payload(payload, msg::PlatformSummary::of(plat::linux_ia32()));
  EXPECT_EQ(r.view<std::int32_t>("n").get(), 9);
}

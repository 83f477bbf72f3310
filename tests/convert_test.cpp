// Tests for the CGT-RMR conversion engine: scalar semantics (sign
// extension, width change, IEEE re-encoding), fast-path selection, and
// whole-image conversion with round-trip properties across every platform
// pair.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "convert/converter.hpp"
#include "convert/xdr.hpp"
#include "platform/float_codec.hpp"
#include "platform/int_codec.hpp"
#include "tags/layout.hpp"
#include "test_util.hpp"

namespace conv = hdsm::conv;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
using tags::FlatRun;
using tags::TypeDesc;

namespace {

std::vector<std::byte> make_image(const tags::Layout& l) {
  return std::vector<std::byte>(l.size);
}

}  // namespace

// ---- convert_run -----------------------------------------------------------

TEST(ConvertRun, SameRepresentationTakesMemcpyPath) {
  std::byte src[16], dst[16];
  for (int i = 0; i < 16; ++i) src[i] = static_cast<std::byte>(i);
  conv::ConversionStats stats;
  conv::convert_run(src, 4, plat::linux_ia32(), dst, 4, plat::linux_ia32(), 4,
                    FlatRun::Cat::SignedInt, plat::ScalarKind::Int,
                    &stats);
  EXPECT_EQ(std::memcmp(src, dst, 16), 0);
  EXPECT_EQ(stats.memcpy_runs, 1u);
  EXPECT_EQ(stats.bulk_swap_runs, 0u);
  EXPECT_EQ(stats.elementwise_runs, 0u);
}

TEST(ConvertRun, EndianFlipTakesBulkSwapPath) {
  std::byte src[8], dst[8];
  plat::write_sint(src, 4, plat::Endian::Little, 0x01020304);
  plat::write_sint(src + 4, 4, plat::Endian::Little, -7);
  conv::ConversionStats stats;
  conv::convert_run(src, 4, plat::linux_ia32(), dst, 4,
                    plat::solaris_sparc32(), 2, FlatRun::Cat::SignedInt,
                    plat::ScalarKind::Int, &stats);
  EXPECT_EQ(stats.bulk_swap_runs, 1u);
  EXPECT_EQ(plat::read_sint(dst, 4, plat::Endian::Big), 0x01020304);
  EXPECT_EQ(plat::read_sint(dst + 4, 4, plat::Endian::Big), -7);
}

TEST(ConvertRun, WideningSignExtends) {
  // long on IA-32 (4 bytes) -> long on LP64 (8 bytes).
  std::byte src[4], dst[8];
  plat::write_sint(src, 4, plat::Endian::Little, -123456);
  conv::ConversionStats stats;
  conv::convert_run(src, 4, plat::linux_ia32(), dst, 8, plat::linux_x86_64(),
                    1, FlatRun::Cat::SignedInt, plat::ScalarKind::Long,
                    &stats);
  EXPECT_EQ(stats.elementwise_runs, 1u);
  EXPECT_EQ(plat::read_sint(dst, 8, plat::Endian::Little), -123456);
}

TEST(ConvertRun, WideningZeroExtendsUnsigned) {
  std::byte src[4], dst[8];
  plat::write_uint(src, 4, plat::Endian::Big, 0xfffffffeu);
  conv::convert_run(src, 4, plat::solaris_sparc32(), dst, 8,
                    plat::solaris_sparc64(), 1, FlatRun::Cat::UnsignedInt,
                    plat::ScalarKind::ULong);
  EXPECT_EQ(plat::read_uint(dst, 8, plat::Endian::Big), 0xfffffffeull);
}

TEST(ConvertRun, NarrowingTruncates) {
  std::byte src[8], dst[4];
  plat::write_sint(src, 8, plat::Endian::Little, -42);  // fits
  conv::convert_run(src, 8, plat::linux_x86_64(), dst, 4, plat::linux_ia32(),
                    1, FlatRun::Cat::SignedInt, plat::ScalarKind::Long);
  EXPECT_EQ(plat::read_sint(dst, 4, plat::Endian::Little), -42);
}

TEST(ConvertRun, FloatAcrossSizesAndFormats) {
  const double v = -1234.015625;  // exactly representable
  // IA-32 x87 long double (12 bytes LE) -> SPARC binary128 (16 bytes BE).
  std::byte src[12], dst[16];
  plat::encode_float(v, src, 12, plat::Endian::Little,
                     plat::LongDoubleFormat::X87Extended);
  conv::ConversionStats stats;
  conv::convert_run(src, 12, plat::linux_ia32(), dst, 16,
                    plat::solaris_sparc32(), 1, FlatRun::Cat::Float,
                    plat::ScalarKind::LongDouble, &stats);
  EXPECT_EQ(stats.elementwise_runs, 1u);
  EXPECT_EQ(plat::decode_float(dst, 16, plat::Endian::Big,
                               plat::LongDoubleFormat::Binary128),
            v);
}

TEST(ConvertRun, SameSizeDifferentLongDoubleFormatGoesElementwise) {
  // x86-64 x87-in-16 vs SPARC64 binary128: same size, both need re-encode.
  const double v = 3.5;
  std::byte src[16], dst[16];
  plat::encode_float(v, src, 16, plat::Endian::Little,
                     plat::LongDoubleFormat::X87Extended);
  conv::ConversionStats stats;
  conv::convert_run(src, 16, plat::linux_x86_64(), dst, 16,
                    plat::solaris_sparc64(), 1, FlatRun::Cat::Float,
                    plat::ScalarKind::LongDouble, &stats);
  EXPECT_EQ(stats.elementwise_runs, 1u);
  EXPECT_EQ(plat::decode_float(dst, 16, plat::Endian::Big,
                               plat::LongDoubleFormat::Binary128),
            v);
}

TEST(ConvertRun, StatsCountBytes) {
  std::byte src[8], dst[16];
  conv::ConversionStats stats;
  conv::convert_run(src, 4, plat::linux_ia32(), dst, 8, plat::linux_x86_64(),
                    2, FlatRun::Cat::SignedInt, plat::ScalarKind::Long,
                    &stats);
  EXPECT_EQ(stats.bytes_in, 8u);
  EXPECT_EQ(stats.bytes_out, 16u);
}

// ---- convert_image ---------------------------------------------------------

TEST(ConvertImage, HomogeneousIsWholeMemcpy) {
  auto t = TypeDesc::struct_of("S", {{"a", TypeDesc::array(tags::t_int(), 8)},
                                     {"d", tags::t_double()}});
  const tags::Layout l = tags::compute_layout(t, plat::linux_ia32());
  std::vector<std::byte> src = make_image(l);
  std::mt19937_64 rng(1);
  hdsm::test::fill_random_image(src.data(), l, rng);
  std::vector<std::byte> dst = make_image(l);
  conv::ConversionStats stats;
  conv::convert_image(src.data(), l, dst.data(), l, &stats);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(stats.memcpy_runs, 1u);
}

TEST(ConvertImage, MismatchedShapesRejected) {
  auto a = TypeDesc::struct_of("A", {{"x", tags::t_int()}});
  auto b = TypeDesc::struct_of(
      "B", {{"x", tags::t_int()}, {"y", tags::t_int()}});
  const tags::Layout la = tags::compute_layout(a, plat::linux_ia32());
  const tags::Layout lb = tags::compute_layout(b, plat::solaris_sparc32());
  std::vector<std::byte> src = make_image(la);
  std::vector<std::byte> dst = make_image(lb);
  EXPECT_THROW(conv::convert_image(src.data(), la, dst.data(), lb),
               std::invalid_argument);
  EXPECT_FALSE(conv::convertible(la, lb));
}

TEST(ConvertImage, ConvertibleAcceptsReorderedPadding) {
  auto t = TypeDesc::struct_of("S", {{"i", tags::t_int()},
                                     {"d", tags::t_double()}});
  const tags::Layout ia32 = tags::compute_layout(t, plat::linux_ia32());
  const tags::Layout sparc = tags::compute_layout(t, plat::solaris_sparc32());
  // ia32 has no padding run, sparc has one between the fields.
  EXPECT_TRUE(conv::convertible(ia32, sparc));
}

struct PlatformPair {
  const plat::PlatformDesc* a;
  const plat::PlatformDesc* b;
};

class ImageRoundTrip : public ::testing::TestWithParam<PlatformPair> {};

TEST_P(ImageRoundTrip, RandomImagesSurviveThereAndBack) {
  const auto [pa, pb] = GetParam();
  std::mt19937_64 rng(2024);
  for (int iter = 0; iter < 60; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    const tags::Layout la = tags::compute_layout(t, *pa);
    const tags::Layout lb = tags::compute_layout(t, *pb);
    std::vector<std::byte> src = make_image(la);
    hdsm::test::fill_random_image(src.data(), la, rng);

    std::vector<std::byte> mid = make_image(lb);
    conv::convert_image(src.data(), la, mid.data(), lb);
    std::vector<std::byte> back = make_image(la);
    conv::convert_image(mid.data(), lb, back.data(), la);

    // Compare data runs only (src padding may be nonzero noise; the
    // round-trip normalizes padding to zero).
    for (const tags::FlatRun& run : la.runs) {
      if (run.cat == FlatRun::Cat::Padding) continue;
      EXPECT_EQ(std::memcmp(src.data() + run.offset, back.data() + run.offset,
                            run.byte_length()),
                0)
          << t->to_string() << " " << pa->name << "<->" << pb->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ImageRoundTrip,
    ::testing::Values(
        PlatformPair{&plat::linux_ia32(), &plat::solaris_sparc32()},
        PlatformPair{&plat::linux_ia32(), &plat::linux_x86_64()},
        PlatformPair{&plat::solaris_sparc32(), &plat::solaris_sparc64()},
        PlatformPair{&plat::linux_x86_64(), &plat::solaris_sparc64()},
        PlatformPair{&plat::exotic_packed_be(), &plat::exotic_wide_le()},
        PlatformPair{&plat::linux_ia32(), &plat::exotic_packed_be()},
        PlatformPair{&plat::windows_x64(), &plat::linux_x86_64()},
        PlatformPair{&plat::windows_x64(), &plat::mips64_be()},
        PlatformPair{&plat::mips64_be(), &plat::linux_ia32()}));

TEST(ConvertRun, Llp64LongVsLp64Long) {
  // long: 4 bytes on windows-x64, 8 on linux-x86-64 — same endianness,
  // width change both directions.
  std::byte narrow[4], wide[8];
  plat::write_sint(narrow, 4, plat::Endian::Little, -2021);
  conv::convert_run(narrow, 4, plat::windows_x64(), wide, 8,
                    plat::linux_x86_64(), 1, FlatRun::Cat::SignedInt,
                    plat::ScalarKind::Long);
  EXPECT_EQ(plat::read_sint(wide, 8, plat::Endian::Little), -2021);
  conv::convert_run(wide, 8, plat::linux_x86_64(), narrow, 4,
                    plat::windows_x64(), 1, FlatRun::Cat::SignedInt,
                    plat::ScalarKind::Long);
  EXPECT_EQ(plat::read_sint(narrow, 4, plat::Endian::Little), -2021);
}

TEST(ConvertImage, ValuesSurviveSemantically) {
  auto t = TypeDesc::struct_of("S", {{"p", TypeDesc::pointer()},
                                     {"l", tags::t_long()},
                                     {"d", tags::t_double()},
                                     {"ld", tags::t_longdouble()},
                                     {"c", tags::t_char()}});
  const tags::Layout src_l = tags::compute_layout(t, plat::linux_ia32());
  const tags::Layout dst_l = tags::compute_layout(t, plat::solaris_sparc64());

  std::vector<std::byte> src = make_image(src_l);
  // Fill through codecs on the source platform.
  const auto field_ptr = [&](std::size_t i) {
    return src.data() + src_l.field_offsets[i];
  };
  plat::write_uint(field_ptr(0), 4, plat::Endian::Little, 0x1234);
  plat::write_sint(field_ptr(1), 4, plat::Endian::Little, -99);
  plat::encode_float(2.75, field_ptr(2), 8, plat::Endian::Little,
                     plat::LongDoubleFormat::Binary64);
  plat::encode_float(-8.125, field_ptr(3), 12, plat::Endian::Little,
                     plat::LongDoubleFormat::X87Extended);
  plat::write_sint(field_ptr(4), 1, plat::Endian::Little, -5);

  std::vector<std::byte> dst = make_image(dst_l);
  conv::convert_image(src.data(), src_l, dst.data(), dst_l);

  const auto dfield = [&](std::size_t i) {
    return dst.data() + dst_l.field_offsets[i];
  };
  EXPECT_EQ(plat::read_uint(dfield(0), 8, plat::Endian::Big), 0x1234u);
  EXPECT_EQ(plat::read_sint(dfield(1), 8, plat::Endian::Big), -99);
  EXPECT_EQ(plat::decode_float(dfield(2), 8, plat::Endian::Big,
                               plat::LongDoubleFormat::Binary64),
            2.75);
  EXPECT_EQ(plat::decode_float(dfield(3), 16, plat::Endian::Big,
                               plat::LongDoubleFormat::Binary128),
            -8.125);
  EXPECT_EQ(plat::read_sint(dfield(4), 1, plat::Endian::Big), -5);
}

// ---- XDR baseline ----------------------------------------------------------

TEST(Xdr, CanonicalSizesAreKindBasedAndPlatformFree) {
  using SK = plat::ScalarKind;
  EXPECT_EQ(conv::xdr_elem_size(SK::Char), 4u);
  EXPECT_EQ(conv::xdr_elem_size(SK::Short), 4u);
  EXPECT_EQ(conv::xdr_elem_size(SK::Int), 4u);
  EXPECT_EQ(conv::xdr_elem_size(SK::Long), 8u);
  EXPECT_EQ(conv::xdr_elem_size(SK::LongLong), 8u);
  EXPECT_EQ(conv::xdr_elem_size(SK::Float), 4u);
  EXPECT_EQ(conv::xdr_elem_size(SK::Double), 8u);
  EXPECT_EQ(conv::xdr_elem_size(SK::LongDouble), 8u);
  EXPECT_EQ(conv::xdr_elem_size(SK::Pointer), 8u);
}

TEST(Xdr, CanonicalFormIsBigEndianWidened) {
  // int 1 from a little-endian machine -> 00 00 00 01 on the wire.
  std::byte src[4];
  plat::write_sint(src, 4, plat::Endian::Little, 1);
  std::vector<std::byte> wire;
  conv::xdr_encode_run(src, 4, plat::linux_ia32(), 1,
                       FlatRun::Cat::SignedInt, plat::ScalarKind::Int, wire);
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(wire[0]), 0);
  EXPECT_EQ(std::to_integer<int>(wire[3]), 1);

  // char -128 widens to 4 canonical bytes, sign-extended.
  std::byte c[1];
  plat::write_sint(c, 1, plat::Endian::Little, -128);
  wire.clear();
  conv::xdr_encode_run(c, 1, plat::linux_ia32(), 1, FlatRun::Cat::SignedInt,
                       plat::ScalarKind::Char, wire);
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(plat::read_sint(wire.data(), 4, plat::Endian::Big), -128);
}

TEST(Xdr, RunRoundTripAcrossWidths) {
  // IA-32 long (4 bytes) -> canonical hyper (8) -> SPARC64 long (8 bytes).
  std::byte src[8];
  plat::write_sint(src, 4, plat::Endian::Little, -123456);
  plat::write_sint(src + 4, 4, plat::Endian::Little, 99);
  std::vector<std::byte> wire;
  conv::xdr_encode_run(src, 4, plat::linux_ia32(), 2, FlatRun::Cat::SignedInt,
                       plat::ScalarKind::Long, wire);
  EXPECT_EQ(wire.size(), 16u);
  std::byte dst[16];
  const std::size_t used =
      conv::xdr_decode_run(wire.data(), wire.size(), dst, 8,
                           plat::solaris_sparc64(), 2,
                           FlatRun::Cat::SignedInt, plat::ScalarKind::Long);
  EXPECT_EQ(used, 16u);
  EXPECT_EQ(plat::read_sint(dst, 8, plat::Endian::Big), -123456);
  EXPECT_EQ(plat::read_sint(dst + 8, 8, plat::Endian::Big), 99);
}

TEST(Xdr, DecodeRejectsTruncation) {
  std::byte wire[4] = {};
  std::byte dst[8];
  EXPECT_THROW(conv::xdr_decode_run(wire, 4, dst, 4, plat::linux_ia32(), 2,
                                    FlatRun::Cat::SignedInt,
                                    plat::ScalarKind::Int),
               std::invalid_argument);
}

TEST(Xdr, ImageRoundTripMatchesRmrResultProperty) {
  // Transferring via XDR and via RMR must land identical logical values.
  std::mt19937_64 rng(2026);
  for (int iter = 0; iter < 60; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    const tags::Layout sl = tags::compute_layout(t, plat::solaris_sparc32());
    const tags::Layout dl = tags::compute_layout(t, plat::linux_x86_64());
    std::vector<std::byte> src(sl.size);
    hdsm::test::fill_random_image(src.data(), sl, rng);

    std::vector<std::byte> via_rmr(dl.size);
    conv::convert_image(src.data(), sl, via_rmr.data(), dl);

    std::vector<std::byte> via_xdr(dl.size);
    conv::xdr_decode_image(conv::xdr_encode_image(src.data(), sl),
                           via_xdr.data(), dl);
    EXPECT_EQ(via_rmr, via_xdr) << t->to_string();
  }
}

TEST(Xdr, CanonicalImageWiderThanNativeForSmallScalars) {
  auto t = TypeDesc::struct_of(
      "S", {{"chars", TypeDesc::array(tags::t_char(), 100)}});
  const tags::Layout l = tags::compute_layout(t, plat::linux_ia32());
  std::vector<std::byte> src(l.size);
  EXPECT_EQ(conv::xdr_encode_image(src.data(), l).size(), 400u);  // 4x blowup
}

TEST(Xdr, TrailingBytesRejected) {
  auto t = TypeDesc::struct_of("S", {{"i", tags::t_int()}});
  const tags::Layout l = tags::compute_layout(t, plat::linux_ia32());
  std::vector<std::byte> canonical(8);  // one int needs only 4
  std::vector<std::byte> dst(l.size);
  EXPECT_THROW(conv::xdr_decode_image(canonical, dst.data(), l),
               std::invalid_argument);
}

TEST(ConvertImage, DestinationPaddingZeroed) {
  auto t = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                     {"d", tags::t_double()}});
  const tags::Layout la = tags::compute_layout(t, plat::linux_ia32());
  const tags::Layout lb = tags::compute_layout(t, plat::solaris_sparc32());
  std::vector<std::byte> src = make_image(la);
  std::vector<std::byte> dst(lb.size, std::byte{0xAA});
  conv::convert_image(src.data(), la, dst.data(), lb);
  for (const tags::FlatRun& run : lb.runs) {
    if (run.cat != FlatRun::Cat::Padding) continue;
    for (std::uint64_t i = 0; i < run.byte_length(); ++i) {
      EXPECT_EQ(std::to_integer<int>(dst[run.offset + i]), 0);
    }
  }
}

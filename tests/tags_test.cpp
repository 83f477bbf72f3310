// Unit and property tests for TypeDesc, per-platform layout, and the
// CGT-RMR (m,n) tag grammar — including byte-exact reproduction of the
// paper's Figure 3 tag strings.
#include <gtest/gtest.h>

#include <random>

#include "tags/describe.hpp"
#include "tags/layout.hpp"
#include "tags/tag.hpp"
#include "tags/type_desc.hpp"
#include "test_util.hpp"

namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
using tags::TypeDesc;

// ---- TypeDesc --------------------------------------------------------------

TEST(TypeDesc, BuildersAndAccessors) {
  auto s = tags::t_int();
  EXPECT_EQ(s->kind(), TypeDesc::Kind::Scalar);
  EXPECT_EQ(s->scalar_kind(), plat::ScalarKind::Int);

  auto a = TypeDesc::array(tags::t_double(), 10);
  EXPECT_EQ(a->kind(), TypeDesc::Kind::Array);
  EXPECT_EQ(a->count(), 10u);
  EXPECT_EQ(a->leaf_count(), 10u);

  auto st = TypeDesc::struct_of(
      "S", {{"p", TypeDesc::pointer()}, {"a", a}, {"n", tags::t_int()}});
  EXPECT_EQ(st->kind(), TypeDesc::Kind::Struct);
  EXPECT_EQ(st->fields().size(), 3u);
  EXPECT_EQ(st->leaf_count(), 12u);
  EXPECT_EQ(st->to_string(), "struct S{void* p; double[10] a; int n}");
}

TEST(TypeDesc, PointerScalarKindNormalizes) {
  auto p = TypeDesc::scalar(plat::ScalarKind::Pointer);
  EXPECT_EQ(p->kind(), TypeDesc::Kind::Pointer);
}

TEST(TypeDesc, InvalidConstructionsThrow) {
  EXPECT_THROW(TypeDesc::array(nullptr, 3), std::invalid_argument);
  EXPECT_THROW(TypeDesc::array(tags::t_int(), 0), std::invalid_argument);
  EXPECT_THROW(TypeDesc::struct_of("S", {}), std::invalid_argument);
  EXPECT_THROW(TypeDesc::reserved(0), std::invalid_argument);
}

TEST(TypeDesc, SameShapeIgnoresNames) {
  auto a = TypeDesc::struct_of("A", {{"x", tags::t_int()}});
  auto b = TypeDesc::struct_of("B", {{"y", tags::t_int()}});
  auto c = TypeDesc::struct_of("C", {{"x", tags::t_long()}});
  EXPECT_TRUE(a->same_shape(*b));
  EXPECT_FALSE(a->same_shape(*c));
}

// ---- layout ----------------------------------------------------------------

TEST(Layout, ScalarSizesFollowPlatform) {
  EXPECT_EQ(tags::size_of(*tags::t_long(), plat::linux_ia32()), 4u);
  EXPECT_EQ(tags::size_of(*tags::t_long(), plat::linux_x86_64()), 8u);
  EXPECT_EQ(tags::size_of(*tags::t_longdouble(), plat::linux_ia32()), 12u);
  EXPECT_EQ(tags::size_of(*tags::t_longdouble(), plat::solaris_sparc32()),
            16u);
}

TEST(Layout, CharIntPaddingPerPlatform) {
  auto t = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                     {"i", tags::t_int()}});
  // Natural alignment: char at 0, 3 pad bytes, int at 4.
  EXPECT_EQ(tags::size_of(*t, plat::linux_ia32()), 8u);
  // The packed ABI aligns int to 2: char, 1 pad, int at 2 -> size 6.
  EXPECT_EQ(tags::size_of(*t, plat::exotic_packed_be()), 6u);
}

TEST(Layout, Ia32DoubleAlignmentQuirk) {
  auto t = TypeDesc::struct_of("S", {{"i", tags::t_int()},
                                     {"d", tags::t_double()}});
  // IA-32 aligns double to 4: no padding, size 12.
  EXPECT_EQ(tags::size_of(*t, plat::linux_ia32()), 12u);
  // SPARC aligns double to 8: 4 bytes padding, size 16.
  EXPECT_EQ(tags::size_of(*t, plat::solaris_sparc32()), 16u);
}

TEST(Layout, TrailingStructPadding) {
  auto t = TypeDesc::struct_of("S", {{"d", tags::t_double()},
                                     {"c", tags::t_char()}});
  EXPECT_EQ(tags::size_of(*t, plat::solaris_sparc32()), 16u);
  const tags::Layout l = tags::compute_layout(t, plat::solaris_sparc32());
  ASSERT_EQ(l.runs.size(), 3u);
  EXPECT_EQ(l.runs[2].cat, tags::FlatRun::Cat::Padding);
  EXPECT_EQ(l.runs[2].offset, 9u);
  EXPECT_EQ(l.runs[2].byte_length(), 7u);
}

TEST(Layout, FieldOffsetsRecorded) {
  auto t = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                     {"i", tags::t_int()},
                                     {"d", tags::t_double()}});
  const tags::Layout l = tags::compute_layout(t, plat::solaris_sparc32());
  ASSERT_EQ(l.field_offsets.size(), 3u);
  EXPECT_EQ(l.field_offsets[0], 0u);
  EXPECT_EQ(l.field_offsets[1], 4u);
  EXPECT_EQ(l.field_offsets[2], 8u);
}

TEST(Layout, ArrayOfStructsRepeatsElementRuns) {
  auto elem = TypeDesc::struct_of("E", {{"c", tags::t_char()},
                                        {"i", tags::t_int()}});
  auto arr = TypeDesc::array(elem, 3);
  const tags::Layout l = tags::compute_layout(arr, plat::linux_ia32());
  EXPECT_EQ(l.size, 24u);
  // Per element: char run, padding, int run -> 9 runs.
  EXPECT_EQ(l.runs.size(), 9u);
  EXPECT_EQ(l.runs[3].offset, 8u);  // second element's char
}

TEST(Layout, RunAtFindsContainingRun) {
  auto t = TypeDesc::struct_of("S", {{"a", TypeDesc::array(tags::t_int(), 4)},
                                     {"d", tags::t_double()}});
  const tags::Layout l = tags::compute_layout(t, plat::solaris_sparc32());
  EXPECT_EQ(l.runs[l.run_at(0)].kind, plat::ScalarKind::Int);
  EXPECT_EQ(l.runs[l.run_at(15)].kind, plat::ScalarKind::Int);
  EXPECT_EQ(l.runs[l.run_at(16)].kind, plat::ScalarKind::Double);
  EXPECT_THROW(l.run_at(l.size), std::out_of_range);
}

TEST(Layout, RunsAreGapFreeCoverProperty) {
  std::mt19937_64 rng(7);
  const plat::PlatformDesc* platforms[] = {
      &plat::linux_ia32(), &plat::solaris_sparc32(), &plat::linux_x86_64(),
      &plat::solaris_sparc64(), &plat::exotic_packed_be(),
      &plat::exotic_wide_le()};
  for (int iter = 0; iter < 200; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    for (const plat::PlatformDesc* p : platforms) {
      const tags::Layout l = tags::compute_layout(t, *p);
      std::uint64_t cursor = 0;
      for (const tags::FlatRun& run : l.runs) {
        EXPECT_EQ(run.offset, cursor) << t->to_string() << " on " << p->name;
        cursor = run.end();
      }
      EXPECT_EQ(cursor, l.size) << t->to_string() << " on " << p->name;
    }
  }
}

TEST(Layout, NonPaddingRunShapeIsPlatformInvariantProperty) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    const tags::Layout a = tags::compute_layout(t, plat::linux_ia32());
    const tags::Layout b = tags::compute_layout(t, plat::solaris_sparc64());
    std::vector<const tags::FlatRun*> ra, rb;
    for (const auto& r : a.runs) {
      if (r.cat != tags::FlatRun::Cat::Padding) ra.push_back(&r);
    }
    for (const auto& r : b.runs) {
      if (r.cat != tags::FlatRun::Cat::Padding) rb.push_back(&r);
    }
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i]->cat, rb[i]->cat);
      EXPECT_EQ(ra[i]->count, rb[i]->count);
    }
  }
}

// ---- tags ------------------------------------------------------------------

TEST(Tag, Figure3MThVString) {
  // The paper's MThV example: a pointer, two ints, and an 8-byte reserved
  // slot, on the Linux/IA-32 machine of the testbed.
  auto mthv = TypeDesc::struct_of("MThV",
                                  {{"stack_ptr", TypeDesc::pointer()},
                                   {"step", tags::t_int()},
                                   {"rank", tags::t_int()},
                                   {"reserved", TypeDesc::reserved(8)}});
  const tags::Tag tag = tags::make_tag(*mthv, plat::linux_ia32());
  EXPECT_EQ(tag.to_string(), "(4,-1)(0,0)(4,1)(0,0)(4,1)(0,0)(8,0)(0,0)");
}

TEST(Tag, Figure3MThPString) {
  auto mthp = TypeDesc::struct_of(
      "MThP", {{"p1", TypeDesc::pointer()}, {"p2", TypeDesc::pointer()}});
  const tags::Tag tag = tags::make_tag(*mthp, plat::linux_ia32());
  EXPECT_EQ(tag.to_string(), "(4,-1)(0,0)(4,-1)(0,0)");
}

TEST(Tag, SameStructDifferentPlatformDifferentTag) {
  auto t = TypeDesc::struct_of("S", {{"p", TypeDesc::pointer()},
                                     {"x", tags::t_long()}});
  const std::string ia32 = tags::make_tag(*t, plat::linux_ia32()).to_string();
  const std::string lp64 =
      tags::make_tag(*t, plat::linux_x86_64()).to_string();
  EXPECT_EQ(ia32, "(4,-1)(0,0)(4,1)(0,0)");
  EXPECT_EQ(lp64, "(8,-1)(0,0)(8,1)(0,0)");
  EXPECT_NE(ia32, lp64);  // tag comparison detects heterogeneity
}

TEST(Tag, HomogeneousPlatformsProduceEqualTagsProperty) {
  std::mt19937_64 rng(99);
  plat::PlatformDesc renamed = plat::solaris_sparc32();
  renamed.name = "other-sparc";
  for (int iter = 0; iter < 100; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    EXPECT_EQ(tags::make_tag(*t, plat::solaris_sparc32()).to_string(),
              tags::make_tag(*t, renamed).to_string());
  }
}

TEST(Tag, PaddingBecomesExplicitTuple) {
  auto t = TypeDesc::struct_of("S", {{"c", tags::t_char()},
                                     {"i", tags::t_int()}});
  EXPECT_EQ(tags::make_tag(*t, plat::linux_ia32()).to_string(),
            "(1,1)(3,0)(4,1)(0,0)");
  EXPECT_EQ(tags::make_tag(*t, plat::exotic_packed_be()).to_string(),
            "(1,1)(1,0)(4,1)(0,0)");
}

TEST(Tag, ArraysCollapseToOneTuple) {
  auto t = TypeDesc::struct_of(
      "S", {{"a", TypeDesc::array(tags::t_int(), 56169)}});
  EXPECT_EQ(tags::make_tag(*t, plat::linux_ia32()).to_string(),
            "(4,56169)(0,0)");
}

TEST(Tag, NestedAggregateSyntax) {
  auto inner = TypeDesc::struct_of("I", {{"c", tags::t_char()},
                                         {"s", tags::t_short()}});
  auto t = TypeDesc::struct_of("S", {{"arr", TypeDesc::array(inner, 3)},
                                     {"n", tags::t_int()}});
  // Inner: char, 1 pad, short, no trailing pad (size 4, align 2).
  EXPECT_EQ(tags::make_tag(*t, plat::linux_ia32()).to_string(),
            "((1,1)(1,0)(2,1)(0,0),3)(0,0)(4,1)(0,0)");
}

TEST(Tag, DescribedBytesEqualsLayoutSizeProperty) {
  std::mt19937_64 rng(31337);
  const plat::PlatformDesc* platforms[] = {
      &plat::linux_ia32(), &plat::solaris_sparc32(), &plat::linux_x86_64(),
      &plat::exotic_packed_be()};
  for (int iter = 0; iter < 300; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    for (const plat::PlatformDesc* p : platforms) {
      EXPECT_EQ(tags::make_tag(*t, *p).described_bytes(),
                tags::size_of(*t, *p))
          << t->to_string() << " on " << p->name;
    }
  }
}

TEST(Tag, ParseRoundTripProperty) {
  std::mt19937_64 rng(555);
  for (int iter = 0; iter < 300; ++iter) {
    const tags::TypePtr t = hdsm::test::random_type(rng);
    const tags::Tag tag = tags::make_tag(*t, plat::solaris_sparc64());
    const std::string text = tag.to_string();
    const tags::Tag back = tags::Tag::parse(text);
    EXPECT_EQ(back, tag);
    EXPECT_EQ(back.to_string(), text);
  }
}

TEST(Tag, ParseRejectsMalformedInput) {
  EXPECT_THROW(tags::Tag::parse("(4,1"), std::invalid_argument);
  EXPECT_THROW(tags::Tag::parse("(4;1)"), std::invalid_argument);
  EXPECT_THROW(tags::Tag::parse("(x,1)"), std::invalid_argument);
  EXPECT_THROW(tags::Tag::parse("(4,1)junk"), std::invalid_argument);
  EXPECT_THROW(tags::Tag::parse("(4,-0)"), std::invalid_argument);
  EXPECT_THROW(tags::Tag::parse("((4,1)"), std::invalid_argument);
  EXPECT_NO_THROW(tags::Tag::parse(""));
  EXPECT_NO_THROW(tags::Tag::parse("(0,0)"));
}

TEST(Tag, RunTags) {
  EXPECT_EQ(tags::make_run_tag(4, 120, false).to_string(), "(4,120)");
  EXPECT_EQ(tags::make_run_tag(8, 3, true).to_string(), "(8,-3)");
}

TEST(Tag, AppendRunTagMatchesMakeRunTag) {
  // The send side renders run tags straight into a shared buffer; its bytes
  // must be exactly what the Tag object path produces, across every
  // digit-count boundary of the count.
  constexpr std::uint64_t kCounts[] = {
      1, 9, 10, 99, 100, (1ull << 32) - 1, 1ull << 32, UINT64_MAX};
  for (const std::uint32_t size : {1u, 2u, 4u, 8u, 12u, 16u}) {
    for (const std::uint64_t count : kCounts) {
      for (const bool pointer : {false, true}) {
        const tags::Tag tag = tags::make_run_tag(size, count, pointer);
        std::string text = "prefix";
        tags::append_run_tag(text, size, count, pointer);
        EXPECT_EQ(text, "prefix" + tag.to_string());
      }
    }
  }
  std::string max;
  tags::append_run_tag(max, 16, UINT64_MAX, true);
  EXPECT_EQ(max, "(16,-18446744073709551615)");
}

TEST(Tag, StridedRunTagIsAnAggregateWithAPaddingSlot) {
  // §3.2's aggregate: one element, then (stride - 1) elements' worth of
  // padding, n times.  It parses back to that shape, and its described
  // bytes are n element-plus-slot pairs.
  std::string text;
  tags::append_run_tag(text, 8, 128, false, 2);
  EXPECT_EQ(text, "((8,1)(8,0),128)");
  const tags::Tag tag = tags::Tag::parse(text);
  ASSERT_EQ(tag.items().size(), 1u);
  const tags::TagItem& agg = tag.items()[0];
  EXPECT_EQ(agg.kind, tags::TagItem::Kind::Aggregate);
  EXPECT_EQ(agg.count, 128u);
  ASSERT_EQ(agg.children.size(), 2u);
  EXPECT_EQ(agg.children[0], tags::make_run_tag(8, 1, false).items()[0]);
  EXPECT_EQ(agg.children[1].kind, tags::TagItem::Kind::Padding);
  EXPECT_EQ(tag.described_bytes(), 128u * 16);
  std::string ptr = "x";
  tags::append_run_tag(ptr, 4, 3, true, 4);
  EXPECT_EQ(ptr, "x((4,-1)(12,0),3)");
  std::string one;
  tags::append_run_tag(one, 4, 3, false, 1);
  EXPECT_EQ(one, "(4,3)");
}

TEST(Tag, PointerRunsCountNegatedButStoredPositive) {
  const tags::Tag t = tags::Tag::parse("(4,-7)");
  ASSERT_EQ(t.items().size(), 1u);
  EXPECT_EQ(t.items()[0].kind, tags::TagItem::Kind::Pointer);
  EXPECT_EQ(t.items()[0].count, 7u);
}

// ---- describe builder --------------------------------------------------------

TEST(Describe, ScalarKindsDeducted) {
  EXPECT_EQ(tags::scalar_kind_of<int>(), plat::ScalarKind::Int);
  EXPECT_EQ(tags::scalar_kind_of<unsigned long>(), plat::ScalarKind::ULong);
  EXPECT_EQ(tags::scalar_kind_of<long long>(), plat::ScalarKind::LongLong);
  EXPECT_EQ(tags::scalar_kind_of<float>(), plat::ScalarKind::Float);
  EXPECT_EQ(tags::scalar_kind_of<long double>(),
            plat::ScalarKind::LongDouble);
  EXPECT_EQ(tags::scalar_kind_of<const char>(), plat::ScalarKind::Char);
  EXPECT_EQ(tags::scalar_kind_of<bool>(), plat::ScalarKind::Bool);
}

TEST(Describe, DescribePointerAndScalar) {
  EXPECT_EQ(tags::describe<void*>()->kind(), TypeDesc::Kind::Pointer);
  EXPECT_EQ(tags::describe<double>()->scalar_kind(),
            plat::ScalarKind::Double);
}

TEST(Describe, BuilderReproducesFigure4) {
  const std::uint64_t nn = 237 * 237;
  tags::TypePtr by_builder = tags::describe_struct("GThV_t")
                                 .pointer("GThP")
                                 .array<int>("A", nn)
                                 .array<int>("B", nn)
                                 .array<int>("C", nn)
                                 .field<int>("n")
                                 .build();
  tags::TypePtr by_hand = TypeDesc::struct_of(
      "GThV_t", {{"GThP", TypeDesc::pointer()},
                 {"A", TypeDesc::array(tags::t_int(), nn)},
                 {"B", TypeDesc::array(tags::t_int(), nn)},
                 {"C", TypeDesc::array(tags::t_int(), nn)},
                 {"n", tags::t_int()}});
  EXPECT_TRUE(by_builder->same_shape(*by_hand));
  EXPECT_EQ(tags::make_tag(*by_builder, plat::linux_ia32()).to_string(),
            tags::make_tag(*by_hand, plat::linux_ia32()).to_string());
}

TEST(Describe, BuilderSupportsReservedAndNested) {
  tags::TypePtr inner = tags::describe_struct("inner")
                            .field<char>("c")
                            .field<short>("s")
                            .build();
  tags::TypePtr outer = tags::describe_struct("outer")
                            .nested("pair", TypeDesc::array(inner, 2))
                            .reserved(8)
                            .field<long double>("ld")
                            .build();
  EXPECT_EQ(outer->fields().size(), 3u);
  EXPECT_EQ(tags::make_tag(*outer, plat::linux_ia32()).to_string(),
            "((1,1)(1,0)(2,1)(0,0),2)(0,0)(8,0)(0,0)(12,1)(0,0)");
}

TEST(Tag, GThVTableExampleTag) {
  // The Figure 4 structure on Linux/IA-32 (the Table 1 machine).
  const std::uint64_t nn = 237 * 237;
  auto gthv = TypeDesc::struct_of(
      "GThV_t", {{"GThP", TypeDesc::pointer()},
                 {"A", TypeDesc::array(tags::t_int(), nn)},
                 {"B", TypeDesc::array(tags::t_int(), nn)},
                 {"C", TypeDesc::array(tags::t_int(), nn)},
                 {"n", tags::t_int()}});
  EXPECT_EQ(tags::make_tag(*gthv, plat::linux_ia32()).to_string(),
            "(4,-1)(0,0)(4,56169)(0,0)(4,56169)(0,0)(4,56169)(0,0)(4,1)(0,0)");
}

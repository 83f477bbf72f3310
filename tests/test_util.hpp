// Shared test helpers: random TypeDesc generation, random typed-image
// filling, and a scope guard for tests that own threads.
#pragma once

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "platform/float_codec.hpp"
#include "platform/int_codec.hpp"
#include "tags/layout.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::test {

/// Runs `fn` when the scope ends, on every exit path.  A test that starts
/// a thread uses it to unblock and join that thread, so a failed ASSERT
/// reports a failure instead of reaching std::terminate or a hang.
template <typename Fn>
struct OnExit {
  Fn fn;
  ~OnExit() { fn(); }
};

/// A random TypeDesc of bounded depth/size: scalars, pointers, arrays,
/// nested structs, reserved slots.
inline tags::TypePtr random_type(std::mt19937_64& rng, int depth = 0) {
  using tags::TypeDesc;
  const plat::ScalarKind kinds[] = {
      plat::ScalarKind::Char,   plat::ScalarKind::UChar,
      plat::ScalarKind::Short,  plat::ScalarKind::UShort,
      plat::ScalarKind::Int,    plat::ScalarKind::UInt,
      plat::ScalarKind::Long,   plat::ScalarKind::ULong,
      plat::ScalarKind::LongLong, plat::ScalarKind::ULongLong,
      plat::ScalarKind::Float,  plat::ScalarKind::Double,
      plat::ScalarKind::LongDouble};
  const auto pick = [&rng](std::uint64_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t choice = depth >= 3 ? pick(3) : pick(6);
  switch (choice) {
    case 0:
    case 1:
      return TypeDesc::scalar(kinds[pick(std::size(kinds))]);
    case 2:
      return TypeDesc::pointer();
    case 3:
      return TypeDesc::array(
          TypeDesc::scalar(kinds[pick(std::size(kinds))]), 1 + pick(17));
    case 4: {
      std::vector<tags::Field> fields;
      const std::size_t n = 1 + pick(5);
      for (std::size_t i = 0; i < n; ++i) {
        fields.push_back({"f" + std::to_string(i), random_type(rng, depth + 1)});
      }
      return TypeDesc::struct_of("S", std::move(fields));
    }
    default:
      return TypeDesc::array(random_type(rng, depth + 1), 1 + pick(4));
  }
}

/// Fill an image's data runs with deterministic pseudo-random values in
/// the layout's platform representation (padding left zero).
inline void fill_random_image(std::byte* image, const tags::Layout& layout,
                              std::mt19937_64& rng) {
  for (const tags::FlatRun& run : layout.runs) {
    if (run.cat == tags::FlatRun::Cat::Padding) continue;
    for (std::uint64_t i = 0; i < run.count; ++i) {
      std::byte* p = image + run.offset + i * run.elem_size;
      switch (run.cat) {
        case tags::FlatRun::Cat::Float: {
          // Values exactly representable everywhere: small integers / 16.
          const double v =
              static_cast<double>(static_cast<std::int32_t>(rng() % 4096) -
                                  2048) /
              16.0;
          plat::encode_float(v, p, run.elem_size, layout.platform->endian,
                             run.kind == plat::ScalarKind::LongDouble
                                 ? layout.platform->long_double_format
                                 : plat::LongDoubleFormat::Binary64);
          break;
        }
        case tags::FlatRun::Cat::Pointer:
          // Tokens: small offsets.
          plat::write_uint(p, run.elem_size, layout.platform->endian,
                           rng() % 65536);
          break;
        case tags::FlatRun::Cat::SignedInt: {
          // Stay within the smallest width any platform might use (1 byte).
          plat::write_sint(p, run.elem_size, layout.platform->endian,
                           static_cast<std::int64_t>(rng() % 200) - 100);
          break;
        }
        case tags::FlatRun::Cat::UnsignedInt:
          plat::write_uint(p, run.elem_size, layout.platform->endian,
                           rng() % 200);
          break;
        case tags::FlatRun::Cat::Padding:
          break;
      }
    }
  }
}

}  // namespace hdsm::test

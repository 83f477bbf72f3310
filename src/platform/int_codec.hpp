// Integer read/write against a declared byte order and width.  These are
// the scalar primitives "receiver makes right" conversion is built from:
// the receiver reads the sender's representation (size + endianness from the
// tag) and re-encodes in its own, applying sign or zero extension when the
// widths differ.
//
// append_be/read_be fix the byte order to big-endian, the order of every
// hdsm wire header, update block and state record (docs/PROTOCOL.md), and
// move a field as one swapped word rather than byte by byte: every packed
// update block goes through them.  Each decoder checks its own bounds
// before reading.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "platform/byteswap.hpp"
#include "platform/platform.hpp"

namespace hdsm::plat {

/// Read an unsigned integer of `size` bytes (1..8) stored with byte order
/// `e` at `p`.  No alignment requirement.
inline std::uint64_t read_uint(const std::byte* p, std::size_t size,
                               Endian e) noexcept {
  std::uint64_t v = 0;
  if (e == Endian::Little) {
    for (std::size_t i = size; i-- > 0;) {
      v = (v << 8) | static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]));
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) {
      v = (v << 8) | static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]));
    }
  }
  return v;
}

/// Read a signed integer of `size` bytes, sign-extending to 64 bits.
inline std::int64_t read_sint(const std::byte* p, std::size_t size,
                              Endian e) noexcept {
  std::uint64_t v = read_uint(p, size, e);
  if (size < 8) {
    const std::uint64_t sign_bit = std::uint64_t{1} << (size * 8 - 1);
    if (v & sign_bit) {
      v |= ~((sign_bit << 1) - 1);
    }
  }
  return static_cast<std::int64_t>(v);
}

/// Write the low `size` bytes of `v` with byte order `e` at `p`
/// (truncating representation for narrowing writes).
inline void write_uint(std::byte* p, std::size_t size, Endian e,
                       std::uint64_t v) noexcept {
  if (e == Endian::Little) {
    for (std::size_t i = 0; i < size; ++i) {
      p[i] = static_cast<std::byte>(v & 0xff);
      v >>= 8;
    }
  } else {
    for (std::size_t i = size; i-- > 0;) {
      p[i] = static_cast<std::byte>(v & 0xff);
      v >>= 8;
    }
  }
}

/// Write a signed value; two's-complement truncation for narrowing.
inline void write_sint(std::byte* p, std::size_t size, Endian e,
                       std::int64_t v) noexcept {
  write_uint(p, size, e, static_cast<std::uint64_t>(v));
}

/// Append the low `size` bytes (1..8) of `v` to `out`, big-endian.
inline void append_be(std::vector<std::byte>& out, std::size_t size,
                      std::uint64_t v) {
  if (host_endian() == Endian::Little) v = bswap64(v);
  const auto* be = reinterpret_cast<const std::byte*>(&v);
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, be + 8 - size, size);
}

/// Read a `size`-byte (1..8) big-endian unsigned integer at `p`.
inline std::uint64_t read_be(const std::byte* p, std::size_t size) noexcept {
  std::byte be[8] = {};
  std::memcpy(be + 8 - size, p, size);
  std::uint64_t v;
  std::memcpy(&v, be, sizeof v);
  return host_endian() == Endian::Little ? bswap64(v) : v;
}

}  // namespace hdsm::plat

// Integer read/write against a declared byte order and width.  These are
// the scalar primitives "receiver makes right" conversion is built from:
// the receiver reads the sender's representation (size + endianness from the
// tag) and re-encodes in its own, applying sign or zero extension when the
// widths differ.
//
// append_be/read_be fix the byte order to big-endian, the order of every
// hdsm wire header, update block, state record, checkpoint file and
// telemetry snapshot (docs/PROTOCOL.md), and move a field as one swapped
// word rather than byte by byte: every packed update block goes through
// them.  append_be is the one encode primitive; WireReader, a
// bounds-checked cursor over read_be, is the one decode primitive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
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

/// Bounds-checked big-endian cursor over a received buffer: every hdsm
/// decoder reads through one.  Each read checks the bytes left first, and
/// every failure throws std::runtime_error naming the structure (`what`),
/// so a short, long or lying buffer is rejected before anything is
/// allocated or read past.  The buffer must outlive the reader and every
/// pointer view() returns.
class WireReader {
 public:
  WireReader(const std::byte* data, std::size_t size, const char* what) noexcept
      : p_(data), left_(size), what_(what) {}
  WireReader(const std::vector<std::byte>& buf, const char* what) noexcept
      : WireReader(buf.data(), buf.size(), what) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(be(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(be(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be(4)); }
  std::uint64_t u64() { return be(8); }

  /// Borrow the next `n` bytes in place (no copy).
  const std::byte* view(std::uint64_t n) {
    if (n > left_) fail("truncated");
    const std::byte* at = p_;
    p_ += n;
    left_ -= static_cast<std::size_t>(n);
    return at;
  }
  std::vector<std::byte> bytes(std::uint64_t n) {
    const std::byte* at = view(n);
    return std::vector<std::byte>(at, at + n);
  }
  std::string str(std::uint64_t n) {
    const std::byte* at = view(n);
    return std::string(reinterpret_cast<const char*>(at),
                       static_cast<std::size_t>(n));
  }

  /// A u32 element count, rejected when the bytes left cannot hold that
  /// many elements of at least `min_bytes_each` — so a hostile count never
  /// reaches a reserve().
  std::uint32_t count(std::size_t min_bytes_each) {
    const std::uint32_t n = u32();
    if (n > left_ / min_bytes_each) fail("count exceeds buffer");
    return n;
  }

  std::size_t remaining() const noexcept { return left_; }

  /// The structure must end exactly here.
  void finish() const {
    if (left_ != 0) fail("trailing bytes");
  }

  /// Reject with `why` (for a decoder's own semantic checks).
  [[noreturn]] void fail(const char* why) const { throw_error(what_, why); }

 private:
  std::uint64_t be(std::size_t n) { return read_be(view(n), n); }

  // Out of line and static, so no read keeps `this` from living in
  // registers: the decode loops run on every applied update payload.
  [[noreturn, gnu::cold, gnu::noinline]] static void throw_error(
      const char* what, const char* why) {
    throw std::runtime_error(std::string(what) + ": " + why);
  }

  const std::byte* p_;
  std::size_t left_;
  const char* what_;
};

}  // namespace hdsm::plat

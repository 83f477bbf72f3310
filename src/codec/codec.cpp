#include "codec/codec.hpp"

#include <bit>
#include <cstring>

#include "codec/bitpack.hpp"
#include "platform/int_codec.hpp"

namespace hdsm::codec {

namespace {

constexpr std::byte kMagic{0xC5};
constexpr std::size_t kChunk = 64;  ///< residuals per width-adaptive chunk

std::uint64_t load_elem(const std::byte* p, std::uint32_t es, bool be) {
  std::uint64_t v = 0;
  if (be) {
    for (std::uint32_t i = 0; i < es; ++i) {
      v = (v << 8) | std::to_integer<std::uint64_t>(p[i]);
    }
  } else {
    for (std::uint32_t i = es; i > 0; --i) {
      v = (v << 8) | std::to_integer<std::uint64_t>(p[i - 1]);
    }
  }
  return v;
}

void store_elem(std::byte* p, std::uint32_t es, bool be, std::uint64_t v) {
  if (be) {
    for (std::uint32_t i = es; i > 0; --i) {
      p[i - 1] = static_cast<std::byte>(v);
      v >>= 8;
    }
  } else {
    for (std::uint32_t i = 0; i < es; ++i) {
      p[i] = static_cast<std::byte>(v);
      v >>= 8;
    }
  }
}

constexpr std::uint64_t elem_mask(std::uint32_t es) {
  return es == 8 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << (es * 8)) - 1;
}

/// Residual -> small unsigned int: interpret the width-bits residual as
/// signed, then fold sign into the low bit so small |residuals| of either
/// sign pack into few bits.  The result always fits in the element width.
std::uint64_t zigzag(std::uint64_t residual, unsigned bits) {
  const auto sr = static_cast<std::int64_t>(residual << (64 - bits)) >>
                  (64 - bits);  // sign-extend from `bits`
  return (static_cast<std::uint64_t>(sr) << 1) ^
         static_cast<std::uint64_t>(sr >> 63);
}

std::uint64_t unzigzag(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

unsigned bit_width64(std::uint64_t v) {
  return v == 0 ? 0u : 64u - static_cast<unsigned>(std::countl_zero(v));
}

/// Walk the residual stream for `pred` over elements [1, count) in
/// kChunk-sized chunks, handing each chunk's zigzagged residuals and their
/// max bit width to `fn(zs, len, maxw)`.  One definition drives both the
/// sizing pass and the emit pass, so they cannot disagree.
template <typename Fn>
void for_each_chunk(const std::byte* src, std::size_t count, std::uint32_t es,
                    bool be, Predictor pred, Fn&& fn) {
  const unsigned bits = es * 8;
  const std::uint64_t mask = elem_mask(es);
  std::uint64_t prev = load_elem(src, es, be);
  std::uint64_t prev2 = 0;
  std::uint64_t zs[kChunk];
  std::size_t idx = 1;
  while (idx < count) {
    const std::size_t len = count - idx < kChunk ? count - idx : kChunk;
    unsigned maxw = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t i = idx + j;
      const std::uint64_t v = load_elem(src + i * es, es, be);
      const std::uint64_t predicted =
          (pred == Predictor::Linear && i >= 2) ? (2 * prev - prev2) & mask
                                                : prev;
      const std::uint64_t z = zigzag((v - predicted) & mask, bits);
      zs[j] = z;
      const unsigned w = bit_width64(z);
      if (w > maxw) maxw = w;
      prev2 = prev;
      prev = v;
    }
    fn(zs, len, maxw);
    idx += len;
  }
}

std::size_t stream_bytes(const std::byte* src, std::size_t count,
                         std::uint32_t es, bool be, Predictor pred) {
  std::size_t bytes = 0;
  for_each_chunk(src, count, es, be, pred,
                 [&bytes](const std::uint64_t*, std::size_t len,
                          unsigned maxw) {
                   bytes += 1 + (static_cast<std::size_t>(maxw) * len + 7) / 8;
                 });
  return bytes;
}

}  // namespace

std::uint32_t checksum32(const std::byte* p, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  if (i < n) {
    std::uint64_t t = 0;
    std::memcpy(&t, p + i, n - i);
    h = (h ^ t) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

EncodeResult encode_run(const std::byte* src, std::size_t raw_len,
                        std::uint32_t elem_size, std::vector<std::byte>& out) {
  EncodeResult res;
  if (!encodable_elem_size(elem_size) || raw_len < elem_size ||
      raw_len % elem_size != 0) {
    return res;
  }
  const std::size_t count = raw_len / elem_size;
  const bool be = std::endian::native == std::endian::big;

  // Size both predictors over the actual data and keep the cheaper one —
  // linear only pays off when the data has a consistent stride (ramps,
  // loop indices), and it needs three elements before it differs from
  // delta at all.
  const std::size_t delta_bytes =
      stream_bytes(src, count, elem_size, be, Predictor::Delta);
  std::size_t best_bytes = delta_bytes;
  Predictor pred = Predictor::Delta;
  if (count >= 3) {
    const std::size_t linear_bytes =
        stream_bytes(src, count, elem_size, be, Predictor::Linear);
    if (linear_bytes < delta_bytes) {
      best_bytes = linear_bytes;
      pred = Predictor::Linear;
    }
  }

  const std::size_t total = kHeaderSize + elem_size + best_bytes;
  if (total >= raw_len) return res;  // raw wins: append nothing

  const std::size_t start = out.size();
  out.push_back(kMagic);
  out.push_back(static_cast<std::byte>(pred));
  out.push_back(static_cast<std::byte>(elem_size));
  out.push_back(static_cast<std::byte>(be ? 1 : 0));
  plat::append_be(out, 8, raw_len);
  plat::append_be(out, 4, checksum32(src, raw_len));
  out.insert(out.end(), src, src + elem_size);  // element 0, raw

  BitWriter w(out);
  for_each_chunk(src, count, elem_size, be, pred,
                 [&w](const std::uint64_t* zs, std::size_t len,
                      unsigned maxw) {
                   w.put(maxw, 8);
                   for (std::size_t j = 0; j < len; ++j) w.put(zs[j], maxw);
                   w.align();
                 });

  res.encoded = true;
  res.bytes = out.size() - start;
  res.predictor = pred;
  return res;
}

void decode_run(const std::byte* src, std::size_t src_len, std::byte* dst,
                std::size_t dst_len, std::uint32_t elem_size) {
  plat::WireReader in(src, src_len, "codec");
  // The encoder only ever emits streams strictly smaller than the raw run,
  // so an oversized stream is malformed by construction.
  if (src_len >= dst_len) in.fail("compressed block not smaller than raw");
  if (in.u8() != std::to_integer<std::uint8_t>(kMagic)) in.fail("bad magic");
  const std::uint8_t pred_byte = in.u8();
  if (pred_byte > static_cast<std::uint8_t>(Predictor::Linear)) {
    in.fail("unknown predictor");
  }
  const auto pred = static_cast<Predictor>(pred_byte);
  const std::uint32_t es = in.u8();
  if (!encodable_elem_size(es)) in.fail("bad element size");
  if (es != elem_size) in.fail("element size disagrees with tag");
  const std::uint8_t flags = in.u8();
  if (flags > 1) in.fail("bad flags");
  const bool be = (flags & 1) != 0;
  const std::uint64_t raw_len = in.u64();
  const std::uint32_t csum = in.u32();
  if (raw_len != dst_len) in.fail("raw length disagrees with tag");
  if (raw_len % es != 0 || raw_len == 0) {
    in.fail("raw length not whole elements");
  }
  const std::size_t count = static_cast<std::size_t>(raw_len) / es;
  std::memcpy(dst, in.view(es), es);

  const unsigned bits = es * 8;
  const std::uint64_t mask = elem_mask(es);
  const std::size_t residual_len = in.remaining();
  BitReader r(in.view(residual_len), residual_len);
  std::uint64_t prev = load_elem(dst, es, be);
  std::uint64_t prev2 = 0;
  std::size_t idx = 1;
  while (idx < count) {
    const std::size_t len = count - idx < kChunk ? count - idx : kChunk;
    const auto maxw = static_cast<unsigned>(r.get(8));
    if (maxw > bits) in.fail("residual width exceeds element width");
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t i = idx + j;
      const std::uint64_t z = r.get(maxw);
      const std::uint64_t predicted =
          (pred == Predictor::Linear && i >= 2) ? (2 * prev - prev2) & mask
                                                : prev;
      const std::uint64_t v = (predicted + unzigzag(z)) & mask;
      store_elem(dst + i * es, es, be, v);
      prev2 = prev;
      prev = v;
    }
    r.align();
    idx += len;
  }
  if (!r.exhausted()) in.fail("trailing bytes after residual stream");
  if (checksum32(dst, dst_len) != csum) in.fail("checksum mismatch");
}

}  // namespace hdsm::codec

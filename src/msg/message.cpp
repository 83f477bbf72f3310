#include "msg/message.hpp"

#include <limits>

#include "platform/int_codec.hpp"

namespace hdsm::msg {

namespace {

constexpr std::uint32_t kMagic = 0x4844534du;  // "HDSM"
// magic, type, endian, ldf, version, sync_id, rank, seq, aux, tag_len,
// payload_len — docs/PROTOCOL.md §1 documents the exact layout.
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 4;

}  // namespace

const char* msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::Hello: return "Hello";
    case MsgType::LockRequest: return "LockRequest";
    case MsgType::LockGrant: return "LockGrant";
    case MsgType::UnlockRequest: return "UnlockRequest";
    case MsgType::UnlockAck: return "UnlockAck";
    case MsgType::BarrierEnter: return "BarrierEnter";
    case MsgType::BarrierRelease: return "BarrierRelease";
    case MsgType::JoinRequest: return "JoinRequest";
    case MsgType::JoinAck: return "JoinAck";
    case MsgType::MigrateState: return "MigrateState";
    case MsgType::MigrateAck: return "MigrateAck";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::MetricsPull: return "MetricsPull";
    case MsgType::MetricsReport: return "MetricsReport";
    case MsgType::ReplAppend: return "ReplAppend";
    case MsgType::ReplAck: return "ReplAck";
  }
  return "?";
}

std::size_t Message::wire_size() const noexcept {
  return kHeaderSize + tag.size() + payload.size();
}

std::vector<std::byte> encode_frame(const Message& m) {
  constexpr std::size_t kMaxLen = std::numeric_limits<std::uint32_t>::max();
  if (m.tag.size() > kMaxLen || m.payload.size() > kMaxLen) {
    throw std::length_error("encode_frame: tag or payload exceeds 4 GiB");
  }
  std::vector<std::byte> out;
  out.reserve(m.wire_size());
  plat::append_be(out, 4, kMagic);
  out.push_back(static_cast<std::byte>(m.type));
  out.push_back(static_cast<std::byte>(m.sender.endian));
  out.push_back(static_cast<std::byte>(m.sender.long_double_format));
  out.push_back(static_cast<std::byte>(kFrameVersion));
  plat::append_be(out, 4, m.sync_id);
  plat::append_be(out, 4, m.rank);
  plat::append_be(out, 4, m.seq);
  plat::append_be(out, 4, m.aux);
  plat::append_be(out, 4, m.tag.size());
  plat::append_be(out, 4, m.payload.size());
  const std::byte* tag_bytes = reinterpret_cast<const std::byte*>(m.tag.data());
  out.insert(out.end(), tag_bytes, tag_bytes + m.tag.size());
  out.insert(out.end(), m.payload.begin(), m.payload.end());
  return out;
}

void FrameDecoder::feed(const std::byte* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameDecoder::next(Message& out) {
  if (buf_.size() < kHeaderSize) return false;
  plat::WireReader r(buf_, "FrameDecoder");
  if (r.u32() != kMagic) r.fail("bad magic");
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::Hello) ||
      type > static_cast<std::uint8_t>(MsgType::ReplAck) ||
      (type > static_cast<std::uint8_t>(MsgType::MetricsReport) &&
       type < static_cast<std::uint8_t>(MsgType::ReplAppend))) {
    r.fail("bad message type");
  }
  const std::uint8_t endian = r.u8();
  const std::uint8_t ldf = r.u8();
  if (endian > 1 || ldf > 2) r.fail("bad platform summary");
  if (r.u8() != kFrameVersion) r.fail("unsupported frame version");
  const std::uint32_t sync_id = r.u32();
  const std::uint32_t rank = r.u32();
  const std::uint32_t seq = r.u32();
  const std::uint32_t aux = r.u32();
  const std::uint32_t tag_len = r.u32();
  const std::uint32_t payload_len = r.u32();
  // Two u32 lengths: the sum cannot wrap a 64-bit size_t.
  if (r.remaining() < std::size_t{tag_len} + payload_len) return false;

  out.type = static_cast<MsgType>(type);
  out.sender.endian = static_cast<plat::Endian>(endian);
  out.sender.long_double_format = static_cast<plat::LongDoubleFormat>(ldf);
  out.sync_id = sync_id;
  out.rank = rank;
  out.seq = seq;
  out.aux = aux;
  out.tag = r.str(tag_len);
  const std::byte* payload = r.view(payload_len);
  out.payload.assign(payload, payload + payload_len);
  buf_.erase(buf_.begin(), buf_.end() - r.remaining());
  return true;
}

}  // namespace hdsm::msg

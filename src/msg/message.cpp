#include "msg/message.hpp"

#include <cstring>

namespace hdsm::msg {

namespace {

constexpr std::uint32_t kMagic = 0x4844534du;  // "HDSM"
// magic, type, endian, ldf, reserved, sync_id, rank, seq, map_epoch, aux,
// tag_len, payload_len — docs/PROTOCOL.md §1 documents the exact layout.
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 4 + 8;

void put_u32be(std::vector<std::byte>& out, std::uint32_t v) {
  out.push_back(static_cast<std::byte>(v >> 24));
  out.push_back(static_cast<std::byte>(v >> 16));
  out.push_back(static_cast<std::byte>(v >> 8));
  out.push_back(static_cast<std::byte>(v));
}

void put_u64be(std::vector<std::byte>& out, std::uint64_t v) {
  put_u32be(out, static_cast<std::uint32_t>(v >> 32));
  put_u32be(out, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32be(const std::byte* p) {
  return (std::to_integer<std::uint32_t>(p[0]) << 24) |
         (std::to_integer<std::uint32_t>(p[1]) << 16) |
         (std::to_integer<std::uint32_t>(p[2]) << 8) |
         std::to_integer<std::uint32_t>(p[3]);
}

std::uint64_t get_u64be(const std::byte* p) {
  return (static_cast<std::uint64_t>(get_u32be(p)) << 32) | get_u32be(p + 4);
}

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
  std::vector<std::byte> out;
  out.reserve(m.wire_size());
  put_u32be(out, kMagic);
  out.push_back(static_cast<std::byte>(m.type));
  out.push_back(static_cast<std::byte>(m.sender.endian));
  out.push_back(static_cast<std::byte>(m.sender.long_double_format));
  out.push_back(std::byte{0});  // reserved
  put_u32be(out, m.sync_id);
  put_u32be(out, m.rank);
  put_u32be(out, m.seq);
  put_u32be(out, m.map_epoch);
  put_u32be(out, m.aux);
  put_u32be(out, static_cast<std::uint32_t>(m.tag.size()));
  put_u64be(out, m.payload.size());
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
  const std::byte* p = buf_.data();
  if (get_u32be(p) != kMagic) {
    throw std::runtime_error("FrameDecoder: bad magic");
  }
  const std::uint8_t type = std::to_integer<std::uint8_t>(p[4]);
  if (type < static_cast<std::uint8_t>(MsgType::Hello) ||
      type > static_cast<std::uint8_t>(MsgType::ReplAck) ||
      (type > static_cast<std::uint8_t>(MsgType::MetricsReport) &&
       type < static_cast<std::uint8_t>(MsgType::ReplAppend))) {
    throw std::runtime_error("FrameDecoder: bad message type");
  }
  const std::uint8_t endian = std::to_integer<std::uint8_t>(p[5]);
  const std::uint8_t ldf = std::to_integer<std::uint8_t>(p[6]);
  if (endian > 1 || ldf > 2) {
    throw std::runtime_error("FrameDecoder: bad platform summary");
  }
  const std::uint32_t sync_id = get_u32be(p + 8);
  const std::uint32_t rank = get_u32be(p + 12);
  const std::uint32_t seq = get_u32be(p + 16);
  const std::uint32_t map_epoch = get_u32be(p + 20);
  const std::uint32_t aux = get_u32be(p + 24);
  const std::uint32_t tag_len = get_u32be(p + 28);
  const std::uint64_t payload_len = get_u64be(p + 32);
  const std::size_t total = kHeaderSize + tag_len + payload_len;
  if (buf_.size() < total) return false;

  out.type = static_cast<MsgType>(type);
  out.sender.endian = static_cast<plat::Endian>(endian);
  out.sender.long_double_format = static_cast<plat::LongDoubleFormat>(ldf);
  out.sync_id = sync_id;
  out.rank = rank;
  out.seq = seq;
  out.map_epoch = map_epoch;
  out.aux = aux;
  out.tag.assign(reinterpret_cast<const char*>(p + kHeaderSize), tag_len);
  out.payload.assign(buf_.begin() + kHeaderSize + tag_len,
                     buf_.begin() + total);
  buf_.erase(buf_.begin(), buf_.begin() + total);
  return true;
}

}  // namespace hdsm::msg

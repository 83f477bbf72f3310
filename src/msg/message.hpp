// Message model and wire framing for the DSD protocol (paper Figure 5).
//
// Messages carry: a type, the sync object id (mutex/barrier index), the
// sender's thread rank, a summary of the sender's platform (endianness and
// long-double format — "the tags sent by the home thread will indicate the
// endianness of the host system", §4.1), an ASCII tag string, and a raw
// payload in the *sender's* representation (receiver makes right).
//
// Framing header fields are network byte order; tag and payload bytes are
// opaque at this layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace hdsm::msg {

enum class MsgType : std::uint8_t {
  Hello = 1,
  LockRequest,
  LockGrant,
  UnlockRequest,
  UnlockAck,
  BarrierEnter,
  BarrierRelease,
  JoinRequest,
  JoinAck,
  MigrateState,
  MigrateAck,
  Shutdown,
  /// Telemetry scrape (docs/PROTOCOL.md): a remote pushes its serialized
  /// obs::NodeSnapshot in the request payload; the home folds it into the
  /// cluster aggregate and replies MetricsReport carrying the serialized
  /// cluster view.  Sequenced like every other request.
  MetricsPull,
  MetricsReport,
  // 15-17 are reserved: they carried the retired multi-shard directory's
  // redirect and pending-pull frames (docs/PROTOCOL.md §7).  FrameDecoder
  // rejects them.
  /// Primary→standby state-machine replication (docs/REPLICATION.md,
  /// docs/PROTOCOL.md §8): the payload is one serialized dsm::LogRecord,
  /// `seq` the log index, `aux` the sender's primaryship epoch.  The
  /// standby replays the record through its own core and answers ReplAck
  /// echoing seq/sync_id; an ack with
  /// `aux` != 0 tells the sender it has been deposed (a newer epoch was
  /// promoted) and must stop externalizing actions.
  ReplAppend = 18,
  ReplAck,
};

const char* msg_type_name(MsgType t) noexcept;

/// Byte 7 of every frame header (docs/PROTOCOL.md §1).  FrameDecoder
/// refuses any other value, so a frame of an older layout (the 40-byte
/// header, which carried 0 there; version 2, whose update payloads had no
/// strided tags; or version 3, whose ReplAppend records carried run lists)
/// is rejected instead of misparsed.
inline constexpr std::uint8_t kFrameVersion = 4;

/// The sender-platform facts a receiver needs to "make right": byte order
/// and extended-float format.  Element sizes travel in the tags.
struct PlatformSummary {
  plat::Endian endian = plat::Endian::Little;
  plat::LongDoubleFormat long_double_format = plat::LongDoubleFormat::Binary64;

  static PlatformSummary of(const plat::PlatformDesc& p) {
    return PlatformSummary{p.endian, p.long_double_format};
  }
  bool operator==(const PlatformSummary&) const = default;
};

struct Message {
  MsgType type = MsgType::Hello;
  std::uint32_t sync_id = 0;  ///< mutex or barrier index
  std::uint32_t rank = 0;     ///< sender thread rank
  /// Request sequence number of the DSM session (docs/PROTOCOL.md §1):
  /// every request is numbered from 1 per remote incarnation and the reply
  /// echoes it; 0 only on the Hello that opens a fresh incarnation.  The
  /// replication link reuses it as the log index (§8).
  std::uint32_t seq = 0;
  /// Auxiliary word (docs/PROTOCOL.md §8): the primaryship epoch on
  /// ReplAppend, the fence epoch on a rejecting ReplAck, 0 otherwise.
  std::uint32_t aux = 0;
  PlatformSummary sender;
  std::string tag;                 ///< ASCII (m,n) tag text
  std::vector<std::byte> payload;  ///< raw data, sender's representation

  std::size_t wire_size() const noexcept;
};

/// Serialize `m` into a self-delimiting frame.  Throws std::length_error
/// when the tag or the payload exceeds UINT32_MAX bytes.
std::vector<std::byte> encode_frame(const Message& m);

/// Incremental frame decoder for stream transports.
class FrameDecoder {
 public:
  /// Feed bytes; complete messages become available via next().
  void feed(const std::byte* data, std::size_t len);
  /// Pop the next complete message if any.
  bool next(Message& out);

 private:
  std::vector<std::byte> buf_;
};

/// Thrown by endpoints when the peer has closed.  Subclassed by
/// higher-level "connection is gone for good" conditions (e.g.
/// dsm::HomeUnreachable) so callers that only care about "the channel died"
/// can catch the base.
class ChannelClosed : public std::runtime_error {
 public:
  ChannelClosed() : std::runtime_error("hdsm channel closed") {}

 protected:
  explicit ChannelClosed(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace hdsm::msg

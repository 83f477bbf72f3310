#include "dsm/replication.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "platform/int_codec.hpp"

namespace hdsm::dsm {

// ---- record wire form (docs/PROTOCOL.md §8) --------------------------------

bool is_master_update(CoherenceEvent::Kind kind) {
  return kind == CoherenceEvent::Kind::MasterUnlock ||
         kind == CoherenceEvent::Kind::MasterBarrier;
}

std::vector<std::byte> encode_record(const LogRecord& r) {
  const CoherenceEvent& e = r.event;
  std::vector<std::byte> out;
  plat::append_be(out, 1, static_cast<std::uint8_t>(e.kind));
  plat::append_be(out, 4, e.rank);
  plat::append_be(out, 4, e.index);
  plat::append_be(out, 4, e.value);
  if (e.kind == CoherenceEvent::Kind::MsgReceived) {
    // The embedded message reuses the self-delimiting protocol framing —
    // one wire form, one decoder.
    const std::vector<std::byte> frame = msg::encode_frame(e.message);
    plat::append_be(out, 8, frame.size());
    out.insert(out.end(), frame.begin(), frame.end());
  }
  plat::append_be(out, 8, r.master_payload.size());
  out.insert(out.end(), r.master_payload.begin(), r.master_payload.end());
  plat::append_be(out, 1, static_cast<std::uint8_t>(r.master_sender.endian));
  plat::append_be(
      out, 1, static_cast<std::uint8_t>(r.master_sender.long_double_format));
  return out;
}

LogRecord decode_record(const std::vector<std::byte>& payload) {
  plat::WireReader rd(payload, "LogRecord");
  LogRecord r;
  CoherenceEvent& e = r.event;
  const std::uint8_t kind = rd.u8();
  if (kind > static_cast<std::uint8_t>(CoherenceEvent::Kind::BindLock)) {
    rd.fail("bad event kind");
  }
  e.kind = static_cast<CoherenceEvent::Kind>(kind);
  e.rank = rd.u32();
  e.index = rd.u32();
  e.value = rd.u32();
  if (e.kind == CoherenceEvent::Kind::MsgReceived) {
    const std::uint64_t frame_len = rd.u64();
    msg::FrameDecoder dec;
    dec.feed(rd.view(frame_len), static_cast<std::size_t>(frame_len));
    if (!dec.next(e.message)) rd.fail("truncated embedded message");
    if (e.message.wire_size() != frame_len) {
      rd.fail("embedded message shorter than its length");
    }
  }
  r.master_payload = rd.bytes(rd.u64());
  if (!r.master_payload.empty() && !is_master_update(e.kind)) {
    rd.fail("master payload on a non-master event");
  }
  const std::uint8_t endian = rd.u8();
  const std::uint8_t ldf = rd.u8();
  if (endian > 1 || ldf > 2) rd.fail("bad master sender summary");
  r.master_sender.endian = static_cast<plat::Endian>(endian);
  r.master_sender.long_double_format = static_cast<plat::LongDoubleFormat>(ldf);
  rd.finish();
  return r;
}

// ---- the synchronous append client -----------------------------------------

ReplicationSender::ReplicationSender(msg::EndpointPtr link,
                                     ReplicationOptions opts,
                                     obs::Telemetry* telemetry)
    : link_(std::move(link)), opts_(opts), telemetry_(telemetry) {}

ReplicationSender::~ReplicationSender() { close(); }

void ReplicationSender::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (link_ != nullptr) link_->close();
  link_.reset();
}

bool ReplicationSender::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

bool ReplicationSender::deposed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deposed_;
}

std::uint64_t ReplicationSender::appends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_;
}

ReplicationSender::Result ReplicationSender::append(const LogRecord& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (deposed_) return Result::Deposed;
  if (degraded_ || link_ == nullptr) return Result::Degraded;
  obs::SpanScope span(telemetry_, obs::SpanKind::ReplAppend, next_index_);

  msg::Message m;
  m.type = msg::MsgType::ReplAppend;
  m.seq = next_index_;
  m.aux = opts_.epoch;
  m.payload = encode_record(r);

  const auto dead = [this](const char* why) {
    if (opts_.allow_degraded) {
      std::fprintf(stderr,
                   "hdsm repl: standby link dead (%s); continuing "
                   "unreplicated\n",
                   why);
      degraded_ = true;
      return Result::Degraded;
    }
    std::fprintf(stderr, "hdsm repl: standby link dead (%s); fencing\n", why);
    deposed_ = true;
    return Result::Deposed;
  };

  for (std::uint32_t attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    try {
      link_->send(m);
    } catch (const msg::ChannelClosed&) {
      return dead("send failed");
    }
    const auto deadline =
        std::chrono::steady_clock::now() + opts_.ack_timeout;
    for (;;) {
      msg::Message ack;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      bool got = false;
      try {
        got = link_->recv_for(
            ack, left.count() > 0 ? left : std::chrono::milliseconds(0));
      } catch (const msg::ChannelClosed&) {
        return dead("recv failed");
      }
      if (!got) break;  // timed out: retransmit
      if (ack.type != msg::MsgType::ReplAck || ack.seq < m.seq) {
        continue;  // stale ack from an earlier retransmit
      }
      if (ack.aux != 0) {
        std::fprintf(stderr,
                     "hdsm repl: deposed by epoch %u (ours %u); fencing\n",
                     ack.aux, opts_.epoch);
        deposed_ = true;
        return Result::Deposed;
      }
      ++next_index_;
      ++appends_;
      return Result::Ok;
    }
  }
  return dead("ack timeout");
}

}  // namespace hdsm::dsm

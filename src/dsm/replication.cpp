#include "dsm/replication.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "platform/int_codec.hpp"

namespace hdsm::dsm {

// ---- record wire form (docs/PROTOCOL.md §9) --------------------------------

namespace {

/// High bit of a run record's row word: a u32 stride (at least 2) follows
/// the row.  A contiguous run's record keeps its 20 bytes.
constexpr std::uint32_t kStridedRunFlag = 0x80000000u;

void encode_event(std::vector<std::byte>& out, const CoherenceEvent& e) {
  plat::append_be(out, 1, static_cast<std::uint8_t>(e.kind));
  plat::append_be(out, 4, e.rank);
  plat::append_be(out, 4, e.index);
  const bool has_message = e.kind == CoherenceEvent::Kind::MsgReceived;
  plat::append_be(out, 1, has_message ? 1 : 0);
  if (has_message) {
    // The embedded message reuses the self-delimiting protocol framing —
    // one wire form, one decoder.
    const std::vector<std::byte> frame = msg::encode_frame(e.message);
    plat::append_be(out, 8, frame.size());
    out.insert(out.end(), frame.begin(), frame.end());
  }
  plat::append_be(out, 4, static_cast<std::uint32_t>(e.runs.size()));
  for (const idx::UpdateRun& run : e.runs) {
    if (run.stride > 1) {
      plat::append_be(out, 4, run.row | kStridedRunFlag);
      plat::append_be(out, 4, run.stride);
    } else {
      plat::append_be(out, 4, run.row);
    }
    plat::append_be(out, 8, run.first_elem);
    plat::append_be(out, 8, run.count);
  }
}

CoherenceEvent decode_event(plat::WireReader& r) {
  CoherenceEvent e;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(CoherenceEvent::Kind::PeerDetached)) {
    r.fail("bad event kind");
  }
  e.kind = static_cast<CoherenceEvent::Kind>(kind);
  e.rank = r.u32();
  e.index = r.u32();
  if (r.u8() != 0) {
    const std::uint64_t frame_len = r.u64();
    msg::FrameDecoder dec;
    dec.feed(r.view(frame_len), static_cast<std::size_t>(frame_len));
    if (!dec.next(e.message)) r.fail("truncated embedded message");
    if (e.message.wire_size() != frame_len) {
      r.fail("embedded message shorter than its length");
    }
  }
  const std::uint32_t nruns = r.count(20);  // 20 bytes a run
  e.runs.reserve(nruns);
  for (std::uint32_t i = 0; i < nruns; ++i) {
    idx::UpdateRun run;
    run.row = r.u32();
    if ((run.row & kStridedRunFlag) != 0) {
      run.row &= ~kStridedRunFlag;
      run.stride = r.u32();
      if (run.stride < 2) r.fail("strided run with stride below 2");
    }
    run.first_elem = r.u64();
    run.count = r.u64();
    if (run.stride > 1 && run.count < 2) r.fail("strided run of one element");
    e.runs.push_back(run);
  }
  return e;
}

}  // namespace

std::vector<std::byte> encode_record(const LogRecord& r) {
  std::vector<std::byte> out;
  plat::append_be(out, 1, static_cast<std::uint8_t>(r.kind));
  switch (r.kind) {
    case LogRecord::Kind::Event:
      encode_event(out, r.event);
      plat::append_be(out, 8, r.master_payload.size());
      out.insert(out.end(), r.master_payload.begin(), r.master_payload.end());
      plat::append_be(out, 1, static_cast<std::uint8_t>(r.master_sender.endian));
      plat::append_be(
          out, 1, static_cast<std::uint8_t>(r.master_sender.long_double_format));
      break;
    case LogRecord::Kind::SetBarrierCount:
    case LogRecord::Kind::BindLock:
      plat::append_be(out, 4, r.index);
      plat::append_be(out, 4, r.value);
      break;
  }
  return out;
}

LogRecord decode_record(const std::vector<std::byte>& payload) {
  plat::WireReader rd(payload, "LogRecord");
  LogRecord r;
  const std::uint8_t kind = rd.u8();
  if (kind < static_cast<std::uint8_t>(LogRecord::Kind::Event) ||
      kind > static_cast<std::uint8_t>(LogRecord::Kind::BindLock)) {
    rd.fail("bad record kind");
  }
  r.kind = static_cast<LogRecord::Kind>(kind);
  switch (r.kind) {
    case LogRecord::Kind::Event: {
      r.event = decode_event(rd);
      r.master_payload = rd.bytes(rd.u64());
      const std::uint8_t endian = rd.u8();
      const std::uint8_t ldf = rd.u8();
      if (endian > 1 || ldf > 2) rd.fail("bad master sender summary");
      r.master_sender.endian = static_cast<plat::Endian>(endian);
      r.master_sender.long_double_format =
          static_cast<plat::LongDoubleFormat>(ldf);
      break;
    }
    case LogRecord::Kind::SetBarrierCount:
    case LogRecord::Kind::BindLock:
      r.index = rd.u32();
      r.value = rd.u32();
      break;
  }
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

ReplicationClient::Result ReplicationSender::append(const LogRecord& r) {
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

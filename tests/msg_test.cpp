// Tests for the message layer: frame codec, in-process channels, and the
// loopback TCP transport.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "msg/endpoint.hpp"
#include "msg/message.hpp"
#include "msg/tcp.hpp"

namespace msg = hdsm::msg;
namespace plat = hdsm::plat;

namespace {

msg::Message sample_message() {
  msg::Message m;
  m.type = msg::MsgType::UnlockRequest;
  m.sync_id = 3;
  m.rank = 7;
  m.seq = 42;
  m.sender.endian = plat::Endian::Big;
  m.sender.long_double_format = plat::LongDoubleFormat::Binary128;
  m.tag = "(4,56169)";
  m.payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  return m;
}

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

void expect_equal(const msg::Message& a, const msg::Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.sync_id, b.sync_id);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.sender.endian, b.sender.endian);
  EXPECT_EQ(a.sender.long_double_format, b.sender.long_double_format);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.payload, b.payload);
}

}  // namespace

TEST(Framing, RoundTrip) {
  const msg::Message m = sample_message();
  const std::vector<std::byte> frame = msg::encode_frame(m);
  EXPECT_EQ(frame.size(), m.wire_size());
  msg::FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  msg::Message out;
  ASSERT_TRUE(dec.next(out));
  expect_equal(m, out);
  EXPECT_FALSE(dec.next(out));
}

TEST(Framing, ByteAtATimeFeeding) {
  const msg::Message m = sample_message();
  const std::vector<std::byte> frame = msg::encode_frame(m);
  msg::FrameDecoder dec;
  msg::Message out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.feed(&frame[i], 1);
    ASSERT_FALSE(dec.next(out)) << "complete too early at byte " << i;
  }
  dec.feed(&frame[frame.size() - 1], 1);
  ASSERT_TRUE(dec.next(out));
  expect_equal(m, out);
}

TEST(Framing, MultipleMessagesInOneBuffer) {
  msg::Message a = sample_message();
  msg::Message b = sample_message();
  b.type = msg::MsgType::LockGrant;
  b.payload.clear();
  std::vector<std::byte> buf = msg::encode_frame(a);
  const std::vector<std::byte> fb = msg::encode_frame(b);
  buf.insert(buf.end(), fb.begin(), fb.end());
  msg::FrameDecoder dec;
  dec.feed(buf.data(), buf.size());
  msg::Message out;
  ASSERT_TRUE(dec.next(out));
  expect_equal(a, out);
  ASSERT_TRUE(dec.next(out));
  expect_equal(b, out);
  EXPECT_FALSE(dec.next(out));
}

TEST(Framing, BadMagicRejected) {
  std::vector<std::byte> junk(64, std::byte{0x5A});
  msg::FrameDecoder dec;
  dec.feed(junk.data(), junk.size());
  msg::Message out;
  EXPECT_THROW(dec.next(out), std::runtime_error);
}

TEST(Framing, BadTypeRejected) {
  // 0 and 200 were never types; 15-17 are the retired multi-shard
  // directory's redirect and pending-pull frames (docs/PROTOCOL.md §7).
  for (const std::uint8_t type : {0, 15, 16, 17, 200}) {
    msg::Message m = sample_message();
    std::vector<std::byte> frame = msg::encode_frame(m);
    frame[4] = std::byte{type};  // type field
    msg::FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    msg::Message out;
    EXPECT_THROW(dec.next(out), std::runtime_error) << int{type};
  }
  // The types around the reserved gap keep their numbers.
  EXPECT_EQ(static_cast<int>(msg::MsgType::MetricsReport), 14);
  EXPECT_EQ(static_cast<int>(msg::MsgType::ReplAppend), 18);
  EXPECT_EQ(static_cast<int>(msg::MsgType::ReplAck), 19);
}

TEST(Framing, FrameHeaderCarriesAux) {
  // aux rides the 32-byte frame header (docs/PROTOCOL.md §1) and must
  // survive an encode/decode round trip bit-exactly.
  msg::Message m = sample_message();
  m.type = msg::MsgType::LockGrant;
  m.seq = 17;
  m.aux = 0xa5a50f0fu;
  const std::vector<std::byte> frame = msg::encode_frame(m);
  EXPECT_EQ(frame.size(), 32 + m.tag.size() + m.payload.size());
  EXPECT_EQ(m.wire_size(), frame.size());
  msg::FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  msg::Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.type, msg::MsgType::LockGrant);
  EXPECT_EQ(out.seq, 17u);
  EXPECT_EQ(out.sync_id, 3u);
  EXPECT_EQ(out.aux, 0xa5a50f0fu);
}

TEST(Framing, GoldenHeaderBytes) {
  // The exact header docs/PROTOCOL.md §1 specifies, byte for byte.
  msg::Message m;
  m.type = msg::MsgType::LockGrant;
  m.sender.endian = plat::Endian::Big;
  m.sender.long_double_format = plat::LongDoubleFormat::X87Extended;
  m.sync_id = 0x01020304u;
  m.rank = 0x05060708u;
  m.seq = 0x090a0b0cu;
  m.aux = 0x0d0e0f10u;
  m.tag = "(4,1)";
  m.payload = {std::byte{0xaa}, std::byte{0xbb}, std::byte{0xcc}};
  const std::vector<std::byte> frame = msg::encode_frame(m);
  const std::vector<std::byte> golden = bytes({
      0x48, 0x44, 0x53, 0x4d,  // magic "HDSM"
      0x03, 0x01, 0x01, 0x04,  // type, endian, ld format, version
      0x01, 0x02, 0x03, 0x04,  // sync_id
      0x05, 0x06, 0x07, 0x08,  // rank
      0x09, 0x0a, 0x0b, 0x0c,  // seq
      0x0d, 0x0e, 0x0f, 0x10,  // aux
      0x00, 0x00, 0x00, 0x05,  // tag length
      0x00, 0x00, 0x00, 0x03,  // payload length
      '(', '4', ',', '1', ')', 0xaa, 0xbb, 0xcc});
  EXPECT_EQ(frame, golden);
}

TEST(Framing, OlderFrameVersionRefused) {
  // A well-formed frame of the 40-byte layout (byte 7 = 0, a u32
  // shard-map epoch word, a u64 payload length) must be refused, not
  // misparsed.
  const std::vector<std::byte> old = bytes({
      0x48, 0x44, 0x53, 0x4d, 0x02, 0x00, 0x00, 0x00,  // LockRequest, v0
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,  // sync_id, rank
      0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01,  // seq, epoch word
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // aux, tag length
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});  // payload length
  msg::FrameDecoder dec;
  dec.feed(old.data(), old.size());
  msg::Message out;
  EXPECT_THROW(dec.next(out), std::runtime_error);

  // Versions 2 and 3 had this 32-byte header, but version 2 had no
  // strided update tags and version 3 carried run lists in its ReplAppend
  // records.
  std::vector<std::byte> v2 = bytes({
      0x48, 0x44, 0x53, 0x4d, 0x02, 0x00, 0x00, 0x02,  // LockRequest, v2
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,  // sync_id, rank
      0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00,  // seq, aux
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});  // tag, payload len
  msg::FrameDecoder dec2;
  dec2.feed(v2.data(), v2.size());
  EXPECT_THROW(dec2.next(out), std::runtime_error);
  v2[7] = std::byte{3};
  msg::FrameDecoder dec3;
  dec3.feed(v2.data(), v2.size());
  EXPECT_THROW(dec3.next(out), std::runtime_error);
}

TEST(Framing, HostileLengthsNeverReadPastTheBuffer) {
  // A peer controls both length fields.  Whatever they claim, the decoder
  // must refuse the frame (std::runtime_error) or wait for more bytes —
  // never wrap the frame size and read past the 40 bytes it was fed.
  const auto expect_refused_or_pending = [](const std::vector<std::byte>& b) {
    msg::FrameDecoder dec;
    dec.feed(b.data(), b.size());
    msg::Message out;
    try {
      EXPECT_FALSE(dec.next(out));
    } catch (const std::runtime_error&) {
    }
  };
  const std::vector<std::byte> head = bytes({
      0x48, 0x44, 0x53, 0x4d, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
  const auto frame = [&head](std::initializer_list<int> tail) {
    std::vector<std::byte> f = head;
    const std::vector<std::byte> t = bytes(tail);
    f.insert(f.end(), t.begin(), t.end());
    return f;
  };
  // The 40-byte layout: tag length 1000 and payload length 2^64 - 1000
  // sum to 40 modulo 2^64; tag length 0 and payload length 2^64 - 1 ask
  // for a frame no vector can hold.
  expect_refused_or_pending(frame({0x00, 0x00, 0x00, 0x00,
                                   0x00, 0x00, 0x03, 0xe8,
                                   0xff, 0xff, 0xff, 0xff,
                                   0xff, 0xff, 0xfc, 0x18}));
  expect_refused_or_pending(frame({0x00, 0x00, 0x00, 0x00,
                                   0x00, 0x00, 0x00, 0x00,
                                   0xff, 0xff, 0xff, 0xff,
                                   0xff, 0xff, 0xff, 0xff}));
  // The 32-byte layout (version 2): u32 tag length 2^32 - 1 and payload
  // length 1000, followed by tag bytes that the 40-byte layout would read
  // as the wrapping u64 payload length above; then both lengths maximal.
  std::vector<std::byte> v2 = frame({0xff, 0xff, 0xff, 0xff,
                                     0x00, 0x00, 0x03, 0xe8,
                                     0xff, 0xff, 0xff, 0xff,
                                     0xff, 0xff, 0xfc, 0x18});
  v2[7] = std::byte{2};
  expect_refused_or_pending(v2);
  v2 = frame({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
              0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
  v2[7] = std::byte{2};
  expect_refused_or_pending(v2);
}

TEST(Framing, EmptyTagAndPayload) {
  msg::Message m;
  m.type = msg::MsgType::JoinAck;
  const std::vector<std::byte> frame = msg::encode_frame(m);
  msg::FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  msg::Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_TRUE(out.tag.empty());
  EXPECT_TRUE(out.payload.empty());
}

TEST(Framing, LargePayload) {
  msg::Message m = sample_message();
  m.payload.assign(1 << 20, std::byte{0x77});
  const std::vector<std::byte> frame = msg::encode_frame(m);
  msg::FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  msg::Message out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.payload.size(), std::size_t{1 << 20});
  EXPECT_EQ(out.payload, m.payload);
}

// ---- channels ---------------------------------------------------------------

TEST(Channel, PingPong) {
  auto [a, b] = msg::make_channel_pair();
  a->send(sample_message());
  const msg::Message m = b->recv();
  expect_equal(sample_message(), m);
  msg::Message reply;
  reply.type = msg::MsgType::UnlockAck;
  b->send(reply);
  EXPECT_EQ(a->recv().type, msg::MsgType::UnlockAck);
}

TEST(Channel, FifoOrder) {
  auto [a, b] = msg::make_channel_pair();
  for (std::uint32_t i = 0; i < 100; ++i) {
    msg::Message m;
    m.type = msg::MsgType::Hello;
    m.sync_id = i;
    a->send(m);
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(b->recv().sync_id, i);
  }
}

TEST(Channel, RecvForTimesOut) {
  auto [a, b] = msg::make_channel_pair();
  msg::Message out;
  EXPECT_FALSE(b->recv_for(out, std::chrono::milliseconds(20)));
  a->send(sample_message());
  EXPECT_TRUE(b->recv_for(out, std::chrono::milliseconds(1000)));
}

// The reply wait spins before it parks on the condvar; a timeout shorter
// or longer than the spin still means "nothing came for this long".
TEST(Channel, RecvForStillTimesOut) {
  auto [a, b] = msg::make_channel_pair();
  msg::Message out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(b->recv_for(out, std::chrono::milliseconds(2)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(2));
}

// A frame that arrives long after the spin budget still wakes a parked
// recv(), which must not mistake its own wait for a close.
TEST(Channel, RecvWaitsPastTheSpin) {
  auto [a, b] = msg::make_channel_pair();
  std::thread t([ep = a.get()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ep->send(sample_message());
  });
  expect_equal(sample_message(), b->recv());
  t.join();
}

// Each round's close lands somewhere in the consumer's wait — before it,
// inside the spin, or after the park — and every one must surface as
// ChannelClosed, for the blocking and the timed receive alike.
TEST(Channel, CloseDuringSpinThrows) {
  for (int round = 0; round < 200; ++round) {
    auto [a, b] = msg::make_channel_pair();
    std::atomic<bool> waiting{false};
    std::thread t([ep = b.get(), &waiting, timed = round % 2 == 1] {
      waiting.store(true);
      msg::Message out;
      if (timed) {
        EXPECT_THROW(ep->recv_for(out, std::chrono::seconds(30)),
                     msg::ChannelClosed);
      } else {
        EXPECT_THROW(ep->recv(), msg::ChannelClosed);
      }
    });
    while (!waiting.load()) std::this_thread::yield();
    a->close();
    t.join();
  }
}

TEST(Channel, CloseUnblocksPeer) {
  auto [a, b] = msg::make_channel_pair();
  std::thread t([ep = b.get()] {
    EXPECT_THROW(ep->recv(), msg::ChannelClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  a->close();
  t.join();
  EXPECT_THROW(a->send(sample_message()), msg::ChannelClosed);
}

TEST(Channel, ByteCountersAdvance) {
  auto [a, b] = msg::make_channel_pair();
  a->send(sample_message());
  b->recv();
  EXPECT_GT(a->bytes_sent(), 0u);
  EXPECT_EQ(a->bytes_sent(), b->bytes_received());
}

TEST(Channel, CrossThreadTraffic) {
  auto [a, b] = msg::make_channel_pair();
  constexpr int kCount = 500;
  std::thread producer([ep = a.get()] {
    for (int i = 0; i < kCount; ++i) {
      msg::Message m;
      m.type = msg::MsgType::Hello;
      m.sync_id = static_cast<std::uint32_t>(i);
      ep->send(m);
    }
  });
  int received = 0;
  while (received < kCount) {
    EXPECT_EQ(b->recv().sync_id, static_cast<std::uint32_t>(received));
    ++received;
  }
  producer.join();
}

// ---- TCP --------------------------------------------------------------------

TEST(Tcp, LoopbackRoundTrip) {
  msg::TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);
  msg::EndpointPtr client_ep;
  std::thread client([&] { client_ep = msg::tcp_connect(listener.port()); });
  msg::EndpointPtr server_ep = listener.accept();
  client.join();

  client_ep->send(sample_message());
  expect_equal(sample_message(), server_ep->recv());

  msg::Message big = sample_message();
  big.payload.assign(300000, std::byte{0x42});
  server_ep->send(big);
  const msg::Message got = client_ep->recv();
  EXPECT_EQ(got.payload.size(), big.payload.size());
  EXPECT_EQ(got.payload, big.payload);
}

TEST(Tcp, RecvForTimeoutAndClose) {
  msg::TcpListener listener(0);
  msg::EndpointPtr client_ep;
  std::thread client([&] { client_ep = msg::tcp_connect(listener.port()); });
  msg::EndpointPtr server_ep = listener.accept();
  client.join();

  msg::Message out;
  EXPECT_FALSE(server_ep->recv_for(out, std::chrono::milliseconds(30)));
  client_ep->close();
  EXPECT_THROW(server_ep->recv(), msg::ChannelClosed);
}

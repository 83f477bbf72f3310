// Robustness sweeps: every wire-facing decoder must reject arbitrary
// garbage with an exception — never crash, hang, or silently accept.
// Deterministic pseudo-random corpora stand in for a fuzzer (no libFuzzer
// in this environment); mutation tests flip bits in valid inputs.
#include <gtest/gtest.h>

#include <random>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/update.hpp"
#include "mig/io_state.hpp"
#include "mig/thread_state.hpp"
#include "msg/message.hpp"
#include "tags/tag.hpp"

namespace dsm = hdsm::dsm;
namespace mig = hdsm::mig;
namespace msg = hdsm::msg;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;

namespace {

std::vector<std::byte> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng());
  return out;
}

std::string random_ascii(std::mt19937_64& rng, std::size_t n) {
  static const char chars[] = "()0123456789,-x ";
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(chars[rng() % (sizeof(chars) - 1)]);
  }
  return s;
}

}  // namespace

TEST(Fuzz, TagParseNeverCrashes) {
  std::mt19937_64 rng(101);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string text = random_ascii(rng, rng() % 64);
    try {
      const tags::Tag t = tags::Tag::parse(text);
      // Accepted input must round-trip.
      EXPECT_EQ(tags::Tag::parse(t.to_string()), t);
    } catch (const std::invalid_argument&) {
      // rejection is fine
    }
  }
}

TEST(Fuzz, FrameDecoderRejectsGarbageStreams) {
  std::mt19937_64 rng(103);
  for (int iter = 0; iter < 1000; ++iter) {
    msg::FrameDecoder dec;
    const std::vector<std::byte> buf = random_bytes(rng, 16 + rng() % 256);
    dec.feed(buf.data(), buf.size());
    msg::Message out;
    try {
      while (dec.next(out)) {
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, FrameDecoderBitflipMutations) {
  msg::Message m;
  m.type = msg::MsgType::UnlockRequest;
  m.sync_id = 2;
  m.rank = 3;
  m.tag = "(4,10)";
  m.payload.assign(40, std::byte{7});
  const std::vector<std::byte> frame = msg::encode_frame(m);
  std::mt19937_64 rng(104);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> mut = frame;
    const std::size_t pos = rng() % mut.size();
    mut[pos] ^= static_cast<std::byte>(1 << (rng() % 8));
    msg::FrameDecoder dec;
    msg::Message out;
    try {
      dec.feed(mut.data(), mut.size());
      if (dec.next(out)) {
        // A surviving frame must at least be self-consistent in length.
        EXPECT_LE(out.payload.size(), mut.size());
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Fuzz, UpdateBlockDecoderNeverCrashes) {
  std::mt19937_64 rng(105);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::vector<std::byte> buf = random_bytes(rng, rng() % 200);
    try {
      (void)dsm::decode_update_blocks(buf);
    } catch (const std::runtime_error&) {
    } catch (const std::bad_alloc&) {
    } catch (const std::length_error&) {
    }
  }
}

TEST(Fuzz, UpdateBlockBitflipMutations) {
  std::vector<dsm::UpdateBlock> blocks(2);
  blocks[0].row = 2;
  blocks[0].tag = "(4,8)";
  blocks[0].data.assign(32, std::byte{1});
  blocks[1].row = 4;
  blocks[1].tag = "(8,1)";
  blocks[1].data.assign(8, std::byte{2});
  const std::vector<std::byte> payload = dsm::encode_update_blocks(blocks);
  std::mt19937_64 rng(106);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> mut = payload;
    mut[rng() % mut.size()] ^= static_cast<std::byte>(1 << (rng() % 8));
    try {
      (void)dsm::decode_update_blocks(mut);
    } catch (const std::runtime_error&) {
    } catch (const std::bad_alloc&) {
    } catch (const std::length_error&) {
    }
  }
}

TEST(Fuzz, ThreadStateUnpackNeverCrashes) {
  mig::StateSchema schema;
  schema.register_frame(
      "f", tags::TypeDesc::struct_of("L", {{"i", tags::t_int()}}));
  std::mt19937_64 rng(107);
  const auto summary = msg::PlatformSummary::of(plat::solaris_sparc32());
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<std::byte> buf = random_bytes(rng, rng() % 160);
    try {
      (void)mig::unpack_state(buf, schema, plat::linux_ia32(), summary);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, ThreadStateBitflipMutations) {
  mig::StateSchema schema;
  const tags::TypePtr locals =
      tags::TypeDesc::struct_of("L", {{"i", tags::t_int()},
                                      {"d", tags::t_double()}});
  schema.register_frame("f", locals);
  mig::ThreadState state;
  state.rank = 1;
  state.frames.push_back(
      mig::Frame{"f", 2, mig::StructImage(locals, plat::linux_ia32())});
  const std::vector<std::byte> packed = mig::pack_state(state);
  const auto summary = msg::PlatformSummary::of(plat::linux_ia32());
  std::mt19937_64 rng(108);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> mut = packed;
    mut[rng() % mut.size()] ^= static_cast<std::byte>(1 << (rng() % 8));
    try {
      (void)mig::unpack_state(mut, schema, plat::solaris_sparc64(), summary);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, FileAndSessionRecordsNeverCrash) {
  std::mt19937_64 rng(109);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<std::byte> buf = random_bytes(rng, rng() % 64);
    try {
      (void)mig::FileStateRecord::unpack(buf.data(), buf.size());
    } catch (const std::exception&) {
    }
    try {
      (void)mig::SessionRecord::unpack(buf.data(), buf.size());
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, MalformedPayloadsDetachPeerNotHome) {
  // A peer that speaks garbage must be detached; the home node, its other
  // peers, and the master must keep working.
  namespace hdsm_dsm = hdsm::dsm;
  const tags::TypePtr gthv = tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_int(), 16)}});
  hdsm_dsm::ShardedHome home(gthv, plat::linux_ia32());
  msg::EndpointPtr evil_ep = home.attach(1);
  auto good_ep = home.attach(2);
  hdsm_dsm::ShardedRemote good(gthv, plat::solaris_sparc32(), 2,
                               std::move(good_ep));
  home.start();

  // The evil peer sends an unlock for a lock it does not hold, with a
  // garbage payload.
  msg::Message evil;
  evil.type = msg::MsgType::UnlockRequest;
  evil.sync_id = 0;
  evil.rank = 1;
  evil.payload.assign(13, std::byte{0xEE});
  evil_ep->send(evil);

  // The good peer still makes progress.
  good.lock(0);
  good.space().view<std::int32_t>("A").set(0, 5);
  good.unlock(0);
  good.join();
  home.wait_all_joined();  // evil rank was detached, not wedged
  EXPECT_EQ(home.space().view<std::int32_t>("A").get(0), 5);
  home.stop();
}

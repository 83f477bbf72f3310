#include "mig/thread_state.hpp"

#include <stdexcept>

#include "mig/tagged_convert.hpp"
#include "platform/int_codec.hpp"

namespace hdsm::mig {

void StateSchema::register_frame(std::string function, tags::TypePtr locals) {
  frames_[std::move(function)] = std::move(locals);
}

void StateSchema::register_heap_type(std::string name, tags::TypePtr type) {
  heap_types_[std::move(name)] = std::move(type);
}

const tags::TypePtr& StateSchema::frame_type(
    const std::string& function) const {
  auto it = frames_.find(function);
  if (it == frames_.end()) {
    throw std::out_of_range("StateSchema: unknown function " + function);
  }
  return it->second;
}

const tags::TypePtr& StateSchema::heap_type(const std::string& name) const {
  auto it = heap_types_.find(name);
  if (it == heap_types_.end()) {
    throw std::out_of_range("StateSchema: unknown heap type " + name);
  }
  return it->second;
}

namespace {

void put_str(std::vector<std::byte>& out, const std::string& s) {
  plat::append_be(out, 4, static_cast<std::uint32_t>(s.size()));
  const std::byte* p = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

void put_bytes(std::vector<std::byte>& out, const std::vector<std::byte>& b) {
  plat::append_be(out, 8, b.size());
  out.insert(out.end(), b.begin(), b.end());
}

StructImage convert_in(const std::byte* data, std::uint64_t len,
                       const std::string& tag_text, tags::TypePtr type,
                       const plat::PlatformDesc& target,
                       const msg::PlatformSummary& sender) {
  const tags::Tag tag = tags::Tag::parse(tag_text);
  if (tag.described_bytes() != len) {
    throw std::runtime_error("state image size disagrees with its tag");
  }
  StructImage out(std::move(type), target);
  convert_tagged_image(data, tag, sender.endian,
                       sender.long_double_format, out.bytes().data(),
                       out.layout());
  return out;
}

}  // namespace

std::vector<std::byte> pack_state(const ThreadState& state) {
  std::vector<std::byte> out;
  plat::append_be(out, 4, state.rank);
  plat::append_be(out, 4, static_cast<std::uint32_t>(state.frames.size()));
  for (const Frame& f : state.frames) {
    put_str(out, f.function);
    plat::append_be(out, 4, f.label);
    put_str(out, f.locals.tag_text());
    put_bytes(out, f.locals.bytes());
  }
  plat::append_be(out, 4, static_cast<std::uint32_t>(state.heap.size()));
  for (const HeapObject& h : state.heap) {
    plat::append_be(out, 8, h.id);
    put_str(out, h.type_name);
    put_str(out, h.image.tag_text());
    put_bytes(out, h.image.bytes());
  }
  return out;
}

ThreadState unpack_state(std::span<const std::byte> payload,
                         const StateSchema& schema,
                         const plat::PlatformDesc& target,
                         const msg::PlatformSummary& sender) {
  plat::WireReader r(payload.data(), payload.size(), "thread state");
  ThreadState state;
  state.rank = r.u32();
  // A frame encodes to >= 20 bytes, a heap object to >= 24.
  const std::uint32_t nframes = r.count(20);
  state.frames.reserve(nframes);
  for (std::uint32_t i = 0; i < nframes; ++i) {
    std::string function = r.str(r.u32());
    const std::uint32_t label = r.u32();
    const std::string tag_text = r.str(r.u32());
    const std::uint64_t len = r.u64();
    const std::byte* data = r.view(len);
    StructImage locals = convert_in(data, len, tag_text,
                                    schema.frame_type(function), target,
                                    sender);
    state.frames.push_back(
        Frame{std::move(function), label, std::move(locals)});
  }
  const std::uint32_t nheap = r.count(24);
  state.heap.reserve(nheap);
  for (std::uint32_t i = 0; i < nheap; ++i) {
    HeapObject h{0, "", StructImage(tags::t_int(), target)};
    h.id = r.u64();
    h.type_name = r.str(r.u32());
    const std::string tag_text = r.str(r.u32());
    const std::uint64_t len = r.u64();
    const std::byte* data = r.view(len);
    h.image = convert_in(data, len, tag_text, schema.heap_type(h.type_name),
                         target, sender);
    state.heap.push_back(std::move(h));
  }
  r.finish();
  return state;
}

void send_state(msg::Endpoint& ep, const ThreadState& state,
                const plat::PlatformDesc& sender_platform) {
  msg::Message m;
  m.type = msg::MsgType::MigrateState;
  m.rank = state.rank;
  m.sender = msg::PlatformSummary::of(sender_platform);
  m.payload = pack_state(state);
  ep.send(m);
  const msg::Message ack = ep.recv();
  if (ack.type != msg::MsgType::MigrateAck) {
    throw std::logic_error("send_state: expected MigrateAck");
  }
}

ThreadState receive_state(msg::Endpoint& ep, const StateSchema& schema,
                          const plat::PlatformDesc& target) {
  const msg::Message m = ep.recv();
  if (m.type != msg::MsgType::MigrateState) {
    throw std::logic_error("receive_state: expected MigrateState");
  }
  ThreadState state = unpack_state(m.payload, schema, target, m.sender);
  msg::Message ack;
  ack.type = msg::MsgType::MigrateAck;
  ack.rank = state.rank;
  ack.sender = msg::PlatformSummary::of(target);
  ep.send(ack);
  return state;
}

}  // namespace hdsm::mig

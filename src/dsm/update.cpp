#include "dsm/update.hpp"

#include <stdexcept>

#include "platform/int_codec.hpp"

namespace hdsm::dsm {

std::vector<std::byte> encode_update_blocks(
    const std::vector<UpdateBlock>& blocks) {
  std::vector<std::byte> out;
  std::size_t total = 4;
  for (const UpdateBlock& b : blocks) {
    total += update_block_wire_size(b.tag.size(), b.data.size());
  }
  out.reserve(total);
  plat::append_be(out, 4, static_cast<std::uint32_t>(blocks.size()));
  for (const UpdateBlock& b : blocks) {
    plat::append_be(out, 4, b.row);
    plat::append_be(out, 8, b.first_elem);
    plat::append_be(out, 4, static_cast<std::uint32_t>(b.tag.size()));
    plat::append_be(out, 8, b.data.size());
    const std::byte* t = reinterpret_cast<const std::byte*>(b.tag.data());
    out.insert(out.end(), t, t + b.tag.size());
    out.insert(out.end(), b.data.begin(), b.data.end());
  }
  return out;
}

std::vector<UpdateBlockView> decode_update_block_views(
    const std::vector<std::byte>& payload) {
  plat::WireReader r(payload, "update payload");
  // A block's fixed header alone is 24 bytes.
  const std::uint32_t count = r.count(24);
  std::vector<UpdateBlockView> blocks;
  blocks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    UpdateBlockView b;
    b.row = r.u32();
    b.first_elem = r.u64();
    const std::uint32_t tag_field = r.u32();
    b.compressed = (tag_field & kCompressedTagFlag) != 0;
    const std::uint32_t tag_len = tag_field & ~kCompressedTagFlag;
    b.data_len = r.u64();
    b.tag = std::string_view(
        reinterpret_cast<const char*>(r.view(tag_len)), tag_len);
    b.data = r.view(b.data_len);
    blocks.push_back(b);
  }
  r.finish();
  return blocks;
}

std::vector<UpdateBlock> decode_update_blocks(
    const std::vector<std::byte>& payload) {
  const std::vector<UpdateBlockView> views =
      decode_update_block_views(payload);
  std::vector<UpdateBlock> blocks;
  blocks.reserve(views.size());
  for (const UpdateBlockView& v : views) {
    if (v.compressed) {
      // The copying decoder is the reference/test form of the wire; it has
      // no tag context to size a decompression, so compressed blocks only
      // travel through SyncEngine's validate path.
      throw std::runtime_error("update block is compressed");
    }
    UpdateBlock b;
    b.row = v.row;
    b.first_elem = v.first_elem;
    b.tag.assign(v.tag);
    b.data.assign(v.data, v.data + v.data_len);
    blocks.push_back(std::move(b));
  }
  return blocks;
}

}  // namespace hdsm::dsm

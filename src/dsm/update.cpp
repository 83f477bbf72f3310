#include "dsm/update.hpp"

#include <algorithm>
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

namespace {

/// Append elements [first, first + n) of `row` to `out` as append_element
/// would one by one, in constant time.
void append_span(std::vector<idx::UpdateRun>& out, std::uint32_t row,
                 std::uint64_t first, std::uint64_t n) {
  idx::append_element(out, row, first);
  if (n == 1) return;
  if (out.back().stride == 1) {
    out.back().count += n - 1;
  } else {
    out.push_back(idx::UpdateRun{row, first + 1, n - 1});
  }
}

/// Append the union of `buf.cluster` — runs of one row, sorted by first
/// element, whose spans overlap — to `out`, re-coalesced by
/// idx::append_element.  Contiguous runs stay spans; only strided runs are
/// expanded to their elements, so the work is bounded by those.
void merge_cluster(std::vector<idx::UpdateRun>& out, MergeBuffers& buf) {
  const std::uint32_t row = buf.cluster.front().row;
  auto& spans = buf.spans;  // [begin, end)
  auto& elems = buf.elems;
  spans.clear();
  elems.clear();
  for (const idx::UpdateRun& r : buf.cluster) {
    if (r.stride == 1) {
      const std::uint64_t end = r.first_elem + r.count;
      if (!spans.empty() && r.first_elem <= spans.back().second) {
        spans.back().second = std::max(spans.back().second, end);
      } else {
        spans.emplace_back(r.first_elem, end);
      }
      continue;
    }
    for (std::uint64_t k = 0; k < r.count; ++k) {
      elems.push_back(r.first_elem + k * r.stride);
    }
  }
  std::sort(elems.begin(), elems.end());
  auto s = spans.begin();
  for (const std::uint64_t e : elems) {
    for (; s != spans.end() && s->second <= e; ++s) {
      append_span(out, row, s->first, s->second - s->first);
    }
    if (s == spans.end() || e < s->first) idx::append_element(out, row, e);
  }
  for (; s != spans.end(); ++s) {
    append_span(out, row, s->first, s->second - s->first);
  }
}

}  // namespace

void merge_runs(std::vector<idx::UpdateRun>& into,
                std::span<const idx::UpdateRun> add, MergeBuffers& buf) {
  if (add.empty()) return;
  // A diff's runs arrive sorted; a remote's payload is untrusted and may
  // list its blocks in any order.
  if (!std::is_sorted(add.begin(), add.end(), run_before)) {
    buf.sorted.assign(add.begin(), add.end());
    std::sort(buf.sorted.begin(), buf.sorted.end(), run_before);
    add = buf.sorted;
  }
  buf.old.assign(into.begin(), into.end());
  std::vector<idx::UpdateRun>& out = into;
  out.clear();
  // Runs whose spans overlap a strided run's, gathered until the next run
  // starts past all of them.
  std::vector<idx::UpdateRun>& cluster = buf.cluster;
  cluster.clear();
  std::uint64_t cluster_last = 0;
  const auto push = [&](const idx::UpdateRun& cur) {
    if (!cluster.empty()) {
      if (cur.row == cluster.front().row && cur.first_elem <= cluster_last) {
        cluster.push_back(cur);
        cluster_last = std::max(cluster_last, cur.last_elem());
        return;
      }
      merge_cluster(out, buf);
      cluster.clear();
    }
    if (!out.empty() && cur.row == out.back().row) {
      idx::UpdateRun& prev = out.back();
      const std::uint64_t prev_end = prev.first_elem + prev.count;
      if (prev.stride == 1 && cur.stride == 1 && cur.first_elem <= prev_end) {
        prev.count = std::max(prev_end, cur.first_elem + cur.count) -
                     prev.first_elem;
        return;
      }
      if (cur.first_elem <= prev.last_elem()) {
        cluster.assign({prev, cur});
        cluster_last = std::max(prev.last_elem(), cur.last_elem());
        out.pop_back();
        return;
      }
    }
    out.push_back(cur);
  };
  auto a = buf.old.begin();
  auto b = add.begin();
  while (a != buf.old.end() || b != add.end()) {
    if (b == add.end() || (a != buf.old.end() && !run_before(*b, *a))) {
      push(*a++);
    } else {
      push(*b++);
    }
  }
  if (!cluster.empty()) merge_cluster(out, buf);
}

void merge_runs(std::vector<idx::UpdateRun>& into,
                const std::vector<idx::UpdateRun>& add) {
  MergeBuffers buf;
  merge_runs(into, add, buf);
}

}  // namespace hdsm::dsm

#include "mig/tagged_convert.hpp"

#include <cstring>
#include <stdexcept>

#include "convert/converter.hpp"

namespace hdsm::mig {

namespace {

void expand_items(const std::vector<tags::TagItem>& items,
                  std::uint64_t& offset, std::vector<TagRun>& out) {
  for (const tags::TagItem& it : items) {
    switch (it.kind) {
      case tags::TagItem::Kind::Scalar:
      case tags::TagItem::Kind::Pointer: {
        TagRun r;
        r.offset = offset;
        r.elem_size = static_cast<std::uint32_t>(it.size);
        r.count = it.count;
        r.is_pointer = it.kind == tags::TagItem::Kind::Pointer;
        out.push_back(r);
        offset += it.size * it.count;
        break;
      }
      case tags::TagItem::Kind::Padding: {
        if (it.size == 0) break;  // the ubiquitous "(0,0)" no-padding slot
        TagRun r;
        r.offset = offset;
        r.elem_size = static_cast<std::uint32_t>(it.size);
        r.count = 1;
        r.is_padding = true;
        out.push_back(r);
        offset += it.size;
        break;
      }
      case tags::TagItem::Kind::Aggregate: {
        for (std::uint64_t i = 0; i < it.count; ++i) {
          expand_items(it.children, offset, out);
        }
        break;
      }
    }
  }
}

}  // namespace

std::vector<TagRun> runs_from_tag(const tags::Tag& tag) {
  std::vector<TagRun> out;
  std::uint64_t offset = 0;
  expand_items(tag.items(), offset, out);
  return out;
}

std::vector<RunPair> pair_runs(const std::vector<TagRun>& tag_runs,
                               const std::vector<tags::FlatRun>& layout_runs) {
  std::vector<RunPair> out;
  std::size_t i = 0;
  std::size_t j = 0;
  for (;;) {
    while (i < tag_runs.size() && tag_runs[i].is_padding) ++i;
    while (j < layout_runs.size() &&
           layout_runs[j].cat == tags::FlatRun::Cat::Padding) {
      ++j;
    }
    const bool tag_done = i == tag_runs.size();
    const bool layout_done = j == layout_runs.size();
    if (tag_done && layout_done) return out;
    if (tag_done || layout_done) {
      throw std::invalid_argument("tag and layout run counts differ");
    }
    const TagRun& t = tag_runs[i++];
    const tags::FlatRun& l = layout_runs[j++];
    if (t.count != l.count ||
        t.is_pointer != (l.cat == tags::FlatRun::Cat::Pointer)) {
      throw std::invalid_argument("tag run shape disagrees with layout");
    }
    out.push_back({&t, &l});
  }
}

void convert_tagged_image(const std::byte* src, const tags::Tag& src_tag,
                          plat::Endian src_endian,
                          plat::LongDoubleFormat src_ldf, std::byte* dst,
                          const tags::Layout& dst_layout) {
  plat::PlatformDesc sender;
  sender.name = "tagged-sender";
  sender.endian = src_endian;
  sender.long_double_format = src_ldf;

  const std::vector<TagRun> src_runs = runs_from_tag(src_tag);
  const std::vector<RunPair> pairs = pair_runs(src_runs, dst_layout.runs);
  std::memset(dst, 0, dst_layout.size);
  for (const RunPair& p : pairs) {
    conv::convert_run(src + p.tag->offset, p.tag->elem_size, sender,
                      dst + p.layout->offset, p.layout->elem_size,
                      *dst_layout.platform, p.tag->count, p.layout->cat,
                      p.layout->kind);
  }
}

}  // namespace hdsm::mig

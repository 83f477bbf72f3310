// Conversion driven purely by a received tag (paper §3.2/§4.1): the tag
// carries the *physical* layout of the sender's image (sizes, counts,
// padding); the receiver contributes the *semantic* layout (which runs are
// signed, floating, pointers) from its own TypeDesc.  Together they are
// enough to "make right" without ever seeing the sender's ABI tables.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "tags/layout.hpp"
#include "tags/tag.hpp"

namespace hdsm::mig {

/// Physical run (offset/size/count, pointer/padding flags) reconstructed
/// from a tag.  Value semantics are unknown at this level.
struct TagRun {
  std::uint64_t offset = 0;
  std::uint32_t elem_size = 0;
  std::uint64_t count = 0;
  bool is_pointer = false;
  bool is_padding = false;
};

/// Flatten a tag into physical runs with cumulative offsets.  Aggregates
/// are expanded `count` times, exactly mirroring layout flattening.
std::vector<TagRun> runs_from_tag(const tags::Tag& tag);

/// A tag run and the layout run it describes.
struct RunPair {
  const TagRun* tag = nullptr;
  const tags::FlatRun* layout = nullptr;
};

/// The GThV shape rule: two images describe the same structure when their
/// non-padding runs match one for one, with the same count and
/// pointer-ness; element sizes and padding may differ per platform.
/// Returns the matched pairs in order; throws std::invalid_argument when
/// `tag_runs` and `layout_runs` differ in shape.
std::vector<RunPair> pair_runs(const std::vector<TagRun>& tag_runs,
                               const std::vector<tags::FlatRun>& layout_runs);

/// Convert `src` (described by `src_tag`, byte order `src_endian`, extended
/// floats per `src_ldf`) into `dst` laid out per `dst_layout`.  The tag must
/// have the layout's shape (pair_runs); throws std::invalid_argument
/// otherwise.
void convert_tagged_image(const std::byte* src, const tags::Tag& src_tag,
                          plat::Endian src_endian,
                          plat::LongDoubleFormat src_ldf, std::byte* dst,
                          const tags::Layout& dst_layout);

}  // namespace hdsm::mig

// Update blocks — the unit of propagation in the DSD (paper §4).
//
// "Once a twin/diff has been abstracted to an index, it can be formed into
//  a tag along with the raw data and propagated throughout the DSM system."
//
// A block is (row index, first element, tag, raw element bytes in the
// sender's representation).  Row indexes are architecture independent;
// sizes inside the tag are the sender's, so the receiver can both check
// homogeneity (tag string comparison) and drive CGT-RMR conversion.  A
// strided block's tag is the §3.2 aggregate "((m,1)(p,0),n)": its data is
// the n elements alone, and the receiver skips p bytes after each.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "index/index_table.hpp"
#include "msg/message.hpp"

namespace hdsm::dsm {

struct UpdateBlock {
  std::uint32_t row = 0;
  std::uint64_t first_elem = 0;
  std::string tag;               ///< "(m,n)" or "((m,1)(p,0),n)", sender sizes
  std::vector<std::byte> data;   ///< raw bytes, sender representation
};

/// High bit of a block's tag_len field on the wire: set when the block's
/// data bytes are a compressed stream (hdsm::codec, docs/COMPRESSION.md §2b
/// of PROTOCOL.md) instead of raw element bytes.  Tags can never approach
/// 2^31 bytes, so the bit was always zero on legacy wires — a codec-off
/// sender is byte-identical to one that predates the flag.
inline constexpr std::uint32_t kCompressedTagFlag = 0x80000000u;

/// A decoded block that *borrows* its tag and data from the payload buffer
/// instead of copying them — the zero-copy unpack path.  Valid only while
/// the payload vector it was decoded from is alive and unmodified.
struct UpdateBlockView {
  std::uint32_t row = 0;
  std::uint64_t first_elem = 0;
  std::string_view tag;          ///< borrowed from the payload
  const std::byte* data = nullptr;  ///< borrowed from the payload
  std::uint64_t data_len = 0;    ///< wire bytes (compressed length when
                                 ///  `compressed`; raw length otherwise)
  bool compressed = false;       ///< kCompressedTagFlag was set on the wire
};

/// Serialize blocks into a message payload (header fields network order;
/// tag ASCII; data opaque).
std::vector<std::byte> encode_update_blocks(
    const std::vector<UpdateBlock>& blocks);

/// Parse a payload back into blocks; throws std::runtime_error on malformed
/// input.
std::vector<UpdateBlock> decode_update_blocks(
    const std::vector<std::byte>& payload);

/// Zero-copy decode: same validation and framing as decode_update_blocks,
/// but tags and data stay in place in `payload`.  Throws std::runtime_error
/// on malformed input.
std::vector<UpdateBlockView> decode_update_block_views(
    const std::vector<std::byte>& payload);

/// Wire size of one block with `tag_len` tag bytes and `data_len` data
/// bytes (the per-block fixed header is 24 bytes).
constexpr std::size_t update_block_wire_size(std::size_t tag_len,
                                             std::size_t data_len) {
  return 4 + 8 + 4 + 8 + tag_len + data_len;
}

/// The order of a merged run set: row-major, then by first element.
inline bool run_before(const idx::UpdateRun& a, const idx::UpdateRun& b) {
  return a.row != b.row ? a.row < b.row : a.first_elem < b.first_elem;
}

/// Scratch that merge_runs keeps between calls, so that a merge into a run
/// set whose capacity has settled allocates nothing.
struct MergeBuffers {
  std::vector<idx::UpdateRun> old;     ///< `into` as it stood
  std::vector<idx::UpdateRun> sorted;  ///< `add` sorted, when it was not
  std::vector<idx::UpdateRun> cluster;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  std::vector<std::uint64_t> elems;
};

/// Merge `add` into the run set `into`: sorted by run_before, and no two
/// runs of a row with overlapping spans (first to last element).
/// Overlapping or adjacent contiguous runs are unified; runs whose spans
/// overlap a strided run's are expanded to their elements and re-coalesced
/// by idx::append_element (red and black runs of one row union to one
/// contiguous run).  Runs of different rows are never joined, so merging
/// row by row gives the same runs.  `add` may come in any order; it is
/// sorted first only when it is not already, and the two sorted lists are
/// then merged in one linear pass, written back into `into`'s storage.
/// `add` must not alias `into` or `buf`.
void merge_runs(std::vector<idx::UpdateRun>& into,
                std::span<const idx::UpdateRun> add, MergeBuffers& buf);
/// The same with one-off buffers.
void merge_runs(std::vector<idx::UpdateRun>& into,
                const std::vector<idx::UpdateRun>& add);

/// The data plane as the coherence core sees it (coherence_core.hpp): runs
/// in, payload bytes out, and back.  The implementation owns image access
/// and conversion (SyncEngine, the node's whole data plane); the core owns
/// every decision about *what* to pack or apply and *when*.
/// `apply_payload` may throw on a malformed payload — the core turns that
/// into a Detach of the offending peer.
class UpdateCodec {
 public:
  virtual ~UpdateCodec() = default;

  /// Pack `runs` (read from this node's image) into a wire payload.
  virtual std::vector<std::byte> pack_payload(
      const std::vector<idx::UpdateRun>& runs) = 0;

  /// Decode a payload from `sender` and apply it to this node's image;
  /// returns the runs applied (for pending-set merging).
  virtual std::vector<idx::UpdateRun> apply_payload(
      const std::vector<std::byte>& payload,
      const msg::PlatformSummary& sender) = 0;
};

}  // namespace hdsm::dsm

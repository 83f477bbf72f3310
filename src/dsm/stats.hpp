// Data-sharing cost accounting, matching Equation (1) of the paper:
//
//   C_share = t_index + t_tag + t_pack + t_unpack + t_conv
//
//   t_index  - mapping writes to the protected global space into indexes
//              (the element walk of each written page against its twin)
//   t_tag    - generating tags from the indexes
//   t_pack   - packing run bytes into update messages
//   t_unpack - parsing received messages and their tags
//   t_conv   - converting (or memcpy'ing) received data into the local image
//
// Every node accumulates its own buckets; the figure benches sum across a
// platform pair exactly as the paper's stacked bars do.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hdsm::dsm {

/// Every ShareStats counter, in declaration (= CSV column) order.  The
/// aggregation operator and both CSV emitters are generated from this list,
/// and a static_assert in stats.cpp pins sizeof(ShareStats) to the field
/// count — adding a counter outside this macro no longer compiles, so the
/// CSV emitters can never silently desync from the struct again.
/// Append new counters at the end to keep existing CSV consumers aligned.
#define HDSM_SHARE_STATS_FIELDS(X) \
  X(index_ns)                      \
  X(tag_ns)                        \
  X(pack_ns)                       \
  X(unpack_ns)                     \
  X(conv_ns)                       \
  X(locks)                         \
  X(unlocks)                       \
  X(barriers)                      \
  X(updates_sent)                  \
  X(updates_received)              \
  X(update_bytes_sent)             \
  X(update_bytes_received)         \
  X(dirty_pages)                   \
  X(tags_generated)                \
  X(retries)                       \
  X(timeouts)                      \
  X(duplicates_dropped)            \
  X(reconnects)                    \
  X(plan_cache_hits)               \
  X(plan_cache_misses)             \
  X(adapt_episodes)                \
  X(adapt_switches)                \
  X(fastpath_blocks)               \
  X(object_episodes)               \
  X(objects_shipped)               \
  X(codec_blocks)                  \
  X(codec_raw_bytes)               \
  X(codec_wire_bytes)              \
  X(codec_skipped)                 \
  X(codec_decoded_blocks)          \
  X(codec_decode_rejects)          \
  X(codec_encode_ns)               \
  X(codec_decode_ns)

struct ShareStats {
  // -- Eq.-1 cost buckets, all in nanoseconds of CPU-side work --
  std::uint64_t index_ns = 0;   ///< ns: element walk of written pages
  std::uint64_t tag_ns = 0;     ///< ns: (m,n) tag generation for runs
  std::uint64_t pack_ns = 0;    ///< ns: copying run bytes into wire blocks
  std::uint64_t unpack_ns = 0;  ///< ns: payload decode + tag parsing
  std::uint64_t conv_ns = 0;    ///< ns: CGT-RMR conversion / memcpy apply

  // -- Synchronization operation counts (events) --
  std::uint64_t locks = 0;     ///< count: MTh_lock acquisitions completed
  std::uint64_t unlocks = 0;   ///< count: MTh_unlock releases completed
  std::uint64_t barriers = 0;  ///< count: MTh_barrier episodes completed

  // -- Update traffic (blocks are tagged runs; bytes are element data) --
  std::uint64_t updates_sent = 0;      ///< count: update blocks shipped
  std::uint64_t updates_received = 0;  ///< count: update blocks applied
  std::uint64_t update_bytes_sent = 0;      ///< bytes: element data shipped
  std::uint64_t update_bytes_received = 0;  ///< bytes: element data applied
  std::uint64_t dirty_pages = 0;     ///< count: pages diffed across intervals
  std::uint64_t tags_generated = 0;  ///< count: run tags rendered

  // -- Reliability layer (docs/RELIABILITY.md) --
  std::uint64_t retries = 0;  ///< count: requests retransmitted after timeout
  std::uint64_t timeouts = 0;  ///< count: reply waits that expired
  std::uint64_t duplicates_dropped = 0;  ///< count: sequenced dups discarded
  std::uint64_t reconnects = 0;  ///< count: transport re-establishments

  // -- Conversion-plan cache (SyncOptions::plan_cache, docs/PROTOCOL.md §2) --
  std::uint64_t plan_cache_hits = 0;    ///< count: blocks applied through a
                                        ///  cached (sender,row) conv plan
  std::uint64_t plan_cache_misses = 0;  ///< count: blocks that parsed their
                                        ///  tag and planned from scratch

  // -- Adaptive codec tuner (CodecMode::Adaptive, docs/ADAPTIVITY.md) --
  std::uint64_t adapt_episodes = 0;  ///< count: tuner steps (probe samples)
  std::uint64_t adapt_switches = 0;  ///< count: compress knob changes
  std::uint64_t fastpath_blocks = 0;  ///< count: blocks applied through the
                                      ///  identity/memcpy fast path (the
                                      ///  zero-copy Route::Memcpy apply),
                                      ///  tuner on or off; listed here to
                                      ///  keep its CSV column in place

  // -- Object-granularity sharing mode (hdsm::obj, docs/OBJECTS.md) --
  std::uint64_t object_episodes = 0;  ///< count: pack episodes that shipped
                                      ///  at object granularity
  std::uint64_t objects_shipped = 0;  ///< count: dirty objects shipped
                                      ///  across those episodes

  // -- Predictive update codec (hdsm::codec, docs/COMPRESSION.md) --
  std::uint64_t codec_blocks = 0;     ///< count: blocks shipped compressed
  std::uint64_t codec_raw_bytes = 0;  ///< bytes: raw size of those blocks
  std::uint64_t codec_wire_bytes = 0;  ///< bytes: their compressed wire size
  std::uint64_t codec_skipped = 0;  ///< count: blocks the encoder sized and
                                    ///  shipped raw (compression lost)
  std::uint64_t codec_decoded_blocks = 0;  ///< count: compressed blocks
                                           ///  decoded on apply
  std::uint64_t codec_decode_rejects = 0;  ///< count: payloads rejected for
                                           ///  a malformed compressed block
  std::uint64_t codec_encode_ns = 0;  ///< ns: codec encode (inside t_pack)
  std::uint64_t codec_decode_ns = 0;  ///< ns: codec decode (inside t_unpack)

  std::uint64_t share_ns() const noexcept {
    return index_ns + tag_ns + pack_ns + unpack_ns + conv_ns;
  }

  ShareStats& operator+=(const ShareStats& o) noexcept {
#define HDSM_X(field) field += o.field;
    HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
    return *this;
  }

  std::string to_string() const;

  /// Header + one-row CSV rendering (for plotting pipelines; the figure
  /// benches emit these when HDSM_BENCH_CSV names a directory).  Both are
  /// generated from HDSM_SHARE_STATS_FIELDS (plus the derived share_ns
  /// column), so they cannot drift from the struct.
  static std::string csv_header();
  std::string to_csv_row() const;
};

/// Mirror every ShareStats counter into a metrics snapshot under a
/// "stats." prefix.  Generated from HDSM_SHARE_STATS_FIELDS, so the
/// cluster scrape (docs/OBSERVABILITY.md) can never desync from the
/// struct — and carries the Eq.-1 buckets even when obs recording is off.
void append_share_stats(obs::MetricsSnapshot& out, const ShareStats& s);

/// Historic name for the tree-wide monotonic timer (obs::ScopedTimer);
/// the three hand-rolled copies of this class were deduplicated there.
using StopWatch = obs::ScopedTimer;

}  // namespace hdsm::dsm

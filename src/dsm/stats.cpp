#include "dsm/stats.hpp"

#include <sstream>
#include <string_view>

namespace hdsm::dsm {

namespace {

constexpr std::size_t kShareStatsFieldCount =
#define HDSM_X(field) +1
    HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
    ;

// Every field must be listed in HDSM_SHARE_STATS_FIELDS: the struct is all
// uint64_t counters, so its size pins the field count.  If this fires you
// added a counter to ShareStats without adding it to the X-macro (or vice
// versa) — the CSV emitters and operator+= would silently miss it.
static_assert(sizeof(ShareStats) ==
                  kShareStatsFieldCount * sizeof(std::uint64_t),
              "ShareStats fields and HDSM_SHARE_STATS_FIELDS disagree");

}  // namespace

std::string ShareStats::to_string() const {
  std::ostringstream os;
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  os << "t_index=" << ms(index_ns) << "ms"
     << " t_tag=" << ms(tag_ns) << "ms"
     << " t_pack=" << ms(pack_ns) << "ms"
     << " t_unpack=" << ms(unpack_ns) << "ms"
     << " t_conv=" << ms(conv_ns) << "ms"
     << " (C_share=" << ms(share_ns()) << "ms)"
     << " locks=" << locks << " unlocks=" << unlocks
     << " barriers=" << barriers << " updates_sent=" << updates_sent
     << " updates_received=" << updates_received
     << " bytes_sent=" << update_bytes_sent
     << " bytes_received=" << update_bytes_received
     << " dirty_pages=" << dirty_pages << " tags=" << tags_generated;
  if (retries != 0 || timeouts != 0 || duplicates_dropped != 0 ||
      reconnects != 0) {
    os << " retries=" << retries << " timeouts=" << timeouts
       << " dups_dropped=" << duplicates_dropped
       << " reconnects=" << reconnects;
  }
  if (plan_cache_hits != 0 || plan_cache_misses != 0 ||
      fastpath_blocks != 0) {
    os << " plan_hits=" << plan_cache_hits
       << " plan_misses=" << plan_cache_misses
       << " fastpath_blocks=" << fastpath_blocks;
  }
  if (adapt_episodes != 0) {
    os << " adapt_episodes=" << adapt_episodes
       << " adapt_switches=" << adapt_switches;
  }
  if (object_episodes != 0) {
    os << " object_episodes=" << object_episodes
       << " objects_shipped=" << objects_shipped;
  }
  if (codec_blocks != 0 || codec_skipped != 0 || codec_decoded_blocks != 0 ||
      codec_decode_rejects != 0) {
    os << " codec_blocks=" << codec_blocks
       << " codec_raw_bytes=" << codec_raw_bytes
       << " codec_wire_bytes=" << codec_wire_bytes
       << " codec_skipped=" << codec_skipped
       << " codec_decoded=" << codec_decoded_blocks
       << " codec_rejects=" << codec_decode_rejects;
  }
  return os.str();
}

// The derived share_ns column sits between conv_ns and locks (its historic
// position); everything else follows HDSM_SHARE_STATS_FIELDS order.

std::string ShareStats::csv_header() {
  std::string out;
  const auto add = [&out](std::string_view name) {
    if (!out.empty()) out += ',';
    out += name;
    if (name == "conv_ns") out += ",share_ns";
  };
#define HDSM_X(field) add(#field);
  HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
  return out;
}

std::string ShareStats::to_csv_row() const {
  std::ostringstream os;
  bool first = true;
  const auto add = [&](std::string_view name, std::uint64_t value) {
    if (!first) os << ',';
    first = false;
    os << value;
    if (name == "conv_ns") os << ',' << share_ns();
  };
#define HDSM_X(field) add(#field, field);
  HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
  return os.str();
}

void append_share_stats(obs::MetricsSnapshot& out, const ShareStats& s) {
#define HDSM_X(field) out.counters["stats." #field] += s.field;
  HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
}

}  // namespace hdsm::dsm

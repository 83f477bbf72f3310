#include "dsm/sync_engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "codec/codec.hpp"
#include "convert/converter.hpp"
#include "platform/int_codec.hpp"
#include "platform/strided_copy.hpp"

namespace hdsm::dsm {

namespace {

/// The single run a wire tag describes.
struct ParsedRunTag {
  std::uint32_t elem_size = 0;
  std::uint64_t count = 0;
  std::uint32_t stride = 1;
  bool is_pointer = false;
};

/// The one scalar or pointer element of a run tag's item.
void parse_element(const tags::TagItem& it, ParsedRunTag& out) {
  switch (it.kind) {
    case tags::TagItem::Kind::Scalar:
      break;
    case tags::TagItem::Kind::Pointer:
      out.is_pointer = true;
      break;
    default:
      throw std::runtime_error("update tag must describe a scalar/pointer run");
  }
  if (it.size > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("update tag element size out of range");
  }
  out.elem_size = static_cast<std::uint32_t>(it.size);
}

/// "(m,n)", or the strided "((m,1)(p,0),n)": n elements of m bytes, each
/// followed by p bytes the block does not carry, so p must be a whole
/// number of elements and n at least 2.  Any other shape throws.
ParsedRunTag parse_run_tag(std::string_view text) {
  const tags::Tag tag = tags::Tag::parse(text);
  if (tag.items().size() != 1) {
    throw std::runtime_error("update tag must contain exactly one run");
  }
  const tags::TagItem& it = tag.items().front();
  ParsedRunTag out;
  if (it.kind != tags::TagItem::Kind::Aggregate) {
    parse_element(it, out);
    out.count = it.count;
    return out;
  }
  const std::vector<tags::TagItem>& c = it.children;
  if (c.size() != 2 || c[0].kind == tags::TagItem::Kind::Aggregate ||
      c[0].count != 1 || c[1].kind != tags::TagItem::Kind::Padding) {
    throw std::runtime_error("strided update tag must be ((m,1)(p,0),n)");
  }
  parse_element(c[0], out);
  const std::uint64_t m = c[0].size;
  const std::uint64_t p = c[1].size;
  if (m == 0 || p == 0 || p % m != 0 ||
      p / m >= std::numeric_limits<std::uint32_t>::max() || it.count < 2) {
    throw std::runtime_error("strided update tag has a bad stride or count");
  }
  out.stride = static_cast<std::uint32_t>(p / m + 1);
  out.count = it.count;
  return out;
}

}  // namespace

plat::PlatformDesc wire_platform(const msg::PlatformSummary& s) {
  plat::PlatformDesc p;
  p.name = "wire";
  p.endian = s.endian;
  p.long_double_format = s.long_double_format;
  return p;
}

// -- Plan structures ---------------------------------------------------------

/// One validated block, resolved to a concrete write: where the sender
/// bytes live in the payload, where they land in the image (`count`
/// elements, `dst_step` bytes apart), and which conversion route carries
/// them there.  Built in phase 1 (validate),
/// executed in phase 2 (apply).
struct SyncEngine::BlockPlan {
  const std::byte* src = nullptr;  ///< element bytes inside the payload
  std::uint64_t src_len = 0;
  std::uint32_t src_elem = 0;  ///< sender element size (from the tag)
  std::uint64_t dst_off = 0;   ///< image byte offset
  std::uint64_t dst_len = 0;
  std::uint32_t dst_elem = 0;  ///< this node's element size (from the row)
  std::uint64_t count = 0;
  std::uint64_t dst_step = 0;  ///< image bytes from one element to the next
  conv::Route route = conv::Route::Memcpy;
  tags::FlatRun::Cat cat = tags::FlatRun::Cat::Padding;
  plat::ScalarKind kind = plat::ScalarKind::Int;
  idx::UpdateRun run;
};

/// Cached per-(sender, row) decisions: the tag text seen last time, its
/// parse, and the conversion route — so the steady state (thousands of
/// blocks re-covering the same rows) parses each row's tag once, not once
/// per block.
struct SyncEngine::RowPlan {
  bool valid = false;
  std::string tag_text;  ///< exact tag this plan was parsed from
  std::uint32_t elem_size = 0;
  std::uint64_t count = 0;  ///< count encoded in tag_text
  std::uint32_t stride = 1;  ///< stride encoded in tag_text
  bool is_pointer = false;
  conv::Route route = conv::Route::Memcpy;
};

struct SyncEngine::SenderPlanCache {
  msg::PlatformSummary sender;
  plat::PlatformDesc sender_platform;
  std::vector<RowPlan> rows;
};

SyncEngine::SyncEngine(GlobalSpace& space, const SyncOptions& opts,
                       ShareStats& stats)
    : space_(space), opts_(opts), stats_(stats) {
  if (opts_.conv_threads > 1 || opts_.tuner.pin_conv_threads > 1) {
    throw std::invalid_argument(
        "SyncOptions: the data plane runs one lane per node "
        "(conv_threads and tuner.pin_conv_threads accept at most 1)");
  }
  if (opts_.codec == CodecMode::Adaptive) {
    tuner_ = std::make_unique<adapt::Tuner>(opts_.tuner);
  }
}

SyncEngine::~SyncEngine() = default;

void SyncEngine::sample_episode(const adapt::Signal& s) {
  if (tuner_ == nullptr) return;
  const adapt::Decision& d = tuner_->step(s);
  ++stats_.adapt_episodes;
  const auto episode = static_cast<std::uint32_t>(tuner_->episodes());
  if (trace_ != nullptr) {
    trace_->append(TraceEvent::Kind::ProbeSampled, trace_rank_, episode);
  }
  if (!d.changed) return;
  ++stats_.adapt_switches;
  if (trace_ != nullptr) {
    // In the same episode as (and after) the ProbeSampled above —
    // validator invariant 5.
    trace_->append(TraceEvent::Kind::StrategySwitched, trace_rank_, episode);
  }
}

SyncEngine::SenderPlanCache& SyncEngine::cache_for(
    const msg::PlatformSummary& sender) {
  for (const std::unique_ptr<SenderPlanCache>& c : plan_caches_) {
    if (c->sender == sender) return *c;
  }
  auto cache = std::make_unique<SenderPlanCache>();
  cache->sender = sender;
  cache->sender_platform = wire_platform(sender);
  cache->rows.resize(space_.table().rows().size());
  plan_caches_.push_back(std::move(cache));
  return *plan_caches_.back();
}

// -- Send side ---------------------------------------------------------------

void SyncEngine::start_tracking() {
  if (!opts_.run_source && !space_.region().tracking()) {
    space_.region().begin_tracking();
  }
}

void SyncEngine::stop_tracking() {
  if (space_.region().tracking()) space_.region().end_tracking();
}

std::vector<idx::UpdateRun> SyncEngine::collect_runs(std::uint32_t region) {
  if (opts_.run_source) {
    ObjectRuns obj = opts_.run_source(region);
    if (obj.objects != 0) {
      ++stats_.object_episodes;
      stats_.objects_shipped += obj.objects;
    }
    return std::move(obj.runs);
  }
  obs::ScopedTimer watch;
  mem::TrackedRegion& tracked = space_.region();
  const idx::IndexTable& table = space_.table();
  const std::size_t ps = mem::Region::host_page_size();
  const std::uint64_t image_size = table.image_size();

  // This thread owns the interval, so each changed page is walked in place
  // against its twin as the region hands it over.
  std::vector<idx::UpdateRun> runs;
  const idx::RunRules rules{opts_.coalesce_runs};
  const std::size_t dirty = tracked.collect(
      [&](std::size_t page, const std::byte* twin) {
        const std::size_t base = page * ps;
        if (base >= image_size) return;
        const std::size_t len = std::min(ps, image_size - base);
        idx::diff_runs(table, base, tracked.data() + base, twin, len, rules,
                       runs);
      });
  stats_.dirty_pages += dirty;

  const std::uint64_t diff_ns = watch.lap();
  stats_.index_ns += diff_ns;
  // One measurement, two consumers: the Eq.-1 bucket above and the obs
  // span here see the same diff_ns.
  obs_phase(obs::SpanKind::Diff, diff_ns, dirty);

  // No model reads a collect episode's measurements, but the episode still
  // counts toward the tuner's warmup and dwell windows.
  sample_episode(adapt::Signal{});
  return runs;
}

std::vector<std::byte> SyncEngine::pack_payload(
    const std::vector<idx::UpdateRun>& runs) {
  const idx::IndexTable& table = space_.table();

  obs::ScopedTimer watch;
  // t_tag: render the tag of every run (the paper's sprintf work) back to
  // back into one arena reused across packs, so the steady state allocates
  // nothing here; run i's tag is [tag_offs_[i], tag_offs_[i + 1]).
  tag_arena_.clear();
  tag_offs_.assign(1, 0);
  for (const idx::UpdateRun& run : runs) {
    const idx::IndexRow& row = table.rows().at(run.row);
    tags::append_run_tag(tag_arena_, row.size, run.count, row.is_pointer(),
                         run.stride);
    tag_offs_.push_back(tag_arena_.size());
  }
  const std::uint64_t tag_ns = watch.lap();
  stats_.tag_ns += tag_ns;
  stats_.tags_generated += runs.size();
  obs_phase(obs::SpanKind::Tag, tag_ns, runs.size());

  // t_pack: gather headers, tags, and element bytes straight into one wire
  // buffer — a single allocation and a single copy of the element data (a
  // strided run's elements only, back to back).
  // With the codec engaged, eligible runs are encoded in place instead of
  // copied: the encoder appends to this same buffer only when the
  // compressed form is strictly smaller, so the raw-size reserve below
  // stays an upper bound and the no-extra-allocation property holds.
  // Every run's row was bounds-checked by the tag loop above.
  std::size_t total = 4 + tag_arena_.size();
  for (const idx::UpdateRun& run : runs) {
    total += update_block_wire_size(
        0, static_cast<std::size_t>(run.count * table.rows()[run.row].size));
  }
  const bool codec_on = codec_engaged();
  std::uint64_t encode_ns = 0;
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_coded = 0;
  std::uint64_t coded_blocks = 0;
  std::vector<std::byte> out;
  out.reserve(total);
  plat::append_be(out, 4, static_cast<std::uint32_t>(runs.size()));
  const std::byte* image = space_.region().data();
  const auto* tag_bytes =
      reinterpret_cast<const std::byte*>(tag_arena_.data());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const idx::UpdateRun& run = runs[i];
    const idx::IndexRow& row = table.rows()[run.row];
    const std::byte* data = image + row.offset + run.first_elem * row.size;
    const std::uint64_t len = run.count * row.size;
    const std::size_t step = std::size_t{run.stride} * row.size;
    const std::size_t tag_begin = tag_offs_[i];
    const std::size_t tag_end = tag_offs_[i + 1];
    const auto tag_len = static_cast<std::uint32_t>(tag_end - tag_begin);
    plat::append_be(out, 4, run.row);
    plat::append_be(out, 8, run.first_elem);
    const std::size_t tag_len_pos = out.size();
    plat::append_be(out, 4, tag_len);
    const std::size_t data_len_pos = out.size();
    plat::append_be(out, 8, len);
    out.insert(out.end(), tag_bytes + tag_begin, tag_bytes + tag_end);
    bytes_raw += len;
    bool encoded = false;
    if (codec_on && len >= codec::kMinEncodeBytes &&
        codec::encodable_elem_size(static_cast<std::uint32_t>(row.size)) &&
        !row.is_pointer()) {
      const std::uint64_t t0 = obs::ScopedTimer::now_ns();
      const std::byte* elems = data;
      if (step != row.size) {
        gather_.resize(static_cast<std::size_t>(len));
        plat::strided_copy(gather_.data(), row.size, data, step, row.size,
                           static_cast<std::size_t>(run.count));
        elems = gather_.data();
      }
      const codec::EncodeResult enc =
          codec::encode_run(elems, static_cast<std::size_t>(len),
                            static_cast<std::uint32_t>(row.size), out);
      encode_ns += obs::ScopedTimer::now_ns() - t0;
      if (enc.encoded) {
        // Patch the already-written header: flag the block compressed and
        // shrink its data length to the encoded stream.
        plat::write_uint(out.data() + tag_len_pos, 4, plat::Endian::Big,
                         tag_len | kCompressedTagFlag);
        plat::write_uint(out.data() + data_len_pos, 8, plat::Endian::Big,
                         enc.bytes);
        encoded = true;
        ++coded_blocks;
        bytes_coded += enc.bytes;
        stats_.codec_raw_bytes += len;
        stats_.codec_wire_bytes += enc.bytes;
      } else {
        ++stats_.codec_skipped;  // sized both predictors; raw was smaller
      }
    }
    if (!encoded) {
      if (step == row.size) {
        out.insert(out.end(), data, data + len);
      } else {
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(len));
        plat::strided_copy(out.data() + at, row.size, data, step, row.size,
                           static_cast<std::size_t>(run.count));
      }
      bytes_coded += len;
    }
    stats_.update_bytes_sent += len;
    ++stats_.updates_sent;
  }
  stats_.codec_blocks += coded_blocks;
  const std::uint64_t pack_ns = watch.lap();
  stats_.pack_ns += pack_ns;
  obs_phase(obs::SpanKind::Pack, pack_ns, runs.size());
  if (encode_ns != 0) {
    stats_.codec_encode_ns += encode_ns;
    obs_phase(obs::SpanKind::CodecEncode, encode_ns, coded_blocks);
  }

  if (tuner_ != nullptr && !runs.empty()) {
    adapt::Signal s;
    s.encode_ns = encode_ns;
    s.bytes_raw = bytes_raw;
    s.bytes_coded = bytes_coded;
    s.codec_on = codec_on;
    sample_episode(s);
  }
  return out;
}

bool SyncEngine::codec_engaged() const noexcept {
  switch (opts_.codec) {
    case CodecMode::Off:
      return false;
    case CodecMode::Forced:
      return true;
    case CodecMode::Adaptive:
      return tuner_->decision().compress;
  }
  return false;
}

void SyncEngine::note_wire(std::uint64_t bytes, std::uint64_t ns) {
  if (tuner_ == nullptr || bytes == 0 || ns == 0) return;
  adapt::Signal s;
  s.wire_ns = ns;
  s.wire_bytes = bytes;
  sample_episode(s);
}

// -- Receive side: phase 1 (validate + plan) ---------------------------------

SyncEngine::ValidatedPayload SyncEngine::validate_payload(
    const std::vector<std::byte>& payload,
    const msg::PlatformSummary& sender) {
  const idx::IndexTable& table = space_.table();
  const plat::PlatformDesc& my_platform = space_.platform();

  const std::vector<UpdateBlockView> views =
      decode_update_block_views(payload);
  SenderPlanCache& cache = cache_for(sender);

  ValidatedPayload result;
  std::vector<BlockPlan>& plans = result.plans;
  std::uint64_t decode_ns = 0;
  std::uint64_t decoded_blocks = 0;
  std::uint64_t memcpy_blocks = 0;
  plans.reserve(views.size());
  for (const UpdateBlockView& v : views) {
    if (v.row >= table.rows().size()) {
      throw std::runtime_error("update block row out of range");
    }
    const idx::IndexRow& row = table.rows()[v.row];
    if (row.is_padding()) {
      throw std::runtime_error("update block targets a padding row");
    }

    // The paper's shortcut (§4, "a string comparison to ensure identical
    // tags") is the plan-cache hit: every block's tag is either compared
    // against the cached text or parsed, never skipped.
    RowPlan& rp = cache.rows[v.row];
    const bool hit = opts_.plan_cache && rp.valid && rp.tag_text == v.tag;
    if (hit) {
      ++stats_.plan_cache_hits;
    } else {
      const ParsedRunTag parsed = parse_run_tag(v.tag);
      if (opts_.plan_cache) ++stats_.plan_cache_misses;
      // The route depends only on (sender rep, row) facts, not the count,
      // so it survives tag changes that merely re-run a different span.
      if (!rp.valid || rp.elem_size != parsed.elem_size) {
        rp.route = conv::plan_route(parsed.elem_size, cache.sender_platform,
                                    row.size, my_platform, row.cat, row.kind,
                                    opts_.bulk_swap_fastpath);
      }
      rp.valid = true;
      rp.tag_text.assign(v.tag);
      rp.elem_size = parsed.elem_size;
      rp.count = parsed.count;
      rp.stride = parsed.stride;
      rp.is_pointer = parsed.is_pointer;
    }

    if (rp.is_pointer != row.is_pointer()) {
      rp.valid = false;  // don't cache a plan that failed validation
      throw std::runtime_error("update tag pointer-ness mismatch");
    }
    const std::uint64_t count = rp.count;
    const std::uint64_t elems = row.element_count();
    // A strided block's span, (count - 1) strides past its first element,
    // must end inside the row; divide rather than multiply, so a hostile
    // count cannot overflow past the check.
    if (rp.stride == 1 ? count > elems || v.first_elem > elems - count
                       : v.first_elem >= elems ||
                             (count - 1) > (elems - 1 - v.first_elem) /
                                               rp.stride) {
      rp.valid = false;
      throw std::runtime_error("update block exceeds row bounds");
    }
    const std::byte* src = v.data;
    std::uint64_t src_len = v.data_len;
    if (v.compressed) {
      // Decompress into scratch during validation: the stream carries the
      // tag's element count or it doesn't decode, and any malformed bytes
      // (truncated, oversized, flipped) throw right here — before anything
      // in this payload has been applied.  Row bounds were checked above,
      // so raw_len is capped by the row's real extent (no hostile sizing).
      if (count == 0 || !codec::encodable_elem_size(rp.elem_size)) {
        rp.valid = false;
        throw std::runtime_error(
            "compressed block with unsupported element size");
      }
      const std::uint64_t raw_len = count * rp.elem_size;
      auto buf = std::make_unique<std::vector<std::byte>>(
          static_cast<std::size_t>(raw_len));
      const std::uint64_t t0 = obs::ScopedTimer::now_ns();
      try {
        codec::decode_run(v.data, static_cast<std::size_t>(v.data_len),
                          buf->data(), static_cast<std::size_t>(raw_len),
                          rp.elem_size);
      } catch (...) {
        ++stats_.codec_decode_rejects;
        throw;
      }
      decode_ns += obs::ScopedTimer::now_ns() - t0;
      ++decoded_blocks;
      src = buf->data();
      src_len = raw_len;
      result.scratch.push_back(std::move(buf));
    }
    const bool len_ok =
        v.compressed ||  // decode_run pinned len to the tag
        (count == 0
             ? v.data_len == 0
             : rp.elem_size != 0 && v.data_len % rp.elem_size == 0 &&
                   v.data_len / rp.elem_size == count);
    if (!len_ok) {
      rp.valid = false;
      throw std::runtime_error("update data length disagrees with tag");
    }

    BlockPlan p;
    p.src = src;
    p.src_len = src_len;
    p.src_elem = rp.elem_size;
    p.dst_off = row.offset + v.first_elem * row.size;
    p.dst_len = static_cast<std::uint64_t>(row.size) * count;
    p.dst_elem = row.size;
    p.count = count;
    p.dst_step = static_cast<std::uint64_t>(row.size) * rp.stride;
    p.route = rp.route;
    p.cat = row.cat;
    p.kind = row.kind;
    p.run = idx::UpdateRun{v.row, v.first_elem, count, rp.stride};
    plans.push_back(p);
    if (!v.compressed && rp.route == conv::Route::Memcpy) ++memcpy_blocks;
  }
  stats_.fastpath_blocks += memcpy_blocks;
  if (decoded_blocks != 0) {
    stats_.codec_decoded_blocks += decoded_blocks;
    stats_.codec_decode_ns += decode_ns;
    obs_phase(obs::SpanKind::CodecDecode, decode_ns, decoded_blocks);
  }
  return result;
}

// -- Receive side: phase 2 (execute) -----------------------------------------

void SyncEngine::execute_plans(const std::vector<BlockPlan>& plans,
                               const msg::PlatformSummary& sender) {
  if (plans.empty()) return;
  const plat::PlatformDesc sender_platform = wire_platform(sender);
  const plat::PlatformDesc& my_platform = space_.platform();
  mem::TrackedRegion& region = space_.region();

  // Payload order, so overlapping (duplicate or adversarial) blocks land
  // last-writer-wins exactly as the sender packed them.  A strided block's
  // elements arrive back to back and are scattered at its stride, so the
  // elements between them keep whatever this node holds.
  const auto land = [&region](const BlockPlan& p, const std::byte* src) {
    if (p.dst_step == p.dst_elem) {
      region.apply_update(p.dst_off, src, p.dst_len);
    } else {
      region.apply_strided(p.dst_off, src, p.dst_elem, p.count, p.dst_step);
    }
  };
  std::vector<std::byte> scratch;
  for (const BlockPlan& p : plans) {
    if (p.route == conv::Route::Memcpy) {
      // Zero-copy fast path: the wire bytes go straight from the payload
      // into the image ("a string comparison to ensure identical tags"
      // suffices, paper §4).
      land(p, p.src);
      continue;
    }
    scratch.resize(p.dst_len);
    conv::convert_run_routed(p.route, p.src, p.src_elem, sender_platform,
                             scratch.data(), p.dst_elem, my_platform, p.count,
                             p.cat, p.kind);
    land(p, scratch.data());
  }
}

std::vector<idx::UpdateRun> SyncEngine::apply_payload(
    const std::vector<std::byte>& payload,
    const msg::PlatformSummary& sender) {
  // t_unpack: decode the payload, parse tags (plan cache), validate all
  // (compressed blocks decompress into `validated.scratch` here).  A
  // malformed payload throws before any byte lands.
  obs::ScopedTimer watch;
  const ValidatedPayload validated = validate_payload(payload, sender);
  const std::vector<BlockPlan>& plans = validated.plans;
  const std::uint64_t unpack_ns = watch.lap();
  stats_.unpack_ns += unpack_ns;
  obs_phase(obs::SpanKind::Unpack, unpack_ns, plans.size());

  // t_conv: convert (or memcpy) each planned block into this node's image
  // through the alias view, which leaves page protection untouched.
  execute_plans(plans, sender);
  const std::uint64_t conv_ns = watch.lap();
  stats_.conv_ns += conv_ns;
  obs_phase(obs::SpanKind::Convert, conv_ns, plans.size());

  std::vector<idx::UpdateRun> applied;
  applied.reserve(plans.size());
  for (const BlockPlan& p : plans) {
    stats_.update_bytes_received += p.src_len;
    ++stats_.updates_received;
    applied.push_back(p.run);
  }
  // No model reads an apply episode's measurements, but, as with a collect,
  // the episode still counts toward the tuner's warmup and dwell windows.
  if (!plans.empty()) sample_episode(adapt::Signal{});
  return applied;
}

std::vector<idx::UpdateRun> SyncEngine::full_image_runs(
    const idx::IndexTable& table) {
  std::vector<idx::UpdateRun> runs;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const idx::IndexRow& row = table.rows()[i];
    if (row.is_padding()) continue;
    idx::UpdateRun run;
    run.row = static_cast<std::uint32_t>(i);
    run.first_elem = 0;
    run.count = row.element_count();
    runs.push_back(run);
  }
  return runs;
}

}  // namespace hdsm::dsm

#include "obj/object_space.hpp"

#include <stdexcept>

#include "platform/platform.hpp"

namespace hdsm::obj {

namespace {

// Packed dirty-set key: class-major, slot-ascending — ascending row order.
constexpr std::uint32_t kSlotBits = 40;

std::uint64_t dirty_key(std::uint32_t cls, std::uint64_t slot) {
  return (static_cast<std::uint64_t>(cls) << kSlotBits) | slot;
}

}  // namespace

std::uint32_t ObjectLayout::hash_region(std::uint64_t id,
                                        std::uint32_t num_regions) {
  // 64-bit FNV-1a over the id's little-endian bytes, xor-folded — NEVER
  // std::hash, whose result differs between platforms and libraries.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (id >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h % num_regions);
}

std::uint64_t ObjectLayout::object_id(std::uint32_t cls,
                                      std::uint64_t index) const {
  if (cls >= num_classes() || index >= cfg_.classes[cls].count) {
    throw std::out_of_range("ObjectLayout::object_id");
  }
  return (static_cast<std::uint64_t>(cls + 1) << kClassShift) | index;
}

std::string ObjectLayout::field_name(std::uint32_t cls,
                                     std::uint32_t region) const {
  return cfg_.classes.at(cls).name + std::to_string(region);
}

std::uint32_t ObjectLayout::region_of_row(std::uint32_t row) const {
  if (row >= region_of_row_.size()) return dsm::kAllRegions;
  return region_of_row_[row];
}

ObjectLayout::ObjectLayout(ObjectLayoutConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.num_regions == 0) {
    throw std::invalid_argument("ObjectLayout: num_regions must be >= 1");
  }
  if (cfg_.classes.empty()) {
    throw std::invalid_argument("ObjectLayout: no object classes");
  }
  const std::uint32_t nc = num_classes();
  region_of_.resize(nc);
  slot_of_.resize(nc);
  slots_in_.assign(nc, std::vector<std::uint64_t>(cfg_.num_regions, 0));

  // Stripe every object to its region by id hash; slots number the objects
  // of a class within one region in ascending index order.
  for (std::uint32_t c = 0; c < nc; ++c) {
    const ObjectClassConfig& cc = cfg_.classes[c];
    if (cc.words == 0 || cc.count == 0 || cc.elem == nullptr) {
      throw std::invalid_argument("ObjectLayout: bad class config");
    }
    region_of_[c].resize(cc.count);
    slot_of_[c].resize(cc.count);
    for (std::uint64_t i = 0; i < cc.count; ++i) {
      const std::uint32_t r = hash_region(object_id(c, i), cfg_.num_regions);
      region_of_[c][i] = r;
      slot_of_[c][i] = static_cast<std::uint32_t>(slots_in_[c][r]++);
    }
  }

  // One GThV array field per (class, region) stripe, class-major.  Hashing
  // leaves no region empty in practice, but a one-element placeholder keeps
  // the field present (all nodes must agree on the shape regardless).
  std::vector<tags::Field> fields;
  fields.reserve(static_cast<std::size_t>(nc) * cfg_.num_regions);
  for (std::uint32_t c = 0; c < nc; ++c) {
    const ObjectClassConfig& cc = cfg_.classes[c];
    for (std::uint32_t r = 0; r < cfg_.num_regions; ++r) {
      const std::uint64_t slots = slots_in_[c][r] == 0 ? 1 : slots_in_[c][r];
      fields.push_back(
          {field_name(c, r), tags::TypeDesc::array(cc.elem, slots * cc.words)});
    }
  }
  gthv_ = tags::TypeDesc::struct_of("ObjGThV", std::move(fields));

  // Row positions are platform-independent for a given TypeDesc (see
  // index_table.hpp), so one probe table maps fields to rows for every
  // node.  Padding rows follow each member — never assume arithmetic
  // positions; always ask row_of_field.
  idx::IndexTable probe(gthv_, plat::linux_x86_64());
  row_of_.assign(nc, std::vector<std::uint32_t>(cfg_.num_regions, 0));
  region_of_row_.assign(probe.rows().size(), dsm::kAllRegions);
  for (std::uint32_t c = 0; c < nc; ++c) {
    for (std::uint32_t r = 0; r < cfg_.num_regions; ++r) {
      const std::uint32_t row =
          static_cast<std::uint32_t>(probe.row_of_field(field_name(c, r)));
      row_of_[c][r] = row;
      region_of_row_[row] = r;
    }
  }
}

ObjectSpace::ObjectSpace(dsm::GlobalSpace& space, ObjectLayoutPtr layout)
    : space_(space), layout_(std::move(layout)) {
  if (layout_ == nullptr) {
    throw std::invalid_argument("ObjectSpace: null layout");
  }
  dirty_.resize(layout_->num_regions());
}

void ObjectSpace::mark_dirty(std::uint32_t cls, std::uint64_t index) {
  const std::uint32_t r = layout_->region_of(cls, index);
  dirty_[r].insert(dirty_key(cls, layout_->slot_of(cls, index)));
}

dsm::ObjectRuns ObjectSpace::take_dirty(std::uint32_t region) {
  dsm::ObjectRuns out;
  const std::uint32_t first = region == dsm::kAllRegions ? 0 : region;
  const std::uint32_t last =
      region == dsm::kAllRegions ? layout_->num_regions() - 1 : region;
  // Class-outer so runs come out row-ascending even when draining every
  // region (rows are class-major, then region-ascending).
  for (std::uint32_t c = 0; c < layout_->num_classes(); ++c) {
    const std::uint32_t words = layout_->cls(c).words;
    const std::uint64_t lo = dirty_key(c, 0);
    const std::uint64_t hi = dirty_key(c + 1, 0);
    for (std::uint32_t r = first; r <= last; ++r) {
      std::set<std::uint64_t>& set = dirty_[r];
      const std::uint32_t row = layout_->row_of(c, r);
      auto it = set.lower_bound(lo);
      while (it != set.end() && *it < hi) {
        const std::uint64_t slot = *it & ((std::uint64_t{1} << kSlotBits) - 1);
        ++out.objects;
        idx::UpdateRun run{row, slot * words, words};
        // Coalesce adjacent dirty slots of the same stripe into one run.
        if (!out.runs.empty() && out.runs.back().row == row &&
            out.runs.back().first_elem + out.runs.back().count ==
                run.first_elem) {
          out.runs.back().count += words;
        } else {
          out.runs.push_back(run);
        }
        it = set.erase(it);
      }
    }
  }
  return out;
}

void ObjectSpace::clear_dirty() {
  for (auto& set : dirty_) set.clear();
}

std::uint64_t ObjectSpace::dirty_objects() const noexcept {
  std::uint64_t n = 0;
  for (const auto& set : dirty_) n += set.size();
  return n;
}

}  // namespace hdsm::obj

// Object-granularity sharing (docs/OBJECTS.md): the unit of coherence is a
// registered TypeDesc object keyed by a 64-bit object id, not a page.
//
// An ObjectLayout registers N object *classes* (name, scalar element type,
// words per object, object count) and stripes every object across
// `num_regions` coherence regions by FNV-1a over its id, so object→region
// placement is identical on every platform and compiler (never
// std::hash).  Each (class, region) stripe materializes as one
// array field of the generated GThV structure, which means the existing
// index table, (m,n) tag grammar, and CGT-RMR converter already operate on
// object boundaries: an update run covering one object's words IS the
// object-granularity wire unit, with no new wire format.
//
// An ObjectSpace wraps a node's GlobalSpace with typed per-object
// accessors that record dirty objects in per-region dirty sets.  Release
// episodes call take_dirty(region) to get exactly the dirty objects'
// element runs — no mprotect twins, no page diffing, no false sharing by
// construction — and feed them through the unchanged zero-copy
// pack_payload + plan-cache pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dsm/global_space.hpp"
#include "dsm/sync_engine.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::obj {

/// One registered object class: `count` objects of `words` consecutive
/// `elem` scalars each (a session record, a KV value, ...).
struct ObjectClassConfig {
  std::string name;       ///< field-name stem; must be unique per layout
  tags::TypePtr elem;     ///< scalar element type (tags::t_int(), ...)
  std::uint32_t words = 1;   ///< elements per object
  std::uint64_t count = 0;   ///< objects in this class
};

struct ObjectLayoutConfig {
  /// Coherence regions the objects stripe across.  Region r's mutex guards
  /// every object hashed to r; more regions = finer lock granularity.
  std::uint32_t num_regions = 16;
  std::vector<ObjectClassConfig> classes;
};

/// Immutable object→region striping plus the generated GThV shape.  Built
/// once and shared (by const pointer) between the home and every remote —
/// all nodes must agree on it exactly, like the GThV type itself.
class ObjectLayout {
 public:
  /// Object ids of class c occupy the namespace ((c+1) << 48) | index; id 0
  /// is never a valid object.
  static constexpr std::uint32_t kClassShift = 48;

  explicit ObjectLayout(ObjectLayoutConfig cfg);

  /// FNV-1a (64-bit, offset 0xcbf29ce484222325, prime 0x100000001b3) over
  /// the eight little-endian bytes of `id`, xor-folded — NEVER std::hash:
  /// placements are golden-pinned in object_test.cpp and must not vary
  /// across compilers.
  static std::uint32_t hash_region(std::uint64_t id,
                                   std::uint32_t num_regions);

  const tags::TypePtr& gthv() const noexcept { return gthv_; }
  std::uint32_t num_regions() const noexcept { return cfg_.num_regions; }
  std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(cfg_.classes.size());
  }
  const ObjectClassConfig& cls(std::uint32_t c) const {
    return cfg_.classes.at(c);
  }

  std::uint64_t object_id(std::uint32_t cls, std::uint64_t index) const;
  static std::uint32_t class_of_id(std::uint64_t id) noexcept {
    return static_cast<std::uint32_t>(id >> kClassShift) - 1;
  }
  static std::uint64_t index_of_id(std::uint64_t id) noexcept {
    return id & ((std::uint64_t{1} << kClassShift) - 1);
  }

  /// The region whose mutex guards object (cls, index).
  std::uint32_t region_of(std::uint32_t cls, std::uint64_t index) const {
    return region_of_[cls][index];
  }
  /// The object's slot within its (class, region) stripe field.
  std::uint32_t slot_of(std::uint32_t cls, std::uint64_t index) const {
    return slot_of_[cls][index];
  }
  /// Objects of class `cls` striped into `region`.
  std::uint64_t slots_in(std::uint32_t cls, std::uint32_t region) const {
    return slots_in_[cls][region];
  }

  /// GThV field name of the (class, region) stripe.
  std::string field_name(std::uint32_t cls, std::uint32_t region) const;
  /// Index-table row of the (class, region) stripe (row positions are
  /// platform-independent, so one mapping serves every node).
  std::uint32_t row_of(std::uint32_t cls, std::uint32_t region) const {
    return row_of_[cls][region];
  }
  /// The region guarding index-table row `row`; dsm::kAllRegions when the
  /// row is no stripe (padding rows).
  std::uint32_t region_of_row(std::uint32_t row) const;

 private:
  ObjectLayoutConfig cfg_;
  tags::TypePtr gthv_;
  std::vector<std::vector<std::uint32_t>> region_of_;  ///< [cls][index]
  std::vector<std::vector<std::uint32_t>> slot_of_;    ///< [cls][index]
  std::vector<std::vector<std::uint64_t>> slots_in_;   ///< [cls][region]
  std::vector<std::vector<std::uint32_t>> row_of_;     ///< [cls][region]
  std::vector<std::uint32_t> region_of_row_;           ///< [row] -> region
};

using ObjectLayoutPtr = std::shared_ptr<const ObjectLayout>;

class ObjectSpace;

/// Typed accessor over one object class: per-region views resolved once,
/// per-element transcoding through the node's virtual platform exactly as
/// dsm::View does.  Writes mark the object dirty in the owning ObjectSpace.
template <typename T>
class ObjectAccessor {
 public:
  ObjectAccessor() = default;
  ObjectAccessor(ObjectSpace* space, std::uint32_t cls);

  T get(std::uint64_t index, std::uint32_t word = 0) const;
  void set(std::uint64_t index, T value, std::uint32_t word = 0);

 private:
  ObjectSpace* space_ = nullptr;
  std::uint32_t cls_ = 0;
  std::uint32_t words_ = 1;
  std::vector<dsm::View<T>> views_;  ///< [region]
};

/// One node's object-granularity window onto its GlobalSpace: typed object
/// accessors plus per-region dirty-object sets that release episodes drain
/// through take_dirty().  Not internally synchronized — owned and used by
/// one node thread, like the GlobalSpace it wraps.
class ObjectSpace {
 public:
  ObjectSpace(dsm::GlobalSpace& space, ObjectLayoutPtr layout);

  const ObjectLayout& layout() const noexcept { return *layout_; }
  dsm::GlobalSpace& space() noexcept { return space_; }

  template <typename T>
  ObjectAccessor<T> accessor(std::uint32_t cls) {
    return ObjectAccessor<T>(this, cls);
  }

  /// Record object (cls, index) dirty (its next release ships it whole).
  void mark_dirty(std::uint32_t cls, std::uint64_t index);

  /// Drain the dirty set of `region` (dsm::kAllRegions = every region) into
  /// element runs — one run per dirty object, adjacent slots of the same
  /// stripe coalesced — plus the dirty-object count.  Runs come out in
  /// ascending row order.  This is the engine's run_source.
  dsm::ObjectRuns take_dirty(std::uint32_t region);

  /// Forget all dirty marks (post-population, before the cluster attaches:
  /// the initial image ships via the attach seed, not a release episode).
  void clear_dirty();

  std::uint64_t dirty_objects() const noexcept;

 private:
  dsm::GlobalSpace& space_;
  ObjectLayoutPtr layout_;
  /// Dirty objects per region, keyed (cls << 40 | slot): iteration order is
  /// class-major then slot-ascending, which is ascending row order.
  std::vector<std::set<std::uint64_t>> dirty_;
};

template <typename T>
ObjectAccessor<T>::ObjectAccessor(ObjectSpace* space, std::uint32_t cls)
    : space_(space), cls_(cls), words_(space->layout().cls(cls).words) {
  const ObjectLayout& layout = space->layout();
  views_.reserve(layout.num_regions());
  for (std::uint32_t r = 0; r < layout.num_regions(); ++r) {
    views_.push_back(
        space->space().view<T>(layout.field_name(cls, r)));
  }
}

template <typename T>
T ObjectAccessor<T>::get(std::uint64_t index, std::uint32_t word) const {
  const ObjectLayout& layout = space_->layout();
  const std::uint32_t r = layout.region_of(cls_, index);
  const std::uint64_t slot = layout.slot_of(cls_, index);
  return views_[r].get(slot * words_ + word);
}

template <typename T>
void ObjectAccessor<T>::set(std::uint64_t index, T value, std::uint32_t word) {
  const ObjectLayout& layout = space_->layout();
  const std::uint32_t r = layout.region_of(cls_, index);
  const std::uint64_t slot = layout.slot_of(cls_, index);
  views_[r].set(slot * words_ + word, value);
  space_->mark_dirty(cls_, index);
}

}  // namespace hdsm::obj

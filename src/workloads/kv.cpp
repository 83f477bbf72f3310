#include "workloads/kv.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "dsm/sharded_cluster.hpp"
#include "obj/object_dsm.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::work {

namespace {

double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

constexpr std::uint32_t kKvClass = 0;

std::int32_t kv_stamp(std::uint32_t count, std::uint32_t word) {
  return static_cast<std::int32_t>(count + word);
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta,
                                   std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  if (n == 0) throw std::invalid_argument("ZipfianGenerator: n == 0");
  if (theta < 0.0 || theta >= 1.0) {
    throw std::invalid_argument("ZipfianGenerator: theta must be in [0, 1)");
  }
  zetan_ = zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta(2, theta_) / zetan_);
}

std::uint64_t ZipfianGenerator::next() {
  // The YCSB rejection-free inverse-CDF approximation.
  const double u =
      std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto k = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k >= n_ ? n_ - 1 : k;
}

obj::ObjectLayoutPtr kv_layout(const KvConfig& cfg) {
  obj::ObjectLayoutConfig lc;
  lc.num_regions = cfg.num_regions;
  lc.classes.push_back(
      {"kv", tags::t_int(), cfg.words, cfg.num_objects});
  return std::make_shared<const obj::ObjectLayout>(std::move(lc));
}

std::vector<std::uint32_t> kv_expected_counts(const KvConfig& cfg) {
  std::vector<std::uint32_t> expected(cfg.num_objects, 0);
  const std::uint32_t ranks =
      static_cast<std::uint32_t>(cfg.remotes.size()) + 1;
  for (std::uint32_t rank = 0; rank < ranks; ++rank) {
    ZipfianGenerator gen(cfg.num_objects, cfg.theta, cfg.seed + rank);
    for (std::uint64_t op = 0; op < cfg.ops_per_rank; ++op) {
      ++expected[gen.next()];
    }
  }
  return expected;
}

namespace {

/// One rank's op stream: locked read-modify-write per sampled object.
/// `get`/`set` address (object index, word) on whatever node runs this.
void kv_ops(const KvConfig& cfg, const obj::ObjectLayout& layout,
            std::uint32_t rank,
            const std::function<void(std::uint32_t)>& lock,
            const std::function<void(std::uint32_t)>& unlock,
            const std::function<std::int32_t(std::uint64_t, std::uint32_t)>&
                get,
            const std::function<void(std::uint64_t, std::uint32_t,
                                     std::int32_t)>& set) {
  ZipfianGenerator gen(cfg.num_objects, cfg.theta, cfg.seed + rank);
  for (std::uint64_t op = 0; op < cfg.ops_per_rank; ++op) {
    const std::uint64_t obj = gen.next();
    const std::uint32_t region = layout.region_of(kKvClass, obj);
    lock(region);
    const auto count =
        static_cast<std::uint32_t>(get(obj, 0)) + 1;
    for (std::uint32_t w = 0; w < cfg.words; ++w) {
      set(obj, w, kv_stamp(count, w));
    }
    unlock(region);
  }
}

/// Check the master image against the offline replay: every op-counted
/// object holds (count, count+1, ...); untouched objects stay zero.
bool kv_verify(const KvConfig& cfg,
               const std::vector<std::uint32_t>& expected,
               const std::function<std::int32_t(std::uint64_t, std::uint32_t)>&
                   get) {
  for (std::uint64_t i = 0; i < cfg.num_objects; ++i) {
    for (std::uint32_t w = 0; w < cfg.words; ++w) {
      const std::int32_t want =
          expected[i] == 0 ? 0 : kv_stamp(expected[i], w);
      if (get(i, w) != want) return false;
    }
  }
  return true;
}

KvResult run_kv_object(const KvConfig& cfg, obj::ObjectLayoutPtr layout,
                       const plat::PlatformDesc& home_plat) {
  dsm::ShardedHomeOptions opts;
  opts.dsd = cfg.dsd;
  obj::ObjectCluster cluster(layout, home_plat, cfg.remotes, opts);

  KvResult result;
  const auto start = std::chrono::steady_clock::now();
  cluster.run(
      [&](obj::ObjectHome& home) {
        auto acc = home.accessor<std::int32_t>(kKvClass);
        kv_ops(
            cfg, *layout, 0, [&](std::uint32_t r) { home.lock(r); },
            [&](std::uint32_t r) { home.unlock(r); },
            [&](std::uint64_t i, std::uint32_t w) { return acc.get(i, w); },
            [&](std::uint64_t i, std::uint32_t w, std::int32_t v) {
              acc.set(i, v, w);
            });
        home.wait_all_joined();
      },
      [&](obj::ObjectRemote& remote) {
        auto acc = remote.accessor<std::int32_t>(kKvClass);
        kv_ops(
            cfg, *layout, remote.rank(),
            [&](std::uint32_t r) { remote.lock(r); },
            [&](std::uint32_t r) { remote.unlock(r); },
            [&](std::uint64_t i, std::uint32_t w) { return acc.get(i, w); },
            [&](std::uint64_t i, std::uint32_t w, std::int32_t v) {
              acc.set(i, v, w);
            });
        remote.join();
      });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  auto acc = cluster.home().accessor<std::int32_t>(kKvClass);
  result.verified = kv_verify(
      cfg, kv_expected_counts(cfg),
      [&](std::uint64_t i, std::uint32_t w) { return acc.get(i, w); });
  result.stats = cluster.total_stats();
  result.bytes_on_wire = result.stats.update_bytes_sent;
  result.ops =
      cfg.ops_per_rank * (static_cast<std::uint64_t>(cfg.remotes.size()) + 1);
  return result;
}

/// Page-mode addressing: the same GThV striped fields, accessed through
/// plain views with mprotect/twin diffing doing the change detection.
struct PageViews {
  std::vector<dsm::View<std::int32_t>> stripes;  ///< [region]

  PageViews(dsm::GlobalSpace& space, const obj::ObjectLayout& layout) {
    stripes.reserve(layout.num_regions());
    for (std::uint32_t r = 0; r < layout.num_regions(); ++r) {
      stripes.push_back(
          space.view<std::int32_t>(layout.field_name(kKvClass, r)));
    }
  }

  std::int32_t get(const obj::ObjectLayout& layout, std::uint64_t i,
                   std::uint32_t w) const {
    const std::uint32_t r = layout.region_of(kKvClass, i);
    const std::uint64_t slot = layout.slot_of(kKvClass, i);
    return stripes[r].get(slot * layout.cls(kKvClass).words + w);
  }
  void set(const obj::ObjectLayout& layout, std::uint64_t i, std::uint32_t w,
           std::int32_t v) {
    const std::uint32_t r = layout.region_of(kKvClass, i);
    const std::uint64_t slot = layout.slot_of(kKvClass, i);
    stripes[r].set(slot * layout.cls(kKvClass).words + w, v);
  }
};

KvResult run_kv_page(const KvConfig& cfg, obj::ObjectLayoutPtr layout,
                     const plat::PlatformDesc& home_plat) {
  dsm::ShardedHomeOptions opts;
  opts.num_locks = cfg.num_regions;
  opts.num_barriers = cfg.num_regions;
  opts.dsd = cfg.dsd;
  dsm::ShardedCluster cluster(layout->gthv(), home_plat, cfg.remotes, opts);
  // Same entry-consistency regime as object mode: each region's lock
  // guards that region's stripe, so the comparison isolates the sharing
  // machinery itself.  Strict entry consistency is also what makes
  // concurrent hot-key writers race-free: a grant ships only the acquired
  // region's rows, so every image access for a region serializes through
  // its DSM lock.
  for (std::uint32_t r = 0; r < cfg.num_regions; ++r) {
    cluster.home().bind_lock(r, layout->field_name(kKvClass, r));
  }

  KvResult result;
  const auto start = std::chrono::steady_clock::now();
  cluster.run(
      [&](dsm::ShardedHome& home) {
        PageViews views(home.space(), *layout);
        kv_ops(
            cfg, *layout, 0, [&](std::uint32_t r) { home.lock(r); },
            [&](std::uint32_t r) { home.unlock(r); },
            [&](std::uint64_t i, std::uint32_t w) {
              return views.get(*layout, i, w);
            },
            [&](std::uint64_t i, std::uint32_t w, std::int32_t v) {
              views.set(*layout, i, w, v);
            });
        home.wait_all_joined();
      },
      [&](dsm::ShardedRemote& remote) {
        PageViews views(remote.space(), *layout);
        kv_ops(
            cfg, *layout, remote.rank(),
            [&](std::uint32_t r) { remote.lock(r); },
            [&](std::uint32_t r) { remote.unlock(r); },
            [&](std::uint64_t i, std::uint32_t w) {
              return views.get(*layout, i, w);
            },
            [&](std::uint64_t i, std::uint32_t w, std::int32_t v) {
              views.set(*layout, i, w, v);
            });
        remote.join();
      });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  PageViews views(cluster.home().space(), *layout);
  result.verified = kv_verify(cfg, kv_expected_counts(cfg),
                              [&](std::uint64_t i, std::uint32_t w) {
                                return views.get(*layout, i, w);
                              });
  result.stats = cluster.total_stats();
  result.bytes_on_wire = result.stats.update_bytes_sent;
  result.ops =
      cfg.ops_per_rank * (static_cast<std::uint64_t>(cfg.remotes.size()) + 1);
  return result;
}

}  // namespace

KvResult run_kv(const KvConfig& cfg) {
  const plat::PlatformDesc& home_plat =
      cfg.home != nullptr ? *cfg.home : plat::linux_x86_64();
  obj::ObjectLayoutPtr layout = kv_layout(cfg);
  return cfg.object_mode ? run_kv_object(cfg, layout, home_plat)
                         : run_kv_page(cfg, layout, home_plat);
}

}  // namespace hdsm::work

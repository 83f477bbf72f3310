// The four workloads.  Each generates its inputs from the seed once, then
// runs reps on fresh clusters; every rep is verified against an offline
// reference before its numbers count.  README.md says why each was chosen.
#include <cstring>
#include <random>
#include <string>

#include "adapt/tuner.hpp"
#include "harness.hpp"
#include "obj/object_dsm.hpp"
#include "platform/platform.hpp"
#include "tags/describe.hpp"
#include "workloads/kv.hpp"
#include "workloads/sor.hpp"

namespace perfbench {

namespace plat = hdsm::plat;
namespace work = hdsm::work;
namespace obj = hdsm::obj;

namespace {

// ---------------------------------------------------------------------------
// lock_small: each remote loops lock → bump 4 int64 in its own page →
// unlock.

class LockSmall final : public Workload {
 public:
  static constexpr std::uint32_t kRemotes = 2;
  static constexpr std::uint32_t kSlotsPerPage = 512;  ///< 4 KiB of int64
  static constexpr std::uint32_t kWords = 4;
  static constexpr std::uint64_t kWarm = 200;
  static constexpr std::uint64_t kTimed = 4000;

  explicit LockSmall(std::uint64_t seed)
      : gthv_(hdsm::tags::describe_struct("GThV_lock_small_t")
                  .array<long long>("slots",
                                    (kRemotes + 1) * kSlotsPerPage)
                  .build()),
        // The seed places the four adjacent counters inside each page.
        first_(static_cast<std::uint32_t>(
            std::mt19937_64(seed)() % (kSlotsPerPage - kWords + 1))) {}

  RepResult run_rep(bool traced) override {
    RepResult rep;
    rep.traced = traced;
    rep.ranks.resize(kRemotes + 1);
    const Clock::time_point setup_start = Clock::now();
    Sessions sessions(kRemotes);
    pin_thread(kIoSlot);
    dsm::ShardedCluster cluster(
        gthv_, plat::linux_x86_64(),
        {&plat::linux_ia32(), &plat::solaris_sparc32()}, home_options(traced),
        sessions.wrap_fn(), remote_options(traced));
    pin_thread(0);
    for (std::uint32_t r = 1; r <= kRemotes; ++r) {
      rep.ranks[r].planned = kWarm + kTimed;
    }
    cluster.run(
        [&](dsm::ShardedHome& home) {
          master_rank(home, rep, setup_start, 0, [] {}, nullptr);
        },
        [&](dsm::ShardedRemote& remote) {
          const std::uint32_t r = remote.rank();
          RankLog& log = rep.ranks[r];
          auto slots = remote.space().view<long long>("slots");
          const auto bump = [&] {
            for (std::uint32_t w = 0; w < kWords; ++w) {
              const std::uint64_t i = slot(r, w);
              slots.set(i, slots.get(i) + 1);
            }
          };
          remote_rank(
              remote, rep, sessions, kTimed,
              [&] {
                for (std::uint64_t i = 0; i < kWarm; ++i) {
                  remote.lock(r);
                  bump();
                  remote.unlock(r);
                  ++log.done;
                }
              },
              [&](std::uint64_t) {
                lock_episode(
                    log, [&] { remote.lock(r); }, bump,
                    [&] { remote.unlock(r); });
              });
        });
    collect_spans(rep, cluster.home(),
                  [&](std::uint32_t r) -> dsm::ShardedRemote& {
                    return cluster.remote(r);
                  });
    rep.verify_error = verify(cluster.home(), rep);
    return rep;
  }

 private:
  std::uint64_t slot(std::uint32_t rank, std::uint32_t word) const {
    return static_cast<std::uint64_t>(rank) * kSlotsPerPage + first_ + word;
  }

  /// Every counter equals its rank's completed episodes; all else is 0.
  std::string verify(dsm::ShardedHome& home, const RepResult& rep) const {
    auto slots = home.space().view<long long>("slots");
    std::vector<long long> want(slots.size(), 0);
    for (std::uint32_t r = 1; r <= kRemotes; ++r) {
      for (std::uint32_t w = 0; w < kWords; ++w) {
        want[slot(r, w)] = static_cast<long long>(rep.ranks[r].done);
      }
    }
    for (std::uint64_t i = 0; i < want.size(); ++i) {
      if (slots.get(i) != want[i]) {
        return "lock_small: slot " + std::to_string(i) + " holds " +
               std::to_string(slots.get(i)) + ", expected " +
               std::to_string(want[i]);
      }
    }
    return {};
  }

  hdsm::tags::TypePtr gthv_;
  std::uint32_t first_;  ///< slot of the first counter within each page
};

// ---------------------------------------------------------------------------
// sor_barrier: red/black SOR on the SL pair, one half-sweep + barrier per
// episode on every rank.

class SorBarrier final : public Workload {
 public:
  static constexpr std::uint32_t kN = 256;
  static constexpr std::uint32_t kRanks = 3;
  static constexpr std::uint32_t kWarmIters = 1;
  static constexpr std::uint32_t kTimedIters = 60;
  static constexpr double kOmega = 1.5;  ///< work::run_sor's default

  /// The input is fixed: sor_initial, n and omega are what sor_reference
  /// checks against, and any seeded change to them would change how fast
  /// the heat front spreads, so the cost of a window, between seeds.
  SorBarrier()
      : gthv_(work::sor_gthv(kN)),
        reference_(work::sor_reference(kN, kWarmIters + kTimedIters, kOmega)) {
  }

  RepResult run_rep(bool traced) override {
    RepResult rep;
    rep.traced = traced;
    rep.lock_sync = false;
    rep.ranks.resize(kRanks);
    const Clock::time_point setup_start = Clock::now();
    Sessions sessions(kRanks - 1);
    pin_thread(kIoSlot);
    dsm::ShardedCluster cluster(
        gthv_, plat::solaris_sparc32(),
        {&plat::linux_ia32(), &plat::linux_ia32()}, home_options(traced),
        sessions.wrap_fn(), remote_options(traced));
    pin_thread(0);
    for (RankLog& log : rep.ranks) {
      log.planned = 2 * (kWarmIters + kTimedIters);
    }
    const std::uint64_t timed = 2 * kTimedIters;
    cluster.run(
        [&](dsm::ShardedHome& home) {
          auto grid = home.space().view<double>("grid");
          master_rank(
              home, rep, setup_start, timed,
              [&] {
                home.lock(0);
                for (std::uint32_t i = 0; i <= kN + 1; ++i) {
                  for (std::uint32_t j = 0; j <= kN + 1; ++j) {
                    grid.set(cell(i, j), work::sor_initial(kN, i, j));
                  }
                }
                home.space().view<int>("n").set(static_cast<int>(kN));
                home.unlock(0);
                home.barrier(0);
                warm(rep.ranks[0], grid, 0, [&] { home.barrier(0); });
              },
              [&](std::uint64_t e) {
                episode(rep.ranks[0], grid, 0, e, [&] { home.barrier(0); });
              });
        },
        [&](dsm::ShardedRemote& remote) {
          const std::uint32_t r = remote.rank();
          auto grid = remote.space().view<double>("grid");
          remote_rank(
              remote, rep, sessions, timed,
              [&] {
                remote.barrier(0);
                warm(rep.ranks[r], grid, r, [&] { remote.barrier(0); });
              },
              [&](std::uint64_t e) {
                episode(rep.ranks[r], grid, r, e,
                        [&] { remote.barrier(0); });
              });
        });
    collect_spans(rep, cluster.home(),
                  [&](std::uint32_t r) -> dsm::ShardedRemote& {
                    return cluster.remote(r);
                  });
    std::vector<double> got(reference_.size());
    cluster.home().space().view<double>("grid").get_range(0, got.size(),
                                                          got.data());
    if (std::memcmp(got.data(), reference_.data(),
                    got.size() * sizeof(double)) != 0) {
      rep.verify_error = "sor_barrier: grid differs from sor_reference";
    }
    return rep;
  }

 private:
  static std::uint64_t cell(std::uint32_t i, std::uint32_t j) {
    return static_cast<std::uint64_t>(i) * (kN + 2) + j;
  }

  /// Interior rows [begin, end) of `rank` (the split work::run_sor uses).
  static void band(std::uint32_t rank, std::uint32_t& begin,
                   std::uint32_t& end) {
    const std::uint32_t per = kN / kRanks;
    const std::uint32_t extra = kN % kRanks;
    begin = 1 + rank * per + std::min(rank, extra);
    end = begin + per + (rank < extra ? 1 : 0);
  }

  /// One half-sweep of `rank`'s band over cells of parity `color` — the
  /// update order work::sor_reference uses, so results match bit for bit.
  void half_sweep(dsm::View<double>& g, std::uint32_t rank,
                  std::uint32_t color) const {
    std::uint32_t begin = 0, end = 0;
    band(rank, begin, end);
    constexpr std::uint64_t stride = kN + 2;
    for (std::uint32_t i = begin; i < end; ++i) {
      for (std::uint32_t j = 1; j <= kN; ++j) {
        if (((i + j) & 1u) != color) continue;
        const std::uint64_t c = cell(i, j);
        const double neighbors =
            g.get(c - stride) + g.get(c + stride) + g.get(c - 1) + g.get(c + 1);
        g.set(c, g.get(c) + kOmega * (neighbors / 4.0 - g.get(c)));
      }
    }
  }

  template <typename Barrier>
  void warm(RankLog& log, dsm::View<double>& g, std::uint32_t rank,
            Barrier&& barrier) const {
    for (std::uint32_t e = 0; e < 2 * kWarmIters; ++e) {
      half_sweep(g, rank, e % 2);
      barrier();
      ++log.done;
    }
  }

  template <typename Barrier>
  void episode(RankLog& log, dsm::View<double>& g, std::uint32_t rank,
               std::uint64_t e, Barrier&& barrier) const {
    barrier_episode(
        log, [&] { half_sweep(g, rank, static_cast<std::uint32_t>(e % 2)); },
        barrier);
  }

  hdsm::tags::TypePtr gthv_;
  std::vector<double> reference_;
};

// ---------------------------------------------------------------------------
// kv_zipf: object mode, Zipfian locked read-modify-writes on 1 M objects.

class KvZipf final : public Workload {
 public:
  static constexpr std::uint32_t kClass = 0;
  static constexpr std::uint64_t kWarm = 300;
  static constexpr std::uint64_t kTimed = 3000;

  explicit KvZipf(std::uint64_t seed) {
    cfg_.seed = seed;
    cfg_.remotes = {&plat::solaris_sparc32(), &plat::linux_ia32()};
    cfg_.ops_per_rank = kWarm + kTimed;
    layout_ = work::kv_layout(cfg_);
    const std::uint32_t ranks =
        static_cast<std::uint32_t>(cfg_.remotes.size()) + 1;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      work::ZipfianGenerator gen(cfg_.num_objects, cfg_.theta, cfg_.seed + r);
      std::vector<std::uint64_t>& keys = keys_.emplace_back();
      keys.reserve(cfg_.ops_per_rank);
      for (std::uint64_t i = 0; i < cfg_.ops_per_rank; ++i) {
        keys.push_back(gen.next());
      }
    }
    expected_ = work::kv_expected_counts(cfg_);
  }

  RepResult run_rep(bool traced) override {
    RepResult rep;
    rep.traced = traced;
    rep.ranks.resize(keys_.size());
    const Clock::time_point setup_start = Clock::now();
    Sessions sessions(cfg_.remotes.size());
    pin_thread(kIoSlot);
    obj::ObjectCluster cluster(layout_, plat::linux_x86_64(), cfg_.remotes,
                               home_options(traced), sessions.wrap_fn(),
                               remote_options(traced));
    pin_thread(0);
    for (RankLog& log : rep.ranks) log.planned = cfg_.ops_per_rank;
    cluster.run(
        [&](obj::ObjectHome& home) {
          auto acc = home.accessor<std::int32_t>(kClass);
          const auto lock = [&](std::uint32_t g) { home.lock(g); };
          const auto unlock = [&](std::uint32_t g) { home.unlock(g); };
          master_rank(
              home.node(), rep, setup_start, kTimed,
              [&] { warm(rep.ranks[0], 0, acc, lock, unlock); },
              [&](std::uint64_t i) {
                op(rep.ranks[0], keys_[0][kWarm + i], acc, lock, unlock);
              });
        },
        [&](obj::ObjectRemote& remote) {
          const std::uint32_t r = remote.rank();
          auto acc = remote.accessor<std::int32_t>(kClass);
          const auto lock = [&](std::uint32_t g) { remote.lock(g); };
          const auto unlock = [&](std::uint32_t g) { remote.unlock(g); };
          remote_rank(
              remote.node(), rep, sessions, kTimed,
              [&] {
                // Acquire every region once so the whole image seed lands
                // in setup, then run the warm-up keys.
                for (std::uint32_t g = 0; g < layout_->num_regions(); ++g) {
                  lock(g);
                  unlock(g);
                }
                warm(rep.ranks[r], r, acc, lock, unlock);
              },
              [&](std::uint64_t i) {
                op(rep.ranks[r], keys_[r][kWarm + i], acc, lock, unlock);
              });
        });
    collect_spans(rep, cluster.home().node(),
                  [&](std::uint32_t r) -> dsm::ShardedRemote& {
                    return cluster.remote(r).node();
                  });
    rep.verify_error = verify(cluster.home());
    return rep;
  }

 private:
  /// The read-modify-write work::run_kv does: bump the op counter in word
  /// 0 and restamp every word from it.
  template <typename Acc>
  void rmw(Acc& acc, std::uint64_t key) const {
    const auto count = static_cast<std::int32_t>(acc.get(key, 0)) + 1;
    for (std::uint32_t w = 0; w < cfg_.words; ++w) {
      acc.set(key, count + static_cast<std::int32_t>(w), w);
    }
  }

  template <typename Acc, typename Lock, typename Unlock>
  void warm(RankLog& log, std::uint32_t rank, Acc& acc, Lock& lock,
            Unlock& unlock) const {
    for (std::uint64_t i = 0; i < kWarm; ++i) {
      const std::uint64_t key = keys_[rank][i];
      const std::uint32_t g = layout_->region_of(kClass, key);
      lock(g);
      rmw(acc, key);
      unlock(g);
      ++log.done;
    }
  }

  template <typename Acc, typename Lock, typename Unlock>
  void op(RankLog& log, std::uint64_t key, Acc& acc, Lock& lock,
          Unlock& unlock) const {
    const std::uint32_t g = layout_->region_of(kClass, key);
    lock_episode(
        log, [&] { lock(g); }, [&] { rmw(acc, key); }, [&] { unlock(g); });
  }

  /// The master image against work::kv_expected_counts.
  std::string verify(obj::ObjectHome& home) const {
    auto acc = home.accessor<std::int32_t>(kClass);
    for (std::uint64_t i = 0; i < cfg_.num_objects; ++i) {
      for (std::uint32_t w = 0; w < cfg_.words; ++w) {
        const std::int32_t want =
            expected_[i] == 0
                ? 0
                : static_cast<std::int32_t>(expected_[i] + w);
        if (acc.get(i, w) != want) {
          return "kv_zipf: object " + std::to_string(i) + " word " +
                 std::to_string(w) + " differs from kv_expected_counts";
        }
      }
    }
    return {};
  }

  work::KvConfig cfg_;
  hdsm::obj::ObjectLayoutPtr layout_;
  std::vector<std::vector<std::uint64_t>> keys_;  ///< [rank][op]
  std::vector<std::uint32_t> expected_;
};

// ---------------------------------------------------------------------------
// field_slowlink: adaptive codec over 10 MB/s links; each episode rewrites a
// band of 4096 smooth doubles under the remote's own mutex.  Each mutex is
// bound to its remote's band (entry consistency), so a grant carries no
// other remote's band and the wire is dominated by the codec's output.

class FieldSlowlink final : public Workload {
 public:
  static constexpr std::uint32_t kRemotes = 2;
  static constexpr std::uint64_t kDoubles = 4096;
  static constexpr std::uint64_t kLinkBytesPerS = 10ull << 20;
  /// Warm-up gives up waiting for the codec after this many episodes.
  static constexpr std::uint64_t kMaxWarm = 64;
  static constexpr std::uint64_t kTimed = 500;
  static constexpr std::uint64_t kSalts = 16;

  explicit FieldSlowlink(std::uint64_t seed)
      : gthv_(hdsm::tags::describe_struct("GThV_field_t")
                  .array<double>(band_name(1), kDoubles)
                  .array<double>(band_name(2), kDoubles)
                  .build()),
        dwell_(hdsm::adapt::TunerConfig{}.dwell) {
    // One salt per episode and rank.  Salts stay small, as in bench_codec,
    // so the band stays smooth; consecutive salts differ, so every episode
    // rewrites the whole band.
    const std::uint64_t per_rank = kMaxWarm + dwell_ + kTimed;
    for (std::uint32_t r = 0; r <= kRemotes; ++r) {
      std::mt19937_64 rng(seed * (kRemotes + 1) + r);
      std::vector<int>& s = salts_.emplace_back();
      int prev = 0;
      for (std::uint64_t e = 0; e < per_rank; ++e) {
        int v = 0;
        do {
          v = static_cast<int>(rng() % kSalts) + 1;
        } while (v == prev);
        s.push_back(v);
        prev = v;
      }
    }
  }

  RepResult run_rep(bool traced) override {
    RepResult rep;
    rep.traced = traced;
    rep.link_bytes_per_s = kLinkBytesPerS;
    rep.ranks.resize(kRemotes + 1);
    const Clock::time_point setup_start = Clock::now();
    Sessions sessions(kRemotes, kLinkBytesPerS);
    dsm::ShardedHomeOptions opts = home_options(traced);
    opts.dsd.adaptive = true;
    opts.dsd.codec = dsm::CodecMode::Adaptive;
    opts.dsd.tuner.pin_conv_threads = 1;  // the thread budget, as elsewhere
    pin_thread(kIoSlot);
    dsm::ShardedCluster cluster(
        gthv_, plat::solaris_sparc32(),
        {&plat::linux_ia32(), &plat::linux_x86_64()}, opts,
        sessions.wrap_fn(), remote_options(traced));
    pin_thread(0);
    for (std::uint32_t r = 1; r <= kRemotes; ++r) {
      cluster.home().bind_lock(r, band_name(r));
      rep.ranks[r].planned = kMaxWarm + dwell_ + kTimed;  // until warmed up
    }
    cluster.run(
        [&](dsm::ShardedHome& home) {
          master_rank(home, rep, setup_start, 0, [] {}, nullptr);
        },
        [&](dsm::ShardedRemote& remote) {
          const std::uint32_t r = remote.rank();
          RankLog& log = rep.ranks[r];
          auto band = remote.space().view<double>(band_name(r));
          const auto write = [&] {
            const double salt = salts_[r][log.done];
            for (std::uint64_t i = 0; i < kDoubles; ++i) {
              band.set(i, value(i, salt));
            }
          };
          const auto one = [&] {
            remote.lock(r);
            write();
            remote.unlock(r);
            ++log.done;
          };
          remote_rank(
              remote, rep, sessions, kTimed,
              [&] {
                // The tuner's warm-up: run until the codec engages, then
                // the tuner's dwell so the knob settles before timing.
                while (remote.stats().codec_blocks == 0 &&
                       log.done < kMaxWarm) {
                  one();
                }
                log.engage_episodes = log.done;
                for (std::uint32_t i = 0; i < dwell_; ++i) one();
                log.planned = log.done + kTimed;
              },
              [&](std::uint64_t) {
                lock_episode(
                    log, [&] { remote.lock(r); }, write,
                    [&] { remote.unlock(r); });
              });
        });
    collect_spans(rep, cluster.home(),
                  [&](std::uint32_t r) -> dsm::ShardedRemote& {
                    return cluster.remote(r);
                  });
    rep.verify_error = verify(cluster.home(), rep);
    return rep;
  }

 private:
  static std::string band_name(std::uint32_t rank) {
    return "band" + std::to_string(rank);
  }
  /// A smooth relaxation row (bench_codec's SorDoubles shape).
  static double value(std::uint64_t i, double salt) {
    return 1.0 + 0.001 * static_cast<double>(i) + salt;
  }

  /// Each band holds the values of the last salt its remote wrote.
  std::string verify(dsm::ShardedHome& home, const RepResult& rep) const {
    for (std::uint32_t r = 1; r <= kRemotes; ++r) {
      auto band = home.space().view<double>(band_name(r));
      const std::uint64_t done = rep.ranks[r].done;
      if (done == 0) return "field_slowlink: rank ran no episode";
      const double salt = salts_[r][done - 1];
      for (std::uint64_t i = 0; i < kDoubles; ++i) {
        if (band.get(i) != value(i, salt)) {
          return "field_slowlink: band " + std::to_string(r) + " element " +
                 std::to_string(i) + " is not the last salt written";
        }
      }
    }
    return {};
  }

  hdsm::tags::TypePtr gthv_;
  std::uint32_t dwell_;
  std::vector<std::vector<int>> salts_;  ///< [rank][episode]
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "lock_small") return std::make_unique<LockSmall>(seed);
  if (name == "sor_barrier") return std::make_unique<SorBarrier>();
  if (name == "kv_zipf") return std::make_unique<KvZipf>(seed);
  if (name == "field_slowlink") return std::make_unique<FieldSlowlink>(seed);
  return nullptr;
}

}  // namespace perfbench

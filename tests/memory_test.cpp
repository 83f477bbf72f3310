// Tests for the region / write-trap / twin-diff substrate: genuine write
// detection on both trap backends (mprotect + SIGSEGV, and the userfaultfd
// async write-protect trap), twin integrity, concurrent writers, and the
// diff engine's byte-exact range computation.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <linux/userfaultfd.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>
#include <system_error>
#include <thread>

#include "memory/diff.hpp"
#include "memory/region.hpp"
#include "memory/write_trap.hpp"
#include "trap_backends.hpp"

namespace mem = hdsm::mem;

// ---- Region ----------------------------------------------------------------

TEST(Region, RoundsUpToPages) {
  mem::Region r(100);
  EXPECT_EQ(r.requested(), 100u);
  EXPECT_EQ(r.length(), mem::Region::host_page_size());
  EXPECT_EQ(r.page_count(), 1u);
  mem::Region r2(mem::Region::host_page_size() + 1);
  EXPECT_EQ(r2.page_count(), 2u);
}

TEST(Region, ZeroLengthRejected) {
  EXPECT_THROW(mem::Region r(0), std::invalid_argument);
}

TEST(Region, ContainsAndPageOf) {
  mem::Region r(3 * mem::Region::host_page_size());
  EXPECT_TRUE(r.contains(r.data()));
  EXPECT_TRUE(r.contains(r.data() + r.length() - 1));
  EXPECT_FALSE(r.contains(r.data() + r.length()));
  EXPECT_EQ(r.page_of(0), 0u);
  EXPECT_EQ(r.page_of(mem::Region::host_page_size()), 1u);
}

TEST(Region, MoveTransfersOwnership) {
  mem::Region a(64);
  std::byte* p = a.data();
  mem::Region b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(Region, WritableByDefault) {
  mem::Region r(256);
  std::memset(r.data(), 0x5A, 256);
  EXPECT_EQ(std::to_integer<int>(r.data()[255]), 0x5A);
}

// ---- TrackedRegion, on both backends -----------------------------------------

namespace {

class TrackedRegionTest : public hdsm::test::TrapBackendTest {};

struct Collected {
  std::vector<std::size_t> pages;
  std::vector<std::vector<std::byte>> twins;  // one copy per visited page
};

Collected collect(mem::TrackedRegion& r) {
  const std::size_t ps = mem::Region::host_page_size();
  Collected c;
  const std::size_t n = r.collect([&](std::size_t page, const std::byte* twin) {
    c.pages.push_back(page);
    c.twins.emplace_back(twin, twin + ps);
  });
  EXPECT_EQ(n, c.pages.size());
  return c;
}

/// The byte ranges of `page` that differ from `twin`.
std::vector<mem::ByteRange> diff_page(const mem::TrackedRegion& r,
                                      std::size_t page,
                                      const std::vector<std::byte>& twin) {
  const std::size_t ps = mem::Region::host_page_size();
  std::vector<mem::ByteRange> ranges;
  mem::diff_bytes(r.data() + page * ps, twin.data(), ps, page * ps, ranges);
  return ranges;
}

}  // namespace

HDSM_ON_BOTH_TRAP_BACKENDS(TrackedRegionTest);

TEST_P(TrackedRegionTest, ReportsTheBackendItWasAskedFor) {
  mem::TrackedRegion r(64, GetParam());
  EXPECT_EQ(r.backend(), GetParam());
}

TEST_P(TrackedRegionTest, FirstWriteDetectedOncePerPage) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(4 * ps, GetParam());
  r.begin_tracking();
  EXPECT_EQ(r.fault_count(), 0u);
  r.data()[0] = std::byte{1};
  EXPECT_EQ(r.fault_count(), 1u);
  r.data()[1] = std::byte{2};  // same page: detected once
  EXPECT_EQ(r.fault_count(), 1u);
  r.data()[2 * ps] = std::byte{3};  // third page
  EXPECT_EQ(r.fault_count(), 2u);
  EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(collect(r).pages, (std::vector<std::size_t>{0, 2}));
  r.end_tracking();
}

TEST_P(TrackedRegionTest, TwinHoldsPreWriteContent) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(ps, GetParam());
  std::memset(r.data(), 0x11, ps);
  r.begin_tracking();
  r.data()[7] = std::byte{0x99};
  ASSERT_TRUE(r.page_dirty(0));
  const Collected c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{0}));
  EXPECT_EQ(std::to_integer<int>(c.twins[0][7]), 0x11);
  EXPECT_EQ(std::to_integer<int>(r.data()[7]), 0x99);
  // Untouched bytes agree between twin and data.
  EXPECT_EQ(std::memcmp(c.twins[0].data() + 8, r.data() + 8, ps - 8), 0);
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ReadsNeverFault) {
  mem::TrackedRegion r(1024, GetParam());
  std::memset(r.data(), 0x42, 1024);
  r.begin_tracking();
  int sum = 0;
  for (int i = 0; i < 1024; ++i) sum += std::to_integer<int>(r.data()[i]);
  EXPECT_EQ(sum, 0x42 * 1024);
  EXPECT_EQ(r.fault_count(), 0u);
  EXPECT_TRUE(r.dirty_pages().empty());
  EXPECT_TRUE(collect(r).pages.empty());
  r.end_tracking();
}

TEST_P(TrackedRegionTest, CollectStartsAFreshInterval) {
  // A collect visits only the pages whose bytes changed since the last
  // one.  The page written stays hot: the next collects compare it with
  // its refreshed shadow and visit it only when it changed again.
  mem::TrackedRegion r(256, GetParam());
  r.begin_tracking();
  r.data()[0] = std::byte{1};
  EXPECT_EQ(collect(r).pages, (std::vector<std::size_t>{0}));
  EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{0}));  // hot
  EXPECT_TRUE(collect(r).pages.empty());  // unchanged since
  r.data()[0] = std::byte{1};  // a write of the bytes already there
  EXPECT_TRUE(collect(r).pages.empty());
  r.data()[0] = std::byte{2};
  EXPECT_EQ(collect(r).pages, (std::vector<std::size_t>{0}));
  r.end_tracking();
  EXPECT_TRUE(r.dirty_pages().empty());
  EXPECT_TRUE(collect(r).pages.empty());  // not tracking: visits nothing
}

TEST_P(TrackedRegionTest, RetrackingAfterEndWorks) {
  mem::TrackedRegion r(256, GetParam());
  for (int round = 0; round < 5; ++round) {
    r.begin_tracking();
    r.data()[round] = static_cast<std::byte>(round + 1);
    EXPECT_EQ(r.fault_count(), 1u) << round;
    EXPECT_EQ(collect(r).pages.size(), 1u) << round;
    r.end_tracking();
    r.data()[round + 8] = std::byte{9};  // untracked: never reported
  }
  r.begin_tracking();
  EXPECT_TRUE(r.dirty_pages().empty());
  r.end_tracking();
}

TEST_P(TrackedRegionTest, NextWriteAfterCollectIsDetectedAgain) {
  // The next write to a page is detected whether the page is still hot
  // (the collect's compare finds it) or has gone cold (the trap does), and
  // either way the twin is the page as that interval began.
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(2 * ps, GetParam());
  r.begin_tracking();
  r.data()[ps + 1] = std::byte{0x10};
  EXPECT_EQ(collect(r).pages, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(r.page_dirty(1));  // hot: the write is not trapped again
  r.data()[ps + 2] = std::byte{0x20};
  EXPECT_EQ(r.fault_count(), 1u);
  Collected c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{1}));
  EXPECT_EQ(diff_page(r, 1, c.twins[0]),
            (std::vector<mem::ByteRange>{{ps + 2, ps + 3}}));

  for (std::size_t i = 0; i < mem::TrackedRegion::kCoolAfter; ++i) {
    EXPECT_TRUE(collect(r).pages.empty());
  }
  EXPECT_FALSE(r.page_dirty(1));  // cold: the next write is trapped
  r.data()[ps + 3] = std::byte{0x30};
  EXPECT_TRUE(r.page_dirty(1));
  EXPECT_EQ(r.fault_count(), 1u);
  c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{1}));
  EXPECT_EQ(diff_page(r, 1, c.twins[0]),
            (std::vector<mem::ByteRange>{{ps + 3, ps + 4}}));
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ScatteredWrittenPagesComeBackComplete) {
  // 300 written pages, none adjacent, so each is its own run in the
  // kernel's scan output: more runs than one scan call returns.
  const std::size_t ps = mem::Region::host_page_size();
  constexpr std::size_t kWritten = 300;
  mem::TrackedRegion r(3 * kWritten * ps, GetParam());
  std::memset(r.data(), 0x5C, r.length());
  r.begin_tracking();
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < kWritten; ++i) {
    const std::size_t page = 3 * i + i % 2;
    r.data()[page * ps + i % ps] = std::byte{0x01};
    expected.push_back(page);
  }
  EXPECT_EQ(r.fault_count(), kWritten);
  const Collected c = collect(r);
  EXPECT_EQ(c.pages, expected);
  for (std::size_t i = 0; i < c.twins.size(); ++i) {
    ASSERT_EQ(std::to_integer<int>(c.twins[i][i % ps]), 0x5C) << i;
  }
  // They stay hot, so the same scan now finds them hot; a second write to
  // half of them comes back complete from the compare alone.
  EXPECT_EQ(r.dirty_pages(), expected);
  std::vector<std::size_t> rewritten;
  for (std::size_t i = 0; i < kWritten; i += 2) {
    r.data()[expected[i] * ps + i % ps] = std::byte{0x02};
    rewritten.push_back(expected[i]);
  }
  EXPECT_EQ(collect(r).pages, rewritten);
  // Going cold is one re-protect per page here (no two are adjacent).
  for (std::size_t i = 0; i < mem::TrackedRegion::kCoolAfter; ++i) {
    EXPECT_TRUE(collect(r).pages.empty());
  }
  EXPECT_TRUE(r.dirty_pages().empty());
  r.end_tracking();
}

TEST_P(TrackedRegionTest, AliasWritesAreNeverReportedWritten) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(8 * ps, GetParam());
  r.begin_tracking();
  const std::vector<std::byte> update(8 * ps, std::byte{0x7E});
  r.apply_update(0, update.data(), update.size());
  EXPECT_EQ(std::to_integer<int>(r.data()[5 * ps + 3]), 0x7E);
  EXPECT_TRUE(r.dirty_pages().empty());
  EXPECT_EQ(r.fault_count(), 0u);
  EXPECT_TRUE(collect(r).pages.empty());
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ApplyUpdateIsInvisibleToDiff) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(ps, GetParam());
  r.begin_tracking();
  // Local write first: page written.
  r.data()[0] = std::byte{1};
  // Incoming DSM update elsewhere on the page.
  const std::byte upd[2] = {std::byte{0xAB}, std::byte{0xCD}};
  r.apply_update(100, upd, 2);
  const Collected c = collect(r);
  ASSERT_EQ(c.pages.size(), 1u);
  // Only the local write.
  EXPECT_EQ(diff_page(r, 0, c.twins[0]),
            (std::vector<mem::ByteRange>{{0, 1}}));
  EXPECT_EQ(std::to_integer<int>(r.data()[100]), 0xAB);
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ApplyUpdateOnCleanProtectedPage) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(2 * ps, GetParam());
  r.begin_tracking();
  const std::byte upd[4] = {std::byte{1}, std::byte{2}, std::byte{3},
                            std::byte{4}};
  // Applied through the alias view: lands without tripping the trap and
  // without dirtying the page.
  r.apply_update(ps + 8, upd, 4);
  EXPECT_FALSE(r.page_dirty(1));
  EXPECT_EQ(std::to_integer<int>(r.data()[ps + 8]), 1);
  // A subsequent application write is diffed against the *post-update*
  // content, so the diff reports only the application write.
  r.data()[ps + 100] = std::byte{0x55};
  ASSERT_TRUE(r.page_dirty(1));
  const Collected c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{1}));
  EXPECT_EQ(diff_page(r, 1, c.twins[0]),
            (std::vector<mem::ByteRange>{{ps + 100, ps + 101}}));
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ApplyUpdateLeavesTheNextDiffSilent) {
  // An update on a written page and one on a clean page: neither shows in
  // this interval's diff nor in the next one's.
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(2 * ps, GetParam());
  r.begin_tracking();
  r.data()[0] = std::byte{1};
  const std::byte upd[2] = {std::byte{0xEE}, std::byte{0xEF}};
  r.apply_update(10, upd, 2);       // page 0: written
  r.apply_update(ps + 20, upd, 2);  // page 1: clean
  Collected c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{0}));
  EXPECT_EQ(diff_page(r, 0, c.twins[0]),
            (std::vector<mem::ByteRange>{{0, 1}}));

  r.data()[ps + 30] = std::byte{2};
  r.data()[50] = std::byte{3};
  c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(diff_page(r, 0, c.twins[0]),
            (std::vector<mem::ByteRange>{{50, 51}}));
  EXPECT_EQ(diff_page(r, 1, c.twins[1]),
            (std::vector<mem::ByteRange>{{ps + 30, ps + 31}}));
  r.end_tracking();
}

TEST_P(TrackedRegionTest, HotPageCoolsAfterCleanCollectsAndHeatsAgain) {
  // hot -> cold after kCoolAfter clean collects -> hot on the next write.
  // A run of adjacent pages cools together, and a page written in between
  // restarts its count.
  const std::size_t ps = mem::Region::host_page_size();
  constexpr std::size_t K = mem::TrackedRegion::kCoolAfter;
  mem::TrackedRegion r(4 * ps, GetParam());
  r.begin_tracking();
  for (std::size_t p = 0; p < 3; ++p) r.data()[p * ps] = std::byte{1};
  EXPECT_EQ(collect(r).pages, (std::vector<std::size_t>{0, 1, 2}));
  for (std::size_t i = 1; i < K; ++i) {
    EXPECT_TRUE(collect(r).pages.empty()) << i;
    EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{0, 1, 2})) << i;
  }
  r.data()[2 * ps] = std::byte{2};
  // Pages 0 and 1 compare clean for the K-th time and cool together; page
  // 2 changed, so its count restarts.
  EXPECT_EQ(collect(r).pages, (std::vector<std::size_t>{2}));
  EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{2}));
  for (std::size_t i = 1; i < K; ++i) EXPECT_TRUE(collect(r).pages.empty());
  EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(collect(r).pages.empty());
  EXPECT_TRUE(r.dirty_pages().empty());

  // Cold again: the next write is trapped, makes the page hot and is
  // collected against the shadow of the last changed interval.
  r.data()[ps + 5] = std::byte{7};
  EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{1}));
  const Collected c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{1}));
  EXPECT_EQ(diff_page(r, 1, c.twins[0]),
            (std::vector<mem::ByteRange>{{ps + 5, ps + 6}}));
  EXPECT_EQ(r.dirty_pages(), (std::vector<std::size_t>{1}));
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ApplyOnAHotPageStaysSilent) {
  // apply_update and apply_strided on a hot page write the shadow too, so
  // the next collect's compare finds the page clean (or, beside a local
  // write, reports only that write) and the page stays hot.
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(2 * ps, GetParam());
  r.begin_tracking();
  r.data()[0] = std::byte{1};
  r.data()[ps] = std::byte{1};
  ASSERT_EQ(collect(r).pages, (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(r.dirty_pages(), (std::vector<std::size_t>{0, 1}));

  const std::byte upd[8] = {std::byte{0xA1}, std::byte{0xA2}, std::byte{0xA3},
                            std::byte{0xA4}, std::byte{0xA5}, std::byte{0xA6},
                            std::byte{0xA7}, std::byte{0xA8}};
  r.apply_update(100, upd, sizeof(upd));
  r.apply_strided(ps + 200, upd, 2, 4, 6);
  EXPECT_TRUE(collect(r).pages.empty());
  EXPECT_EQ(std::to_integer<int>(r.data()[107]), 0xA8);
  EXPECT_EQ(std::to_integer<int>(r.data()[ps + 218]), 0xA7);

  r.apply_strided(300, upd, 1, 8, 3);
  r.data()[400] = std::byte{9};
  r.apply_update(ps + 300, upd, sizeof(upd));
  const Collected c = collect(r);
  ASSERT_EQ(c.pages, (std::vector<std::size_t>{0}));
  EXPECT_EQ(diff_page(r, 0, c.twins[0]),
            (std::vector<mem::ByteRange>{{400, 401}}));
  EXPECT_TRUE(r.page_dirty(0));
  // Page 1 has compared clean in the two collects since it was written.
  EXPECT_EQ(r.page_dirty(1), mem::TrackedRegion::kCoolAfter > 2);
  r.end_tracking();
}

TEST_P(TrackedRegionTest, RandomScheduleVisitsExactlyTheChangedPages) {
  // A seeded schedule of local writes, applied updates and collects.  The
  // reference is a snapshot of the image at the previous collect with every
  // applied update written in: each collect must visit exactly the pages
  // that differ from it, hand over that page as the twin, and leave no
  // page visited that a brute-force compare calls clean.
  const std::size_t ps = mem::Region::host_page_size();
  constexpr std::size_t kPages = 12;
  mem::TrackedRegion r(kPages * ps, GetParam());
  std::mt19937_64 rng(20061017);
  std::memset(r.data(), 0, r.length());
  r.begin_tracking();
  std::vector<std::byte> reference(r.data(), r.data() + r.length());
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int round = 0; round < 400; ++round) {
    // Mostly quiet rounds, so pages cool; some pages bursty, so they heat.
    const std::size_t ops = pick(4) == 0 ? pick(12) : pick(3);
    for (std::size_t k = 0; k < ops; ++k) {
      const std::size_t page = pick(3) == 0 ? pick(kPages) : pick(3);
      const std::size_t at = page * ps + pick(ps - 16);
      const auto value = static_cast<std::byte>(pick(4));  // often a no-op
      switch (pick(3)) {
        case 0:
          r.data()[at] = value;
          break;
        case 1: {
          std::byte upd[16];
          std::memset(upd, std::to_integer<int>(value), sizeof(upd));
          r.apply_update(at, upd, sizeof(upd));
          std::memcpy(reference.data() + at, upd, sizeof(upd));
          break;
        }
        default: {
          std::byte upd[4];
          std::memset(upd, std::to_integer<int>(value), sizeof(upd));
          r.apply_strided(at, upd, 1, 4, 5);
          for (std::size_t e = 0; e < 4; ++e) reference[at + 5 * e] = upd[e];
          break;
        }
      }
    }
    std::vector<std::size_t> changed;
    for (std::size_t p = 0; p < kPages; ++p) {
      if (std::memcmp(r.data() + p * ps, reference.data() + p * ps, ps) != 0) {
        changed.push_back(p);
      }
    }
    const Collected c = collect(r);
    ASSERT_EQ(c.pages, changed) << "round " << round;
    for (std::size_t i = 0; i < c.pages.size(); ++i) {
      ASSERT_EQ(std::memcmp(c.twins[i].data(),
                            reference.data() + c.pages[i] * ps, ps),
                0)
          << "round " << round << " page " << c.pages[i];
    }
    std::memcpy(reference.data(), r.data(), r.length());
  }
  r.end_tracking();
}

TEST_P(TrackedRegionTest, ApplyUpdateBoundsChecked) {
  mem::TrackedRegion r(128, GetParam());
  const std::byte b{0};
  EXPECT_THROW(r.apply_update(r.length(), &b, 1), std::out_of_range);
}

TEST_P(TrackedRegionTest, ConcurrentWritersAllPagesTwinnedCorrectly) {
  // Four threads write the pages concurrently, interval after interval.
  // The set of pages written moves between intervals, so the writers hit
  // cold pages (trapped, maybe by several threads at once), hot pages (not
  // trapped) and pages that went cold a collect ago.  Every collect must
  // visit exactly the pages written with new bytes, with the page as the
  // interval began as its twin, whichever thread won each trap.
  const std::size_t ps = mem::Region::host_page_size();
  constexpr std::size_t kPages = 8;
  constexpr int kThreads = 4;
  constexpr std::size_t K = mem::TrackedRegion::kCoolAfter;
  mem::TrackedRegion r(kPages * ps, GetParam());
  std::memset(r.data(), 0x33, kPages * ps);
  r.begin_tracking();
  std::vector<std::byte> before(r.data(), r.data() + r.length());
  for (int round = 0; round < static_cast<int>(4 * K + 8); ++round) {
    // Round n writes the pages whose bit is set in a mask that changes
    // every round and leaves some pages quiet for K rounds or longer.
    const unsigned mask = round % (K + 2) < 2 ? 0xFFu : 0x0Fu << (round % 5);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&r, t, ps, mask, round] {
        for (std::size_t p = 0; p < kPages; ++p) {
          if ((mask >> p & 1u) == 0) continue;
          for (int i = 0; i < 64; ++i) {
            r.data()[p * ps + t * 64 + i] =
                static_cast<std::byte>(round * kThreads + t + 1);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    std::vector<std::size_t> written;
    for (std::size_t p = 0; p < kPages; ++p) {
      if ((mask >> p & 1u) != 0) written.push_back(p);
    }
    const Collected c = collect(r);
    ASSERT_EQ(c.pages, written) << "round " << round;
    for (std::size_t i = 0; i < c.pages.size(); ++i) {
      const std::size_t off = c.pages[i] * ps;
      ASSERT_EQ(std::memcmp(c.twins[i].data(), before.data() + off, ps), 0)
          << "round " << round << " page " << c.pages[i];
    }
    std::memcpy(before.data(), r.data(), r.length());
  }
  r.end_tracking();
}

namespace {

/// Over many intervals, one thread makes the application's first write to
/// the first `kAppLen` bytes of page 0 while another calls `apply(value)`,
/// which updates other bytes of the same page.  Each collect must report
/// exactly the application's bytes as changed, so the applied bytes are in
/// the twin, whichever thread reaches the page first.
constexpr std::size_t kAppLen = 64;

template <typename Apply>
void first_write_races_apply(mem::TrackedRegion& r, Apply apply) {
  r.begin_tracking();
  for (int round = 0; round < 300; ++round) {
    // Both values flip every round, so every round changes both spans.
    const std::byte app_value{round % 2 ? std::byte{0xA0} : std::byte{0x50}};
    const std::byte upd_value{round % 2 ? std::byte{0x0C} : std::byte{0x03}};
    std::atomic<int> ready{0};
    const auto start_together = [&ready] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
    };
    std::thread writer([&] {
      start_together();
      std::memset(r.data(), std::to_integer<int>(app_value), kAppLen);
    });
    std::thread applier([&] {
      start_together();
      apply(upd_value);
    });
    writer.join();
    applier.join();
    const Collected c = collect(r);
    ASSERT_EQ(c.pages, (std::vector<std::size_t>{0})) << "round " << round;
    ASSERT_EQ(diff_page(r, 0, c.twins[0]),
              (std::vector<mem::ByteRange>{{0, kAppLen}}))
        << "round " << round;
  }
  r.end_tracking();
}

}  // namespace

TEST_P(TrackedRegionTest, ApplyUpdateRacingTheFirstWriteLandsInTheTwin) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(ps, GetParam());
  constexpr std::size_t kAt = 1024, kLen = 64;
  first_write_races_apply(r, [&](std::byte v) {
    std::byte upd[kLen];
    std::memset(upd, std::to_integer<int>(v), kLen);
    r.apply_update(kAt, upd, kLen);
    // A silent diff alone would also pass if the update never landed.
    for (std::size_t i = 0; i < kLen; ++i) ASSERT_EQ(r.data()[kAt + i], v);
  });
}

TEST_P(TrackedRegionTest, ApplyStridedRacingTheFirstWriteLandsInTheTwin) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion r(ps, GetParam());
  constexpr std::size_t kAt = 2048, kElem = 4, kCount = 16, kStride = 12;
  first_write_races_apply(r, [&](std::byte v) {
    std::byte upd[kElem * kCount];
    std::memset(upd, std::to_integer<int>(v), sizeof(upd));
    r.apply_strided(kAt, upd, kElem, kCount, kStride);
    for (std::size_t k = 0; k < kCount; ++k) {
      for (std::size_t i = 0; i < kStride; ++i) {
        const std::byte want = i < kElem ? v : std::byte{0};
        ASSERT_EQ(r.data()[kAt + k * kStride + i], want);
      }
    }
  });
}

TEST_P(TrackedRegionTest, ManyRegionsIndependent) {
  mem::TrackedRegion a(256, GetParam()), b(256, GetParam());
  a.begin_tracking();
  b.begin_tracking();
  a.data()[0] = std::byte{1};
  EXPECT_EQ(a.fault_count(), 1u);
  EXPECT_EQ(b.fault_count(), 0u);
  b.data()[10] = std::byte{2};
  EXPECT_EQ(b.fault_count(), 1u);
  EXPECT_EQ(collect(a).pages.size(), 1u);
  EXPECT_EQ(collect(b).pages.size(), 1u);
  a.end_tracking();
  b.end_tracking();
}

TEST_P(TrackedRegionTest, RegistryTracksLifetime) {
  // Only the Sigsegv backend enters the signal handler's registry.
  const std::size_t before = mem::trap_internal::registered_count();
  const std::size_t held = GetParam() == mem::TrapBackend::Sigsegv ? 1 : 0;
  {
    mem::TrackedRegion r(64, GetParam());
    EXPECT_EQ(mem::trap_internal::registered_count(), before + held);
  }
  EXPECT_EQ(mem::trap_internal::registered_count(), before);
}

TEST(TrackedRegion, DefaultPicksUffdWhereTheKernelOffersIt) {
  // Linux 6.7 added WP_ASYNC and PAGEMAP_SCAN.  Where the kernel is that
  // new and lets this process open a userfaultfd, Auto must not fall back.
  utsname u{};
  ASSERT_EQ(::uname(&u), 0);
  int major = 0;
  int minor = 0;
  std::sscanf(u.release, "%d.%d", &major, &minor);
  const int fd = static_cast<int>(
      ::syscall(SYS_userfaultfd, O_CLOEXEC | UFFD_USER_MODE_ONLY));
  if (fd >= 0) ::close(fd);
  mem::TrackedRegion r(64);
  if (fd < 0 || major < 6 || (major == 6 && minor < 7)) {
    EXPECT_EQ(r.backend(), mem::TrapBackend::Sigsegv);
    GTEST_SKIP() << "kernel " << u.release << " offers no async uffd trap";
  }
  EXPECT_EQ(r.backend(), mem::TrapBackend::Uffd);
}

TEST(TrackedRegion, ForkedChildTracksOnlyRegionsItMakes) {
  mem::TrackedRegion inherited(64);
  if (inherited.backend() != mem::TrapBackend::Uffd) {
    GTEST_SKIP() << "no uffd backend on this kernel";
  }
  inherited.begin_tracking();  // registers it with this process's uffd
  inherited.end_tracking();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child reports through its exit code only.
    int code = 0;
    try {
      mem::TrackedRegion own(64);
      own.begin_tracking();
      own.data()[0] = std::byte{1};
      if (own.backend() != mem::TrapBackend::Uffd) code = 1;
      if (own.fault_count() != 1) code = 2;
      own.end_tracking();
    } catch (...) {
      code = 3;
    }
    try {
      inherited.begin_tracking();  // not registered in this process
      if (code == 0) code = 4;
    } catch (const std::system_error&) {
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The parent's tracking is untouched by the child.
  inherited.begin_tracking();
  inherited.data()[3] = std::byte{3};
  EXPECT_EQ(inherited.fault_count(), 1u);
  inherited.end_tracking();
}

TEST(TrackedRegion, ExplicitSigsegvIsHonoured) {
  mem::TrackedRegion r(64, mem::TrapBackend::Sigsegv);
  EXPECT_EQ(r.backend(), mem::TrapBackend::Sigsegv);
}

// ---- diff engine -----------------------------------------------------------

TEST(Diff, IdenticalBuffersNoRanges) {
  std::vector<std::byte> a(1000, std::byte{7}), b(1000, std::byte{7});
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(a.data(), b.data(), 1000, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(Diff, SingleByteChange) {
  std::vector<std::byte> a(1000), b(1000);
  a[537] = std::byte{1};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(a.data(), b.data(), 1000, 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (mem::ByteRange{537, 538}));
}

TEST(Diff, RangesAreByteExact) {
  std::vector<std::byte> a(256), b(256);
  for (int i = 40; i < 60; ++i) a[i] = std::byte{1};
  for (int i = 61; i < 64; ++i) a[i] = std::byte{2};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(a.data(), b.data(), 256, 0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (mem::ByteRange{40, 60}));
  EXPECT_EQ(out[1], (mem::ByteRange{61, 64}));
}

TEST(Diff, BaseOffsetApplied) {
  std::vector<std::byte> a(64), b(64);
  a[5] = std::byte{9};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(a.data(), b.data(), 64, 4096, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (mem::ByteRange{4101, 4102}));
}

TEST(Diff, ChangesAtBufferEdges) {
  std::vector<std::byte> a(128), b(128);
  a[0] = std::byte{1};
  a[127] = std::byte{1};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(a.data(), b.data(), 128, 0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (mem::ByteRange{0, 1}));
  EXPECT_EQ(out[1], (mem::ByteRange{127, 128}));
}

TEST(Diff, UnalignedLengths) {
  for (const std::size_t len : {1u, 3u, 7u, 9u, 15u, 63u, 65u}) {
    std::vector<std::byte> a(len), b(len);
    a[len - 1] = std::byte{1};
    std::vector<mem::ByteRange> out;
    mem::diff_bytes(a.data(), b.data(), len, 0, out);
    ASSERT_EQ(out.size(), 1u) << len;
    EXPECT_EQ(out[0], (mem::ByteRange{len - 1, len}));
  }
}

TEST(Diff, RandomPropertyRangesReconstructChanges) {
  std::mt19937_64 rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = 1 + rng() % 5000;
    std::vector<std::byte> twin(len), cur(len);
    for (std::size_t i = 0; i < len; ++i) {
      twin[i] = static_cast<std::byte>(rng());
    }
    cur = twin;
    std::vector<bool> changed(len, false);
    const std::size_t nmods = rng() % 20;
    for (std::size_t m = 0; m < nmods; ++m) {
      const std::size_t pos = rng() % len;
      const std::byte nv = static_cast<std::byte>(rng());
      if (nv != twin[pos]) {
        cur[pos] = nv;
        changed[pos] = true;
      }
    }
    std::vector<mem::ByteRange> out;
    mem::diff_bytes(cur.data(), twin.data(), len, 0, out);
    // Every reported byte really differs; every differing byte is reported.
    std::vector<bool> reported(len, false);
    for (const mem::ByteRange& r : out) {
      ASSERT_LE(r.begin, r.end);
      ASSERT_LE(r.end, len);
      for (std::size_t i = r.begin; i < r.end; ++i) reported[i] = true;
    }
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(reported[i], changed[i]) << "iter " << iter << " byte " << i;
    }
  }
}

TEST(Diff, ContiguousChangesMergeAcrossCalls) {
  // Successive calls model successive pages: a change ending at the tail
  // of page 0 and one at the head of page 1 are one range — the
  // documented cross-page contract of diff_bytes.
  std::vector<std::byte> q0(16), t0(16), q1(16), t1(16);
  q0[15] = std::byte{2};
  q1[0] = std::byte{2};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(q0.data(), t0.data(), 16, 0, out);
  mem::diff_bytes(q1.data(), t1.data(), 16, 16, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (mem::ByteRange{15, 17}));
}

TEST(Diff, FinalPartialPageWindow) {
  // The last page of a region is typically a short window; a change in
  // its final byte must be reported against the right absolute offset.
  std::vector<std::byte> full(32), twin_full(32), part(5), twin_part(5);
  full[3] = std::byte{1};
  part[4] = std::byte{1};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(full.data(), twin_full.data(), 32, 0, out);
  mem::diff_bytes(part.data(), twin_part.data(), 5, 32, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (mem::ByteRange{3, 4}));
  EXPECT_EQ(out[1], (mem::ByteRange{36, 37}));
  EXPECT_EQ(mem::total_bytes(out), 2u);
}

TEST(Diff, OutOfOrderWindowsRejected) {
  // The in-place back-merge assumes ascending windows; calling with a
  // window that starts before the last recorded range must throw rather
  // than corrupt the range list.
  std::vector<std::byte> a(16), b(16);
  a[2] = std::byte{1};
  std::vector<mem::ByteRange> out;
  mem::diff_bytes(a.data(), b.data(), 16, 64, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_THROW(mem::diff_bytes(a.data(), b.data(), 16, 0, out),
               std::invalid_argument);
  // The range list is untouched by the rejected call.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (mem::ByteRange{66, 67}));
}


// Edge-case and API-surface tests that cut across modules: RAII locking,
// image persistence, every scalar category end-to-end through the DSD,
// option combinations on real workloads, and shutdown/orderly-teardown
// behavior.
#include <gtest/gtest.h>

#include <thread>
#include <unistd.h>

#include "dsm/image_io.hpp"
#include "dsm/scoped_lock.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "mig/io_state.hpp"
#include "tags/describe.hpp"
#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
namespace work = hdsm::work;

namespace {

tags::TypePtr all_kinds_gthv() {
  return tags::describe_struct("AllKinds")
      .array<signed char>("chars", 8)
      .array<unsigned short>("ushorts", 8)
      .array<int>("ints", 8)
      .array<unsigned int>("uints", 8)
      .array<long>("longs", 8)
      .array<long long>("lls", 8)
      .array<float>("floats", 8)
      .array<double>("doubles", 8)
      .array<long double>("lds", 4)
      .pointer("ptr")
      .build();
}

}  // namespace

TEST(ScopedLock, LocksAndUnlocksViaRaii) {
  tags::TypePtr gthv = tags::describe_struct("G").field<int>("x").build();
  dsm::ShardedHome home(gthv, plat::linux_ia32());
  home.start();
  {
    dsm::ScopedLock guard(home, 0);
    home.space().view<std::int32_t>("x").set(9);
  }  // unlocks here
  EXPECT_TRUE(home.quiesced());
  {
    dsm::ScopedLock guard(home, 0);
    guard.unlock();  // early release is idempotent with the destructor
  }
  EXPECT_TRUE(home.quiesced());
  home.stop();
}

TEST(ImageIo, SaveOnOnePlatformLoadOnAnother) {
  const std::string path = ::testing::TempDir() + "hdsm_image.bin";
  tags::TypePtr gthv = all_kinds_gthv();
  {
    dsm::GlobalSpace big(gthv, plat::solaris_sparc64());
    big.view<std::int8_t>("chars").set(0, -7);
    big.view<std::uint16_t>("ushorts").set(1, 60000);
    big.view<std::int32_t>("ints").set(2, -123456);
    big.view<std::uint32_t>("uints").set(3, 0xdeadbeef);
    big.view<std::int64_t>("longs").set(4, -5000000000LL);
    big.view<std::int64_t>("lls").set(5, 1LL << 60);
    big.view<float>("floats").set(6, 1.5f);
    big.view<double>("doubles").set(7, -2.25);
    big.view<double>("lds").set(1, 3.75);  // binary128 storage
    big.view<std::uint64_t>("ptr").set(0x42);
    dsm::save_image(big, path);
  }
  dsm::GlobalSpace little(gthv, plat::linux_ia32());
  dsm::load_image(little, path);
  EXPECT_EQ(little.view<std::int8_t>("chars").get(0), -7);
  EXPECT_EQ(little.view<std::uint16_t>("ushorts").get(1), 60000);
  EXPECT_EQ(little.view<std::int32_t>("ints").get(2), -123456);
  EXPECT_EQ(little.view<std::uint32_t>("uints").get(3), 0xdeadbeefu);
  // long is 4 bytes on IA-32: the value truncates two's-complement style,
  // exactly as CGT-RMR narrows any integer.
  EXPECT_EQ(little.view<std::int64_t>("lls").get(5), 1LL << 60);
  EXPECT_EQ(little.view<float>("floats").get(6), 1.5f);
  EXPECT_EQ(little.view<double>("doubles").get(7), -2.25);
  EXPECT_EQ(little.view<double>("lds").get(1), 3.75);  // x87 storage now
  EXPECT_EQ(little.view<std::uint64_t>("ptr").get(), 0x42u);
  ::unlink(path.c_str());
}

TEST(ImageIo, CorruptFilesRejected) {
  const std::string path = ::testing::TempDir() + "hdsm_image_bad.bin";
  {
    hdsm::mig::MigratableFile f =
        hdsm::mig::MigratableFile::open(path, hdsm::mig::FileMode::Write);
    f.write("HDSMIMG1\x00\x00\x00\x00\x00\x10garbage", 22);
  }
  tags::TypePtr gthv = tags::describe_struct("G").field<int>("x").build();
  dsm::GlobalSpace g(gthv, plat::linux_ia32());
  EXPECT_THROW(dsm::load_image(g, path), std::runtime_error);
  ::unlink(path.c_str());
}

TEST(ImageIo, ShapeMismatchRejected) {
  const std::string path = ::testing::TempDir() + "hdsm_image_shape.bin";
  tags::TypePtr a = tags::describe_struct("A").array<int>("v", 4).build();
  tags::TypePtr b = tags::describe_struct("B").array<int>("v", 5).build();
  {
    dsm::GlobalSpace ga(a, plat::linux_ia32());
    dsm::save_image(ga, path);
  }
  dsm::GlobalSpace gb(b, plat::linux_ia32());
  EXPECT_THROW(dsm::load_image(gb, path), std::runtime_error);
  ::unlink(path.c_str());
}

TEST(ImageIo, CheckpointRestartResumesSharedComputation) {
  // Save the master image mid-run; a fresh "restarted" home continues.
  const std::string path = ::testing::TempDir() + "hdsm_image_resume.bin";
  tags::TypePtr gthv =
      tags::describe_struct("G").array<long long>("acc", 32).build();
  {
    dsm::ShardedHome home(gthv, plat::linux_ia32());
    home.start();
    home.lock(0);
    auto acc = home.space().view<std::int64_t>("acc");
    for (int i = 0; i < 16; ++i) acc.set(i, 100 + i);
    home.unlock(0);
    dsm::save_image(home.space(), path);
    home.stop();
  }
  dsm::ShardedHome restarted(gthv, plat::solaris_sparc32());
  dsm::load_image(restarted.space(), path);
  restarted.start();
  restarted.lock(0);
  auto acc = restarted.space().view<std::int64_t>("acc");
  for (int i = 16; i < 32; ++i) acc.set(i, 100 + i);
  restarted.unlock(0);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(acc.get(i), 100 + i);
  restarted.stop();
  ::unlink(path.c_str());
}

TEST(DsdEndToEnd, EveryScalarCategoryCrossesTheBoundary) {
  tags::TypePtr gthv = all_kinds_gthv();
  dsm::ShardedHome home(gthv, plat::linux_ia32());
  dsm::ShardedRemote remote(gthv, plat::solaris_sparc64(), 1, home.attach(1));
  home.start();
  std::thread t([&] {
    remote.lock(0);
    remote.space().view<std::int8_t>("chars").set(0, -100);
    remote.space().view<std::uint16_t>("ushorts").set(0, 54321);
    remote.space().view<std::int32_t>("ints").set(0, -1);
    remote.space().view<std::uint32_t>("uints").set(0, 4000000000u);
    remote.space().view<std::int64_t>("longs").set(0, -77);  // 8B there, 4B home
    remote.space().view<std::int64_t>("lls").set(0, -(1LL << 40));
    remote.space().view<float>("floats").set(0, -0.25f);
    remote.space().view<double>("doubles").set(0, 1e100);
    remote.space().view<double>("lds").set(0, -6.5);
    remote.space().view<std::uint64_t>("ptr").set(99);
    remote.unlock(0);
    remote.join();
  });
  t.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int8_t>("chars").get(0), -100);
  EXPECT_EQ(home.space().view<std::uint16_t>("ushorts").get(0), 54321);
  EXPECT_EQ(home.space().view<std::int32_t>("ints").get(0), -1);
  EXPECT_EQ(home.space().view<std::uint32_t>("uints").get(0), 4000000000u);
  EXPECT_EQ(home.space().view<std::int64_t>("longs").get(0), -77);
  EXPECT_EQ(home.space().view<std::int64_t>("lls").get(0), -(1LL << 40));
  EXPECT_EQ(home.space().view<float>("floats").get(0), -0.25f);
  EXPECT_EQ(home.space().view<double>("doubles").get(0), 1e100);
  EXPECT_EQ(home.space().view<double>("lds").get(0), -6.5);
  EXPECT_EQ(home.space().view<std::uint64_t>("ptr").get(), 99u);
  home.stop();
}

TEST(Options, MatmulCorrectUnderEveryOptionCombination) {
  for (const bool bulk_swap : {false, true}) {
    for (const bool coalesce : {false, true}) {
      dsm::ShardedHomeOptions opts;
      opts.dsd.bulk_swap_fastpath = bulk_swap;
      opts.dsd.coalesce_runs = coalesce;
      const auto r =
          work::run_matmul_experiment(work::paper_pairs()[2], 12, opts);
      EXPECT_TRUE(r.verified) << "bulk=" << bulk_swap
                              << " coalesce=" << coalesce;
    }
  }
}

TEST(Shutdown, StopWithActiveRemotesUnblocksThem) {
  tags::TypePtr gthv = tags::describe_struct("G").field<int>("x").build();
  auto home = std::make_unique<dsm::ShardedHome>(gthv, plat::linux_ia32());
  auto ep = home->attach(1);
  dsm::ShardedRemote remote(gthv, plat::linux_ia32(), 1, std::move(ep));
  home->start();
  home->lock(0);  // master holds the lock forever
  std::thread blocked([&] {
    // The remote waits for a grant that never comes; stop() must unblock
    // it with ChannelClosed rather than leaving it hung.
    EXPECT_THROW(remote.lock(0), msg::ChannelClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  home->stop();
  blocked.join();
}

TEST(Shutdown, RemoteProtocolViolationSurfacesAsLogicError) {
  // Feed the remote an unexpected reply type through a raw channel.
  tags::TypePtr gthv = tags::describe_struct("G").field<int>("x").build();
  auto [fake_home, remote_side] = msg::make_channel_pair();
  dsm::ShardedRemote remote(gthv, plat::linux_ia32(), 1,
                            std::move(remote_side));
  (void)fake_home->recv();  // the Hello
  std::thread responder([&] {
    (void)fake_home->recv();  // the LockRequest
    msg::Message wrong;
    wrong.type = msg::MsgType::BarrierRelease;  // not a grant
    fake_home->send(wrong);
  });
  EXPECT_THROW(remote.lock(0), std::logic_error);
  responder.join();
}

TEST(Negotiation, MismatchedGthvRejectedAtAttach) {
  // A remote built against a different GThV must be detached on its Hello,
  // before any updates can corrupt the master image.
  tags::TypePtr home_gthv =
      tags::describe_struct("G").array<int>("A", 16).build();
  tags::TypePtr wrong_gthv =
      tags::describe_struct("G").array<int>("A", 17).build();
  dsm::ShardedHome home(home_gthv, plat::linux_ia32());
  home.start();
  auto ep = home.attach(1);
  dsm::ShardedRemote wrong(wrong_gthv, plat::linux_ia32(), 1, std::move(ep));
  EXPECT_THROW(wrong.lock(0), msg::ChannelClosed);
  home.wait_all_joined();  // the offender was detached
  home.stop();
}

TEST(Negotiation, SameShapeDifferentPlatformAccepted) {
  // Heterogeneous tags (different sizes) for the same structure pass.
  tags::TypePtr gthv = tags::describe_struct("G")
                           .pointer("p")
                           .array<long>("A", 8)
                           .build();
  dsm::ShardedHome home(gthv, plat::linux_ia32());
  dsm::ShardedRemote remote(gthv, plat::solaris_sparc64(), 1, home.attach(1));
  home.start();
  remote.lock(0);
  remote.space().view<std::int64_t>("A").set(0, 5);
  remote.unlock(0);
  remote.join();
  home.wait_all_joined();
  EXPECT_EQ(home.space().view<std::int64_t>("A").get(0), 5);
  home.stop();
}

TEST(Csv, ShareStatsRowsAreWellFormed) {
  dsm::ShareStats s;
  s.index_ns = 1;
  s.tag_ns = 2;
  s.conv_ns = 5;
  s.locks = 7;
  const std::string header = dsm::ShareStats::csv_header();
  const std::string row = s.to_csv_row();
  const auto commas = [](const std::string& x) {
    return std::count(x.begin(), x.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
  EXPECT_NE(row.find("1,2,0,0,5,8,7"), std::string::npos);
}

TEST(Csv, ReliabilityCountersSerialize) {
  // Every ShareStats field — including the reliability counters — must make
  // it into the bench emitters' CSV, in header order.
  const std::string header = dsm::ShareStats::csv_header();
  for (const char* col :
       {"retries", "timeouts", "duplicates_dropped", "reconnects"}) {
    EXPECT_NE(header.find(col), std::string::npos) << col;
  }
  dsm::ShareStats s;
  s.retries = 3;
  s.timeouts = 4;
  s.duplicates_dropped = 5;
  s.reconnects = 6;
  const std::string row = s.to_csv_row();
  EXPECT_NE(row.find(",3,4,5,6"), std::string::npos) << row;
  // The counters aggregate across nodes like every other field.
  dsm::ShareStats sum;
  sum += s;
  sum += s;
  EXPECT_EQ(sum.retries, 6u);
  EXPECT_EQ(sum.reconnects, 12u);
  // And the human rendering mentions them once any is nonzero.
  EXPECT_NE(s.to_string().find("retries=3"), std::string::npos);
  EXPECT_EQ(dsm::ShareStats{}.to_string().find("retries="),
            std::string::npos);
}

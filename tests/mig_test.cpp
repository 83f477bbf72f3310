// Tests for the MigThread runtime: tagged struct images, tag-driven
// conversion, thread-state pack/unpack across heterogeneous platforms, the
// resumable-computation harness, and the §3.1 role state machine.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include <unistd.h>

#include "mig/checkpoint.hpp"
#include "mig/io_state.hpp"
#include "mig/portable_heap.hpp"
#include "mig/roles.hpp"
#include "mig/runner.hpp"
#include "mig/struct_image.hpp"
#include "mig/tagged_convert.hpp"
#include "mig/thread_state.hpp"
#include "msg/endpoint.hpp"

namespace mig = hdsm::mig;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
namespace msg = hdsm::msg;
using tags::TypeDesc;

namespace {

tags::TypePtr locals_type() {
  return TypeDesc::struct_of("locals",
                             {{"i", tags::t_int()},
                              {"acc", tags::t_double()},
                              {"buf", TypeDesc::array(tags::t_int(), 16)},
                              {"flag", tags::t_char()}});
}

}  // namespace

// ---- StructImage -----------------------------------------------------------

TEST(StructImage, FieldAccessNativeAndForeign) {
  for (const plat::PlatformDesc* p :
       {&plat::linux_ia32(), &plat::solaris_sparc32()}) {
    mig::StructImage img(locals_type(), *p);
    img.set<std::int32_t>("i", -5);
    img.set<double>("acc", 0.75);
    img.set<std::int32_t>("buf", 99, 7);
    img.set<std::int8_t>("flag", 1);
    EXPECT_EQ(img.get<std::int32_t>("i"), -5) << p->name;
    EXPECT_EQ(img.get<double>("acc"), 0.75) << p->name;
    EXPECT_EQ(img.get<std::int32_t>("buf", 7), 99) << p->name;
    EXPECT_EQ(img.get<std::int8_t>("flag"), 1) << p->name;
  }
}

TEST(StructImage, BadAccessesThrow) {
  mig::StructImage img(locals_type(), plat::linux_ia32());
  EXPECT_THROW(img.get<std::int32_t>("nope"), std::out_of_range);
  EXPECT_THROW(img.get<std::int32_t>("buf", 16), std::out_of_range);
}

TEST(StructImage, TagTextFollowsPlatform) {
  mig::StructImage a(locals_type(), plat::linux_ia32());
  mig::StructImage b(locals_type(), plat::solaris_sparc32());
  EXPECT_EQ(a.tag_text(), "(4,1)(0,0)(8,1)(0,0)(4,16)(0,0)(1,1)(3,0)");
  // SPARC: double aligned to 8 -> padding after the int.
  EXPECT_EQ(b.tag_text(), "(4,1)(4,0)(8,1)(0,0)(4,16)(0,0)(1,1)(7,0)");
}

TEST(StructImage, ConvertToPreservesValues) {
  mig::StructImage src(locals_type(), plat::linux_ia32());
  src.set<std::int32_t>("i", 1234567);
  src.set<double>("acc", -2.25);
  for (int k = 0; k < 16; ++k) src.set<std::int32_t>("buf", k * k, k);
  const mig::StructImage dst = src.convert_to(plat::solaris_sparc64());
  EXPECT_EQ(dst.get<std::int32_t>("i"), 1234567);
  EXPECT_EQ(dst.get<double>("acc"), -2.25);
  for (int k = 0; k < 16; ++k) EXPECT_EQ(dst.get<std::int32_t>("buf", k), k * k);
}

// ---- tag-driven conversion ---------------------------------------------------

TEST(TaggedConvert, RunsFromTagExpandAggregates) {
  const tags::Tag tag = tags::Tag::parse("(4,2)(2,0)((8,1)(0,0),3)(4,-1)");
  const auto runs = mig::runs_from_tag(tag);
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].elem_size, 4u);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_TRUE(runs[1].is_padding);
  EXPECT_EQ(runs[2].offset, 10u);
  EXPECT_EQ(runs[3].offset, 18u);
  EXPECT_EQ(runs[4].offset, 26u);
  EXPECT_TRUE(runs[5].is_pointer);
  EXPECT_EQ(runs[5].offset, 34u);
}

TEST(TaggedConvert, ConvertsUsingOnlyWireKnowledge) {
  // Sender: SPARC32 image + its tag; receiver: IA-32 TypeDesc knowledge.
  const tags::TypePtr t = locals_type();
  mig::StructImage src(t, plat::solaris_sparc32());
  src.set<std::int32_t>("i", -777);
  src.set<double>("acc", 123.5);
  src.set<std::int32_t>("buf", 31, 15);

  const tags::Tag wire_tag = tags::Tag::parse(src.tag_text());
  mig::StructImage dst(t, plat::linux_ia32());
  mig::convert_tagged_image(src.bytes().data(), wire_tag, plat::Endian::Big,
                            plat::LongDoubleFormat::Binary128,
                            dst.bytes().data(), dst.layout());
  EXPECT_EQ(dst.get<std::int32_t>("i"), -777);
  EXPECT_EQ(dst.get<double>("acc"), 123.5);
  EXPECT_EQ(dst.get<std::int32_t>("buf", 15), 31);
}

TEST(TaggedConvert, ShapeMismatchRejected) {
  const tags::TypePtr t = locals_type();
  mig::StructImage dst(t, plat::linux_ia32());
  const tags::Tag bad = tags::Tag::parse("(4,3)");
  std::vector<std::byte> src(12);
  EXPECT_THROW(mig::convert_tagged_image(src.data(), bad, plat::Endian::Big,
                                         plat::LongDoubleFormat::Binary128,
                                         dst.bytes().data(), dst.layout()),
               std::invalid_argument);
}

// ---- thread state -------------------------------------------------------------

TEST(ThreadState, PackUnpackAcrossPlatforms) {
  mig::StateSchema schema;
  schema.register_frame("worker", locals_type());
  schema.register_heap_type("block",
                            TypeDesc::array(tags::t_double(), 4));

  mig::ThreadState state;
  state.rank = 2;
  mig::StructImage locals(locals_type(), plat::linux_ia32());
  locals.set<std::int32_t>("i", 17);
  locals.set<double>("acc", 8.5);
  state.frames.push_back(mig::Frame{"worker", 3, std::move(locals)});

  mig::StructImage heap(TypeDesc::array(tags::t_double(), 4),
                        plat::linux_ia32());
  heap.set<double>("", 1.5, 2);
  state.heap.push_back(mig::HeapObject{42, "block", std::move(heap)});

  const std::vector<std::byte> packed = mig::pack_state(state);
  const mig::ThreadState back = mig::unpack_state(
      packed, schema, plat::solaris_sparc64(),
      msg::PlatformSummary::of(plat::linux_ia32()));

  EXPECT_EQ(back.rank, 2u);
  ASSERT_EQ(back.frames.size(), 1u);
  EXPECT_EQ(back.frames[0].function, "worker");
  EXPECT_EQ(back.frames[0].label, 3u);
  EXPECT_EQ(back.frames[0].locals.get<std::int32_t>("i"), 17);
  EXPECT_EQ(back.frames[0].locals.get<double>("acc"), 8.5);
  ASSERT_EQ(back.heap.size(), 1u);
  EXPECT_EQ(back.heap[0].id, 42u);
  EXPECT_EQ(back.heap[0].image.get<double>("", 2), 1.5);
  EXPECT_EQ(back.heap[0].image.platform().name, "solaris-sparc64");
}

TEST(ThreadState, UnknownFunctionRejected) {
  mig::StateSchema schema;
  mig::ThreadState state;
  state.frames.push_back(
      mig::Frame{"mystery", 0,
                 mig::StructImage(locals_type(), plat::linux_ia32())});
  const auto packed = mig::pack_state(state);
  EXPECT_THROW(mig::unpack_state(packed, schema, plat::linux_ia32(),
                                 msg::PlatformSummary::of(plat::linux_ia32())),
               std::out_of_range);
}

TEST(ThreadState, SendReceiveOverEndpoint) {
  mig::StateSchema schema;
  schema.register_frame("worker", locals_type());
  auto [src_ep, dst_ep] = msg::make_channel_pair();

  mig::ThreadState state;
  state.rank = 1;
  mig::StructImage locals(locals_type(), plat::solaris_sparc32());
  locals.set<std::int32_t>("i", 5);
  state.frames.push_back(mig::Frame{"worker", 1, std::move(locals)});

  std::thread sender([&] {
    mig::send_state(*src_ep, state, plat::solaris_sparc32());
  });
  const mig::ThreadState got =
      mig::receive_state(*dst_ep, schema, plat::linux_x86_64());
  sender.join();
  EXPECT_EQ(got.frames[0].locals.get<std::int32_t>("i"), 5);
}

// ---- resumable runner: migrate mid-computation -----------------------------------

namespace {

// Sums f(0..99) with a migration point every iteration, keeping all live
// state (i, acc) in the frame image — the MigThread execution model.
mig::StepOutcome sum_body(mig::ThreadState& state,
                          const std::atomic<bool>& migrate) {
  mig::Frame& f = state.top();
  std::int32_t i = f.locals.get<std::int32_t>("i");
  double acc = f.locals.get<double>("acc");
  while (i < 100) {
    if (migrate.load(std::memory_order_relaxed)) {
      f.locals.set<std::int32_t>("i", i);
      f.locals.set<double>("acc", acc);
      f.label = 1;
      return mig::StepOutcome::MigrationPoint;
    }
    acc += i * 0.5;
    ++i;
  }
  f.locals.set<std::int32_t>("i", i);
  f.locals.set<double>("acc", acc);
  return mig::StepOutcome::Finished;
}

}  // namespace

TEST(Runner, MigratesMidComputationAcrossPlatforms) {
  mig::StateSchema schema;
  schema.register_frame("sum", locals_type());

  mig::ThreadState state;
  state.rank = 1;
  state.frames.push_back(
      mig::Frame{"sum", 0, mig::StructImage(locals_type(),
                                            plat::linux_ia32())});
  state.top().locals.set<std::int32_t>("i", 0);
  state.top().locals.set<double>("acc", 0.0);

  // Source node: request migration immediately.
  std::atomic<bool> migrate{true};
  ASSERT_EQ(mig::run_until_yield(sum_body, state, migrate),
            mig::StepOutcome::MigrationPoint);

  // Ship to a big-endian skeleton and finish there.
  auto [src_ep, dst_ep] = msg::make_channel_pair();
  std::thread sender([&] {
    mig::send_state(*src_ep, state, plat::linux_ia32());
  });
  mig::ThreadState resumed =
      mig::receive_state(*dst_ep, schema, plat::solaris_sparc32());
  sender.join();

  EXPECT_EQ(resumed.top().label, 1u);
  mig::run_to_completion(sum_body, resumed);
  // Sum of i*0.5 for i in [0,100).
  EXPECT_EQ(resumed.top().locals.get<double>("acc"), 2475.0);
  EXPECT_EQ(resumed.top().locals.get<std::int32_t>("i"), 100);
}

TEST(Runner, RunToCompletionWithoutMigration) {
  mig::ThreadState state;
  state.rank = 0;
  state.frames.push_back(
      mig::Frame{"sum", 0, mig::StructImage(locals_type(),
                                            plat::linux_ia32())});
  mig::run_to_completion(sum_body, state);
  EXPECT_EQ(state.top().locals.get<double>("acc"), 2475.0);
}

// ---- portable heap ------------------------------------------------------------

TEST(PortableHeap, AllocateAccessFree) {
  mig::PortableHeap heap(plat::linux_ia32());
  const std::uint64_t a = heap.allocate("locals", locals_type());
  const std::uint64_t b = heap.allocate("locals", locals_type());
  EXPECT_NE(a, mig::PortableHeap::kNullId);
  EXPECT_NE(a, b);
  heap.object(a).set<std::int32_t>("i", 7);
  heap.object(b).set<std::int32_t>("i", 8);
  EXPECT_EQ(heap.object(a).get<std::int32_t>("i"), 7);
  EXPECT_EQ(heap.object(b).get<std::int32_t>("i"), 8);
  EXPECT_EQ(heap.size(), 2u);
  heap.deallocate(a);
  EXPECT_FALSE(heap.contains(a));
  EXPECT_THROW(heap.object(a), std::out_of_range);
  EXPECT_THROW(heap.deallocate(a), std::out_of_range);
}

TEST(PortableHeap, IdsAreTokensAcrossObjects) {
  // One heap object pointing at another by id; ids survive migration.
  auto node_type = tags::TypeDesc::struct_of(
      "node", {{"value", tags::t_int()},
               {"next", tags::TypeDesc::pointer()}});
  mig::PortableHeap heap(plat::linux_ia32());
  const std::uint64_t head = heap.allocate("node", node_type);
  const std::uint64_t tail = heap.allocate("node", node_type);
  heap.object(head).set<std::uint64_t>("next", tail);
  heap.object(tail).set<std::uint64_t>("next", mig::PortableHeap::kNullId);
  heap.object(tail).set<std::int32_t>("value", 42);
  const std::uint64_t link = heap.object(head).get<std::uint64_t>("next");
  EXPECT_EQ(heap.object(link).get<std::int32_t>("value"), 42);
}

TEST(PortableHeap, SnapshotTravelsWithThreadState) {
  mig::StateSchema schema;
  schema.register_frame("worker", locals_type());
  schema.register_heap_type("locals", locals_type());

  mig::PortableHeap heap(plat::linux_ia32());
  const std::uint64_t id = heap.allocate("locals", locals_type());
  heap.object(id).set<double>("acc", 9.75);

  mig::ThreadState state;
  state.rank = 1;
  state.frames.push_back(mig::Frame{
      "worker", 0, mig::StructImage(locals_type(), plat::linux_ia32())});
  state.heap = heap.snapshot();

  const auto packed = mig::pack_state(state);
  mig::ThreadState arrived = mig::unpack_state(
      packed, schema, plat::solaris_sparc32(),
      msg::PlatformSummary::of(plat::linux_ia32()));
  mig::PortableHeap restored = mig::PortableHeap::restore(
      std::move(arrived.heap), plat::solaris_sparc32());
  EXPECT_TRUE(restored.contains(id));
  EXPECT_EQ(restored.object(id).get<double>("acc"), 9.75);
  // New allocations continue above the migrated ids.
  EXPECT_GT(restored.allocate("locals", locals_type()), id);
}

TEST(PortableHeap, RestoreRejectsDuplicateIds) {
  mig::PortableHeap heap(plat::linux_ia32());
  const std::uint64_t id = heap.allocate("locals", locals_type());
  auto snap = heap.snapshot();
  snap.push_back(mig::HeapObject{
      id, "locals", mig::StructImage(locals_type(), plat::linux_ia32())});
  EXPECT_THROW(
      mig::PortableHeap::restore(std::move(snap), plat::linux_ia32()),
      std::invalid_argument);
}

// ---- file I/O migration ---------------------------------------------------------

TEST(FileMigration, RecordPackUnpackRoundTrip) {
  mig::FileStateRecord r;
  r.path = "/tmp/hdsm-some-file.dat";
  r.mode = mig::FileMode::ReadWrite;
  r.offset = 0x123456789abcull;
  const auto bytes = r.pack();
  EXPECT_EQ(mig::FileStateRecord::unpack(bytes.data(), bytes.size()), r);
}

TEST(FileMigration, RecordUnpackRejectsGarbage) {
  std::vector<std::byte> junk(3, std::byte{0xff});
  EXPECT_THROW(mig::FileStateRecord::unpack(junk.data(), junk.size()),
               std::runtime_error);
}

TEST(FileMigration, WriterMigratesMidFile) {
  const std::string path = ::testing::TempDir() + "hdsm_file_mig.txt";
  ::unlink(path.c_str());
  mig::FileStateRecord record;
  {
    auto f = mig::MigratableFile::open(path, mig::FileMode::Write);
    f.write("hello ", 6);
    record = f.capture();  // "thread migrates" with the file half-written
  }
  {
    auto g = mig::MigratableFile::restore(record);
    EXPECT_EQ(g.tell(), 6u);
    g.write("world", 5);
  }
  auto r = mig::MigratableFile::open(path, mig::FileMode::Read);
  char buf[32] = {};
  EXPECT_EQ(r.read(buf, sizeof(buf)), 11u);
  EXPECT_STREQ(buf, "hello world");
  ::unlink(path.c_str());
}

TEST(FileMigration, ReaderResumesAtOffset) {
  const std::string path = ::testing::TempDir() + "hdsm_file_read.txt";
  {
    auto w = mig::MigratableFile::open(path, mig::FileMode::Write);
    w.write("0123456789", 10);
  }
  mig::FileStateRecord record;
  {
    auto f = mig::MigratableFile::open(path, mig::FileMode::Read);
    char buf[4];
    EXPECT_EQ(f.read(buf, 4), 4u);
    record = f.capture();
  }
  auto g = mig::MigratableFile::restore(record);
  char buf[8] = {};
  EXPECT_EQ(g.read(buf, 6), 6u);
  EXPECT_STREQ(buf, "456789");
  ::unlink(path.c_str());
}

TEST(FileMigration, RestoreNeverTruncates) {
  const std::string path = ::testing::TempDir() + "hdsm_file_notrunc.txt";
  mig::FileStateRecord record;
  {
    auto w = mig::MigratableFile::open(path, mig::FileMode::Write);
    w.write("precious", 8);
    w.seek(3);
    record = w.capture();
  }
  auto g = mig::MigratableFile::restore(record);  // Write mode, reopened
  EXPECT_EQ(g.tell(), 3u);
  auto r = mig::MigratableFile::open(path, mig::FileMode::Read);
  char buf[16] = {};
  EXPECT_EQ(r.read(buf, sizeof(buf)), 8u);  // content intact
  ::unlink(path.c_str());
}

// ---- checkpoint / restore -------------------------------------------------------

TEST(Checkpoint, RoundTripsAcrossPlatformsViaFile) {
  const std::string path = ::testing::TempDir() + "hdsm_ckpt.bin";
  mig::StateSchema schema;
  schema.register_frame("worker", locals_type());
  schema.register_heap_type("locals", locals_type());

  mig::ThreadState state;
  state.rank = 3;
  mig::StructImage locals(locals_type(), plat::linux_ia32());
  locals.set<std::int32_t>("i", 41);
  locals.set<double>("acc", -3.5);
  state.frames.push_back(mig::Frame{"worker", 7, std::move(locals)});
  mig::StructImage obj(locals_type(), plat::linux_ia32());
  obj.set<std::int32_t>("i", 9);
  state.heap.push_back(mig::HeapObject{5, "locals", std::move(obj)});

  mig::checkpoint_to_file(state, plat::linux_ia32(), path);
  // Restore on a big-endian target, as after a crash + re-dispatch.
  const mig::ThreadState back =
      mig::restore_from_file(path, schema, plat::solaris_sparc64());
  EXPECT_EQ(back.rank, 3u);
  EXPECT_EQ(back.top().label, 7u);
  EXPECT_EQ(back.top().locals.get<std::int32_t>("i"), 41);
  EXPECT_EQ(back.top().locals.get<double>("acc"), -3.5);
  ASSERT_EQ(back.heap.size(), 1u);
  EXPECT_EQ(back.heap[0].image.get<std::int32_t>("i"), 9);
  ::unlink(path.c_str());
}

TEST(Checkpoint, ResumableComputationSurvivesRestart) {
  const std::string path = ::testing::TempDir() + "hdsm_ckpt_resume.bin";
  mig::StateSchema schema;
  schema.register_frame("sum", locals_type());

  mig::ThreadState state;
  state.rank = 1;
  state.frames.push_back(mig::Frame{
      "sum", 0, mig::StructImage(locals_type(), plat::linux_ia32())});
  std::atomic<bool> stop_now{true};
  ASSERT_EQ(mig::run_until_yield(sum_body, state, stop_now),
            mig::StepOutcome::MigrationPoint);
  mig::checkpoint_to_file(state, plat::linux_ia32(), path);

  // "Crash"; restore on another platform and finish.
  mig::ThreadState resumed =
      mig::restore_from_file(path, schema, plat::solaris_sparc32());
  mig::run_to_completion(sum_body, resumed);
  EXPECT_EQ(resumed.top().locals.get<double>("acc"), 2475.0);
  ::unlink(path.c_str());
}

TEST(Checkpoint, CorruptFilesRejected) {
  const std::string path = ::testing::TempDir() + "hdsm_ckpt_bad.bin";
  {
    auto f = mig::MigratableFile::open(path, mig::FileMode::Write);
    f.write("not a checkpoint at all", 23);
  }
  mig::StateSchema schema;
  EXPECT_THROW(mig::restore_from_file(path, schema, plat::linux_ia32()),
               std::runtime_error);
  ::unlink(path.c_str());
  EXPECT_THROW(mig::restore_from_file(path, schema, plat::linux_ia32()),
               std::system_error);
}

TEST(Checkpoint, TruncatedCheckpointThrowsRuntimeError) {
  // Cut a valid checkpoint inside its magic, its platform summary and its
  // state: every cut is a malformed file, never a partial state.
  const std::string path = ::testing::TempDir() + "hdsm_ckpt_cut.bin";
  mig::StateSchema schema;
  schema.register_frame("worker", locals_type());
  mig::ThreadState state;
  state.rank = 2;
  state.frames.push_back(mig::Frame{
      "worker", 1, mig::StructImage(locals_type(), plat::linux_ia32())});
  mig::checkpoint_to_file(state, plat::linux_ia32(), path);
  const std::vector<std::byte> whole =
      mig::MigratableFile::open(path, mig::FileMode::Read).read_to_end();
  ASSERT_GT(whole.size(), 12u);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{9},
        std::size_t{10}, std::size_t{14}, whole.size() / 2,
        whole.size() - 1}) {
    {
      auto f = mig::MigratableFile::open(path, mig::FileMode::Write);
      f.write(whole.data(), cut);
    }
    EXPECT_THROW(mig::restore_from_file(path, schema, plat::linux_ia32()),
                 std::runtime_error)
        << "cut at " << cut;
  }
  ::unlink(path.c_str());
}

// ---- roles ------------------------------------------------------------------------

TEST(Roles, InitialConfiguration) {
  mig::RoleTracker rt(3, 3);
  EXPECT_EQ(rt.home_node(), 0u);
  EXPECT_EQ(rt.role(0, 0), mig::ThreadRole::Master);
  EXPECT_EQ(rt.role(0, 1), mig::ThreadRole::Local);
  EXPECT_EQ(rt.role(1, 0), mig::ThreadRole::Skeleton);
  EXPECT_EQ(rt.role(2, 2), mig::ThreadRole::Skeleton);
  EXPECT_EQ(rt.computing_node(1), 0u);
}

TEST(Roles, SlaveMigrationLocalToRemote) {
  // Figure 1: a local thread migrates out; a stub stays home; the remote
  // skeleton becomes a remote thread.
  mig::RoleTracker rt(3, 3);
  rt.migrate(1, 0, 1);
  EXPECT_EQ(rt.role(0, 1), mig::ThreadRole::Stub);
  EXPECT_EQ(rt.role(1, 1), mig::ThreadRole::Remote);
  EXPECT_EQ(rt.computing_node(1), 1u);
  // It can migrate again ("Threads can migrate again if the hosting node
  // is overloaded").
  rt.migrate(1, 1, 2);
  EXPECT_EQ(rt.role(1, 1), mig::ThreadRole::Skeleton);
  EXPECT_EQ(rt.role(2, 1), mig::ThreadRole::Remote);
  // And migrate back home, where it is local again.
  rt.migrate(1, 2, 0);
  EXPECT_EQ(rt.role(0, 1), mig::ThreadRole::Local);
  EXPECT_EQ(rt.role(2, 1), mig::ThreadRole::Skeleton);
}

TEST(Roles, IllegalMigrationsRejected) {
  mig::RoleTracker rt(2, 2);
  EXPECT_THROW(rt.migrate(1, 1, 0), std::logic_error);  // skeleton can't move
  EXPECT_THROW(rt.migrate(1, 0, 0), std::logic_error);  // same node
  EXPECT_THROW(rt.migrate(0, 1, 0), std::logic_error);  // non-master slot 0
  EXPECT_THROW(rt.migrate(9, 0, 1), std::out_of_range);
}

TEST(Roles, MasterMigrationRehomes) {
  // §3.1: "If the master thread moves to a default thread at a remote node,
  // the latter will become the new home node.  Previous local threads
  // become remote threads, and some slave threads at the new home node are
  // activated to work as stub threads."
  mig::RoleTracker rt(2, 3);
  rt.migrate(2, 0, 1);  // slot 2 computes at node 1 first
  rt.migrate(0, 0, 1);  // master moves to node 1
  EXPECT_EQ(rt.home_node(), 1u);
  EXPECT_EQ(rt.role(1, 0), mig::ThreadRole::Master);
  EXPECT_EQ(rt.role(0, 0), mig::ThreadRole::Stub);
  // Old home's local slot 1 is now remote relative to the new home.
  EXPECT_EQ(rt.role(0, 1), mig::ThreadRole::Remote);
  // New home: unused skeleton activated as stub; the thread computing
  // there became local.
  EXPECT_EQ(rt.role(1, 1), mig::ThreadRole::Stub);
  EXPECT_EQ(rt.role(1, 2), mig::ThreadRole::Local);
}

// The full adaptive story of the paper's introduction, end to end:
//
//   1. A parallel job starts on one busy workstation (home + 2 workers).
//   2. An idle machine joins the system; the adaptation policy notices the
//      imbalance and dispatches a worker's state to it (iso-computing:
//      same slot, new node — and a different byte order).
//   3. The workers keep updating shared data through the DSD the whole
//      time; the result is exact.
//   4. Finally the (quiesced) home itself migrates to the faster machine —
//      master migration re-homes the system with one CGT-RMR conversion.
//
//   $ ./adaptive_cluster
#include <cstdio>
#include <thread>

#include "dsm/rehome.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "mig/runner.hpp"
#include "mig/thread_state.hpp"
#include "sched/policy.hpp"
#include "tags/describe.hpp"

namespace dsm = hdsm::dsm;
namespace mig = hdsm::mig;
namespace msg = hdsm::msg;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;
namespace sched = hdsm::sched;

namespace {

constexpr std::uint32_t kN = 120;  // shared work items per worker

tags::TypePtr gthv() {
  return tags::describe_struct("G")
      .array<long long>("out1", kN)
      .array<long long>("out2", kN)
      .build();
}

tags::TypePtr locals() {
  return tags::describe_struct("fill_locals").field<int>("i").build();
}

mig::StepOutcome worker_body(mig::ThreadState& state,
                             const std::atomic<bool>& migrate,
                             dsm::ShardedRemote& dsd, const char* field) {
  mig::Frame& f = state.top();
  std::int32_t i = f.locals.get<std::int32_t>("i");
  while (i < static_cast<std::int32_t>(kN)) {
    if (i >= 40 && migrate.load()) {
      f.locals.set<std::int32_t>("i", i);
      f.label = 1;
      return mig::StepOutcome::MigrationPoint;
    }
    dsd.lock(state.rank);
    auto out = dsd.space().view<std::int64_t>(field);
    for (int k = 0; k < 8 && i < static_cast<std::int32_t>(kN); ++k, ++i) {
      out.set(i, static_cast<std::int64_t>(i) * state.rank);
    }
    dsd.unlock(state.rank);
  }
  f.locals.set<std::int32_t>("i", i);
  return mig::StepOutcome::Finished;
}

}  // namespace

int main() {
  // Phase 1: everything on the busy home workstation.
  auto home = std::make_unique<dsm::ShardedHome>(gthv(), plat::linux_ia32());
  home->start();

  mig::RoleTracker roles(/*nodes=*/1, /*slots=*/3);
  sched::LoadModel load({0.35}, 0.25);  // 0.35 + 3*0.25 = 1.10: overloaded
  sched::AdaptationPolicy policy;

  std::printf("phase 1: home node load = %.2f (overloaded)\n",
              load(roles, 0));

  // Phase 2: an idle big-endian machine joins.
  const std::size_t newcomer = roles.add_node();
  load.add_node(0.05);
  const auto decision = policy.rebalance(roles, load, /*max_moves=*/1);
  if (decision.empty()) {
    std::printf("policy proposed no migration — unexpected\n");
    return 1;
  }
  std::printf(
      "phase 2: node %zu joined; policy migrates slot %zu from node %zu to "
      "node %zu\n",
      newcomer, decision[0].slot, decision[0].src, decision[0].dst);

  mig::StateSchema schema;
  schema.register_frame("worker", locals());
  auto [mig_src, mig_dst] = msg::make_channel_pair();
  std::atomic<bool> migrate1{true};  // the policy's request for slot 1
  std::atomic<bool> never{false};

  // Worker 1: starts at home platform, migrates to the newcomer.
  std::thread worker1_src([&] {
    dsm::ShardedRemote dsd(gthv(), plat::linux_ia32(), 1, home->attach(1));
    mig::ThreadState state;
    state.rank = 1;
    state.frames.push_back(
        mig::Frame{"worker", 0, mig::StructImage(locals(), plat::linux_ia32())});
    const auto body = [&dsd](mig::ThreadState& s, const std::atomic<bool>& m) {
      return worker_body(s, m, dsd, "out1");
    };
    if (mig::run_until_yield(body, state, migrate1) ==
        mig::StepOutcome::MigrationPoint) {
      dsd.join();
      mig::send_state(*mig_src, state, plat::linux_ia32());
    } else {
      dsd.join();
    }
  });
  std::thread worker1_dst([&] {
    mig::ThreadState state =
        mig::receive_state(*mig_dst, schema, plat::solaris_sparc64());
    std::printf("phase 2: worker 1 resumed at i=%d on %s\n",
                state.top().locals.get<std::int32_t>("i"),
                "solaris-sparc64");
    dsm::ShardedRemote dsd(gthv(), plat::solaris_sparc64(), state.rank,
                           home->attach(state.rank));
    const auto body = [&dsd](mig::ThreadState& s, const std::atomic<bool>& m) {
      return worker_body(s, m, dsd, "out1");
    };
    mig::run_to_completion(body, state);
    dsd.join();
  });

  // Worker 2 stays put.
  std::thread worker2([&] {
    dsm::ShardedRemote dsd(gthv(), plat::linux_ia32(), 2, home->attach(2));
    mig::ThreadState state;
    state.rank = 2;
    state.frames.push_back(
        mig::Frame{"worker", 0, mig::StructImage(locals(), plat::linux_ia32())});
    const auto body = [&dsd](mig::ThreadState& s, const std::atomic<bool>& m) {
      return worker_body(s, m, dsd, "out2");
    };
    mig::run_to_completion(body, state);
    dsd.join();
  });

  worker1_src.join();
  worker1_dst.join();
  worker2.join();
  home->wait_all_joined();

  // Phase 3: re-home the quiesced system onto the stronger machine.
  auto new_home = dsm::rehome(*home, plat::solaris_sparc64());
  roles.migrate(0, 0, newcomer);
  std::printf("phase 3: re-homed onto node %zu (%s); home node is now %zu\n",
              newcomer, new_home->space().platform().name.c_str(),
              roles.home_node());

  bool ok = true;
  auto o1 = new_home->space().view<std::int64_t>("out1");
  auto o2 = new_home->space().view<std::int64_t>("out2");
  for (std::uint32_t i = 0; i < kN; ++i) {
    ok = ok && o1.get(i) == static_cast<std::int64_t>(i) * 1 &&
         o2.get(i) == static_cast<std::int64_t>(i) * 2;
  }
  std::printf("results exact after join + migration + re-homing: %s\n",
              ok ? "yes" : "NO");
  new_home->stop();
  return ok ? 0 : 1;
}

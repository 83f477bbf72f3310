// Adaptive execution (paper §1, §3.1): a worker thread starts on one
// remote node, a "scheduler" requests migration mid-computation, and the
// thread's application-level state — logical PC, tagged locals, heap
// objects — moves to a node with a different byte order, where a skeleton
// thread resumes it.  The shared matrix lives in the DSD the whole time.
//
//   $ ./thread_migration
#include <cstdio>
#include <thread>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "mig/roles.hpp"
#include "mig/runner.hpp"
#include "mig/thread_state.hpp"

namespace dsm = hdsm::dsm;
namespace mig = hdsm::mig;
namespace msg = hdsm::msg;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;
using tags::TypeDesc;

namespace {

constexpr std::uint32_t kN = 200;

tags::TypePtr gthv() {
  return TypeDesc::struct_of(
      "G", {{"squares", TypeDesc::array(tags::t_longlong(), kN)}});
}

tags::TypePtr locals() {
  return TypeDesc::struct_of("fill_locals", {{"i", tags::t_int()}});
}

/// Fills squares[i] = i*i through the DSD, one lock round per chunk, with
/// a migration point between chunks.
mig::StepOutcome fill_body(mig::ThreadState& state,
                           const std::atomic<bool>& migrate,
                           dsm::ShardedRemote& dsd) {
  mig::Frame& f = state.top();
  std::int32_t i = f.locals.get<std::int32_t>("i");
  while (i < static_cast<std::int32_t>(kN)) {
    // Adaptation points honor the scheduler only once warm (i >= 50), so
    // the run always demonstrates a mid-computation hand-off.
    if (i >= 50 && migrate.load()) {
      f.locals.set<std::int32_t>("i", i);
      f.label = 1;
      return mig::StepOutcome::MigrationPoint;
    }
    dsd.lock(0);
    auto sq = dsd.space().view<std::int64_t>("squares");
    for (int k = 0; k < 10 && i < static_cast<std::int32_t>(kN); ++k, ++i) {
      sq.set(i, static_cast<std::int64_t>(i) * i);
    }
    dsd.unlock(0);
  }
  f.locals.set<std::int32_t>("i", i);
  return mig::StepOutcome::Finished;
}

}  // namespace

int main() {
  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  home.start();

  mig::StateSchema schema;
  schema.register_frame("fill", locals());
  mig::RoleTracker roles(/*nodes=*/3, /*slots=*/2);
  roles.migrate(1, 0, 1);  // dispatch the worker to node 1 at start-up
  std::printf("roles: node1/slot1=%s node0/slot1=%s\n",
              mig::role_name(roles.role(1, 1)),
              mig::role_name(roles.role(0, 1)));

  auto [mig_src, mig_dst] = msg::make_channel_pair();
  // The "scheduler" requests the move up front; the worker honors it at
  // its first adaptation point past the warm-up threshold (i >= 50), so
  // the hand-off always happens mid-computation.  (Setting the flag from
  // another thread *after* spawning would race with a fast worker that
  // finishes before ever seeing it — and then nobody would feed node 2.)
  std::atomic<bool> migrate{true};

  std::thread node1([&] {
    dsm::ShardedRemote dsd(gthv(), plat::linux_ia32(), 1, home.attach(1));
    mig::ThreadState state;
    state.rank = 1;
    state.frames.push_back(
        mig::Frame{"fill", 0, mig::StructImage(locals(), plat::linux_ia32())});
    const auto body = [&dsd](mig::ThreadState& s, const std::atomic<bool>& m) {
      return fill_body(s, m, dsd);
    };
    if (mig::run_until_yield(body, state, migrate) ==
        mig::StepOutcome::MigrationPoint) {
      std::printf("node1: yielding at i=%d, shipping state (little-endian)\n",
                  state.top().locals.get<std::int32_t>("i"));
      dsd.join();
      mig::send_state(*mig_src, state, plat::linux_ia32());
    } else {
      dsd.join();
    }
  });

  std::thread node2([&] {
    mig::ThreadState state =
        mig::receive_state(*mig_dst, schema, plat::solaris_sparc64());
    std::printf("node2: resumed at label %u, i=%d (big-endian image)\n",
                state.top().label, state.top().locals.get<std::int32_t>("i"));
    dsm::ShardedRemote dsd(gthv(), plat::solaris_sparc64(), state.rank,
                           home.attach(state.rank));
    std::atomic<bool> never{false};
    const auto body = [&dsd](mig::ThreadState& s, const std::atomic<bool>& m) {
      return fill_body(s, m, dsd);
    };
    mig::run_to_completion(body, state);
    dsd.join();
  });

  node1.join();
  node2.join();
  roles.migrate(1, 1, 2);
  std::printf("roles after migration: node1/slot1=%s node2/slot1=%s\n",
              mig::role_name(roles.role(1, 1)),
              mig::role_name(roles.role(2, 1)));
  home.wait_all_joined();

  auto sq = home.space().view<std::int64_t>("squares");
  bool ok = true;
  for (std::uint32_t i = 0; i < kN; ++i) {
    if (sq.get(i) != static_cast<std::int64_t>(i) * i) ok = false;
  }
  std::printf("all %u squares correct at home: %s\n", kN, ok ? "yes" : "NO");
  home.stop();
  return ok ? 0 : 1;
}

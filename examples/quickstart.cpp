// Quickstart: share a global structure between a home node and one remote
// thread on a different (virtual) platform, with Pthreads-style distributed
// lock/unlock.
//
//   $ ./quickstart
//
// Walks through the library's core loop:
//   1. describe the global data (GThV) once,
//   2. start a home node and attach a remote thread,
//   3. synchronize with MTh_lock / MTh_unlock — writes are detected by
//      mprotect twin/diff, abstracted to index tags, and converted
//      receiver-makes-right across the endianness boundary.
#include <cstdio>
#include <thread>

#include "hdsm.hpp"  // umbrella header: the whole public API

namespace dsm = hdsm::dsm;
namespace tags = hdsm::tags;
namespace plat = hdsm::plat;
using tags::TypeDesc;

int main() {
  // 1. The shared global structure (what MigThread's preprocessor would
  //    collect from your globals):  struct { int values[16]; int sum; }
  tags::TypePtr gthv = TypeDesc::struct_of(
      "Quickstart", {{"values", TypeDesc::array(tags::t_int(), 16)},
                     {"sum", tags::t_int()}});

  // 2. Home node on a little-endian platform; remote thread on big-endian
  //    SPARC.  (Use plat::host() on both sides for a homogeneous setup.)
  dsm::ShardedHome home(gthv, plat::linux_ia32());
  std::thread remote_thread([&home, gthv] {
    dsm::ShardedRemote remote(gthv, plat::solaris_sparc32(), /*rank=*/1,
                              home.attach(1));
    // 3. Classic critical section, distributed:
    remote.lock(0);
    auto values = remote.space().view<std::int32_t>("values");
    for (std::uint64_t i = 0; i < values.size(); ++i) {
      values.set(i, static_cast<std::int32_t>(10 * (i + 1)));
    }
    remote.unlock(0);
    remote.join();
  });

  home.start();
  remote_thread.join();
  home.wait_all_joined();

  // The remote's big-endian writes arrived converted into the home image.
  auto values = home.space().view<std::int32_t>("values");
  std::int32_t sum = 0;
  for (std::uint64_t i = 0; i < values.size(); ++i) sum += values.get(i);
  home.space().view<std::int32_t>("sum").set(sum);

  std::printf("values[0]=%d values[15]=%d sum=%d (expected 10..160, 1360)\n",
              values.get(0), values.get(15),
              home.space().view<std::int32_t>("sum").get());
  std::printf("home image tag:   %s\n", home.space().image_tag_text().c_str());
  std::printf("sharing stats:    %s\n", home.stats().to_string().c_str());
  home.stop();
  return sum == 1360 ? 0 : 1;
}

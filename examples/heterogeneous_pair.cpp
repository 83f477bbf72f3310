// A guided tour of the heterogeneity machinery over a real TCP socket:
// shows the per-platform tags (Figure 3 style), the index tables (Table 1
// style), the raw byte images on both sides of an update, and the Eq.-1
// cost buckets of one synchronization round between a big-endian home and
// a little-endian remote.
//
//   $ ./heterogeneous_pair
#include <cstdio>
#include <thread>
#include <vector>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/tcp.hpp"

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;
using tags::TypeDesc;

namespace {

tags::TypePtr gthv() {
  return TypeDesc::struct_of("Pair", {{"GThP", TypeDesc::pointer()},
                                      {"data", TypeDesc::array(tags::t_int(), 8)},
                                      {"scale", tags::t_double()}});
}

void dump_bytes(const char* label, const std::byte* p, std::size_t n) {
  std::printf("%s", label);
  for (std::size_t i = 0; i < n; ++i) {
    std::printf(" %02x", std::to_integer<unsigned>(p[i]));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const plat::PlatformDesc& home_plat = plat::solaris_sparc32();
  const plat::PlatformDesc& remote_plat = plat::linux_ia32();

  dsm::ShardedHome home(gthv(), home_plat);
  msg::TcpListener listener(0);
  std::printf("home:   %s (big endian), listening on 127.0.0.1:%u\n",
              home_plat.name.c_str(), listener.port());
  std::printf("remote: %s (little endian)\n\n", remote_plat.name.c_str());

  std::printf("image tags (compare to detect heterogeneity):\n");
  std::printf("  home:   %s\n", home.space().image_tag_text().c_str());
  {
    dsm::GlobalSpace preview(gthv(), remote_plat);
    std::printf("  remote: %s\n\n", preview.image_tag_text().c_str());
  }
  std::printf("index table at home (Table 1 form, base 0x0):\n%s\n",
              home.space().table().to_table_string(0).c_str());

  std::thread remote_thread([&, port = listener.port()] {
    dsm::ShardedRemote remote(gthv(), remote_plat, 1, msg::tcp_connect(port));
    remote.lock(0);
    auto data = remote.space().view<std::int32_t>("data");
    for (int i = 0; i < 8; ++i) data.set(i, 0x01020300 + i);
    remote.space().view<double>("scale").set(2.5);
    const std::size_t off =
        remote.space().table().rows()[remote.space().table().row_of_field(
            "data")].offset;
    dump_bytes("remote image bytes (LE) of data[0..1]:",
               remote.space().region().data() + off, 8);
    remote.unlock(0);
    remote.join();
  });

  home.attach_endpoint(1, listener.accept());
  home.start();
  remote_thread.join();
  home.wait_all_joined();

  const std::size_t off =
      home.space().table().rows()[home.space().table().row_of_field("data")]
          .offset;
  dump_bytes("home image bytes (BE) of data[0..1]:  ",
             home.space().region().data() + off, 8);

  auto data = home.space().view<std::int32_t>("data");
  bool ok = home.space().view<double>("scale").get() == 2.5;
  for (int i = 0; i < 8; ++i) ok = ok && data.get(i) == 0x01020300 + i;
  std::printf("\nvalues identical across representations: %s\n",
              ok ? "yes" : "NO");
  std::printf("home-side sharing stats:   %s\n",
              home.stats().to_string().c_str());
  home.stop();
  return ok ? 0 : 1;
}

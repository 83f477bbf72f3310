// True multi-process operation: the home node and each worker run in
// separate OS processes, connected over loopback TCP — the deployment
// shape of a real software DSM (each process genuinely has a disjoint
// address space; nothing is shared but the wire).
//
//   $ ./multiprocess_dsm            # spawns two worker processes
//
// Internally re-executes itself as:
//   ./multiprocess_dsm worker <port> <rank> <platform>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/tcp.hpp"
#include "tags/describe.hpp"

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;

namespace {

constexpr std::uint32_t kElems = 64;

tags::TypePtr gthv() {
  return tags::describe_struct("G")
      .array<long long>("sums", kElems)
      .field<int>("rounds")
      .build();
}

int run_worker(std::uint16_t port, std::uint32_t rank,
               const std::string& platform_name) {
  const plat::PlatformDesc& platform = plat::preset_by_name(platform_name);
  dsm::ShardedRemote remote(gthv(), platform, rank, msg::tcp_connect(port));
  // Each worker adds rank*i to every element, under the distributed lock.
  for (int round = 0; round < 5; ++round) {
    remote.lock(0);
    auto sums = remote.space().view<std::int64_t>("sums");
    for (std::uint32_t i = 0; i < kElems; ++i) {
      sums.set(i, sums.get(i) + static_cast<std::int64_t>(rank) * i);
    }
    remote.unlock(0);
  }
  remote.barrier(0);
  remote.join();
  return 0;
}

pid_t spawn_worker(const char* self, std::uint16_t port, std::uint32_t rank,
                   const char* platform_name) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const std::string port_s = std::to_string(port);
    const std::string rank_s = std::to_string(rank);
    ::execl(self, self, "worker", port_s.c_str(), rank_s.c_str(),
            platform_name, static_cast<char*>(nullptr));
    std::perror("execl");
    ::_exit(127);
  }
  return pid;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::string(argv[1]) == "worker") {
    return run_worker(static_cast<std::uint16_t>(std::atoi(argv[2])),
                      static_cast<std::uint32_t>(std::atoi(argv[3])),
                      argv[4]);
  }

  dsm::ShardedHome home(gthv(), plat::linux_ia32());
  // Three threads meet at barrier 0; fix the count up front so a worker
  // that races ahead of the second accept cannot close the episode early.
  home.set_barrier_count(0, 3);
  msg::TcpListener listener(0);
  std::printf("home pid %d listening on 127.0.0.1:%u\n", ::getpid(),
              listener.port());

  const pid_t w1 = spawn_worker(argv[0], listener.port(), 1, "linux-ia32");
  const pid_t w2 =
      spawn_worker(argv[0], listener.port(), 2, "solaris-sparc32");
  std::printf("spawned worker pids %d (linux-ia32) and %d "
              "(solaris-sparc32)\n",
              w1, w2);

  // Accept both connections; rank arrives in each worker's Hello.
  for (int i = 0; i < 2; ++i) {
    msg::EndpointPtr ep = listener.accept();
    const msg::Message hello = ep->recv();
    if (hello.type != msg::MsgType::Hello) {
      std::fprintf(stderr, "unexpected first message\n");
      return 1;
    }
    home.attach_endpoint(hello.rank, std::move(ep));
    std::printf("attached rank %u over TCP\n", hello.rank);
  }
  home.start();
  home.barrier(0);
  home.wait_all_joined();

  int status = 0;
  ::waitpid(w1, &status, 0);
  const bool w1_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  ::waitpid(w2, &status, 0);
  const bool w2_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;

  // Each element i accumulated 5*(1*i) + 5*(2*i) = 15*i.
  auto sums = home.space().view<std::int64_t>("sums");
  bool ok = w1_ok && w2_ok;
  for (std::uint32_t i = 0; i < kElems; ++i) {
    ok = ok && sums.get(i) == 15 * static_cast<std::int64_t>(i);
  }
  std::printf("cross-process result correct: %s\n", ok ? "yes" : "NO");
  home.stop();
  return ok ? 0 : 1;
}

// A lock_small-shaped loop with one OS process per node: the home and two
// remotes run in three processes connected over loopback TCP
// (msg::TcpListener), the deployment shape of a real software DSM.  Each
// remote loops lock(rank) -> bump 4 int64 in its own page -> unlock(rank),
// as perfbench's lock_small does with every node in one process.  Emitted
// as BENCH_multiprocess_lock.json:
//
//   BM_LockSmallProcesses - episode_us_p50 / episode_us_p99 over both
//                           remotes' timed episodes, and episodes_per_s
//                           (manual time: the longer remote's timed window)
//
// A protection change in one process flushes the TLBs of the cores that
// process runs on, and no other's.  In the one-process cluster it also
// interrupts the other simulated nodes' threads, so comparing this row with
// lock_small separates what a real node would keep of a write-trap change
// from what only the shared address space pays.
//
// Internally re-executes itself as:
//   ./bench_multiprocess_lock worker <port> <rank> <platform> <episodes> <fd>
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "msg/tcp.hpp"
#include "tags/describe.hpp"

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace plat = hdsm::plat;
namespace tags = hdsm::tags;

namespace {

constexpr std::uint32_t kRemotes = 2;
constexpr std::uint32_t kSlotsPerPage = 512;  ///< 4 KiB of int64
constexpr std::uint32_t kWords = 4;
constexpr std::uint32_t kFirst = 100;  ///< first counter's slot in a page
constexpr std::uint64_t kWarm = 200;

const char* const kPlatforms[kRemotes] = {"linux-ia32", "solaris-sparc32"};

std::uint64_t timed_episodes() {
  return hdsm::bench::fast_mode() ? 200 : 20000;
}

tags::TypePtr gthv() {
  return tags::describe_struct("GThV_lock_small_t")
      .array<long long>("slots", (kRemotes + 1) * kSlotsPerPage)
      .build();
}

std::uint64_t slot(std::uint32_t rank, std::uint32_t word) {
  return static_cast<std::uint64_t>(rank) * kSlotsPerPage + kFirst + word;
}

void pin_to(std::uint32_t core) {
  const unsigned n = std::max(1u, static_cast<unsigned>(sysconf(
                                      _SC_NPROCESSORS_ONLN)));
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % n, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool write_all(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const char*>(p);
  while (n != 0) {
    const ssize_t w = ::write(fd, b, n);
    if (w <= 0) return false;
    b += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads `fd` to its end.
std::vector<std::uint64_t> read_words(int fd) {
  std::vector<char> bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;
    bytes.insert(bytes.end(), buf, buf + r);
  }
  std::vector<std::uint64_t> words(bytes.size() / sizeof(std::uint64_t));
  std::copy_n(bytes.data(), words.size() * sizeof(std::uint64_t),
              reinterpret_cast<char*>(words.data()));
  return words;
}

/// One remote process: warm up, time `episodes` lock episodes, join, and
/// write {window_ns, episode_ns...} to `fd`.
int run_worker(std::uint16_t port, std::uint32_t rank, const char* platform,
               std::uint64_t episodes, int fd) {
  pin_to(rank);
  dsm::ShardedRemote remote(gthv(), plat::preset_by_name(platform), rank,
                            msg::tcp_connect(port));
  auto slots = remote.space().view<long long>("slots");
  const auto episode = [&] {
    remote.lock(rank);
    for (std::uint32_t w = 0; w < kWords; ++w) {
      slots.set(slot(rank, w), slots.get(slot(rank, w)) + 1);
    }
    remote.unlock(rank);
  };
  for (std::uint64_t i = 0; i < kWarm; ++i) episode();
  std::vector<std::uint64_t> out(episodes + 1);
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 1; i <= episodes; ++i) {
    const std::uint64_t t0 = now_ns();
    episode();
    out[i] = now_ns() - t0;
  }
  out[0] = now_ns() - start;
  remote.join();
  return write_all(fd, out.data(), out.size() * sizeof(std::uint64_t)) ? 0
                                                                        : 1;
}

struct Worker {
  pid_t pid = -1;
  int fd = -1;  ///< read end of the worker's result pipe
};

Worker spawn_worker(std::uint16_t port, std::uint32_t rank,
                    std::uint64_t episodes) {
  int p[2];
  if (::pipe(p) != 0) return {};
  // Built before fork(): the child only closes, execs or exits.
  const std::string args[] = {std::to_string(port), std::to_string(rank),
                              std::to_string(episodes), std::to_string(p[1])};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(p[0]);
    ::execl("/proc/self/exe", "bench_multiprocess_lock", "worker",
            args[0].c_str(), args[1].c_str(), kPlatforms[rank - 1],
            args[2].c_str(), args[3].c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(p[1]);
  return {pid, p[0]};
}

void BM_LockSmallProcesses(benchmark::State& state) {
  const std::uint64_t episodes = timed_episodes();
  std::vector<std::uint64_t> samples;
  double window_s = 0;
  for (auto _ : state) {
    // Pinned as perfbench pins lock_small's threads: the home's threads
    // start on core 3 and inherit it, then its application thread moves
    // to core 0; remote r runs on core r.
    pin_to(3);
    dsm::ShardedHome home(gthv(), plat::linux_x86_64());
    msg::TcpListener listener(0);
    Worker workers[kRemotes];
    for (std::uint32_t r = 1; r <= kRemotes; ++r) {
      workers[r - 1] = spawn_worker(listener.port(), r, episodes);
      if (workers[r - 1].pid < 0) {
        state.SkipWithError("cannot spawn a worker process");
        return;
      }
    }
    for (std::uint32_t i = 0; i < kRemotes; ++i) {
      msg::EndpointPtr ep = listener.accept();
      const msg::Message hello = ep->recv();
      home.attach_endpoint(hello.rank, std::move(ep));
    }
    home.start();
    pin_to(0);
    bool ok = true;
    double window = 0;
    for (Worker& w : workers) {
      const std::vector<std::uint64_t> words = read_words(w.fd);
      ::close(w.fd);
      ok = ok && words.size() == episodes + 1;
      if (!words.empty()) {
        window = std::max(window, static_cast<double>(words[0]) / 1e9);
        samples.insert(samples.end(), words.begin() + 1, words.end());
      }
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    home.wait_all_joined();
    auto slots = home.space().view<long long>("slots");
    for (std::uint32_t r = 1; r <= kRemotes; ++r) {
      for (std::uint32_t w = 0; w < kWords; ++w) {
        ok = ok && slots.get(slot(r, w)) ==
                       static_cast<long long>(kWarm + episodes);
      }
    }
    home.stop();
    if (!ok) {
      state.SkipWithError("a worker failed or the counters do not verify");
      return;
    }
    window_s += window;
    state.SetIterationTime(window);
  }
  std::sort(samples.begin(), samples.end());
  const auto quantile_us = [&samples](double q) {
    return samples.empty()
               ? 0.0
               : static_cast<double>(samples[static_cast<std::size_t>(
                     q * static_cast<double>(samples.size() - 1))]) /
                     1e3;
  };
  state.counters["episode_us_p50"] = quantile_us(0.5);
  state.counters["episode_us_p99"] = quantile_us(0.99);
  state.counters["episodes_per_s"] =
      window_s > 0 ? static_cast<double>(samples.size()) / window_s : 0;
}

BENCHMARK(BM_LockSmallProcesses)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Default the JSON artifact on so a bare run leaves
// BENCH_multiprocess_lock.json next to the binary; explicit --benchmark_out
// still wins.
int main(int argc, char** argv) {
  if (argc == 7 && std::string_view(argv[1]) == "worker") {
    return run_worker(static_cast<std::uint16_t>(std::atoi(argv[2])),
                      static_cast<std::uint32_t>(std::atoi(argv[3])), argv[4],
                      std::strtoull(argv[5], nullptr, 10),
                      std::atoi(argv[6]));
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_multiprocess_lock.json";
  std::string fmt = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

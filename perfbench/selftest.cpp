// Unit tests of the benchmark's statistics helpers (stats.hpp).  Exit status 0
// when every check passes; each failure prints one line.
//
//   python3 perfbench/run.py --self-test
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_nearest_rank() {
  const std::vector<double> v = ramp(1000);
  check(perfbench::nearest_rank(v, 50) == 500, "p50 of 1..1000 is 500");
  check(perfbench::nearest_rank(v, 99) == 990, "p99 of 1..1000 is 990");
  check(perfbench::nearest_rank(v, 100) == 1000, "p100 is the maximum");
  check(perfbench::nearest_rank({}, 50) == 0, "empty sample reads 0");
  check(perfbench::nearest_rank({7.0}, 99) == 7.0, "one sample is every pct");
}

void test_tail_supported() {
  const perfbench::Percentile p = perfbench::tail(ramp(1000));
  check(p.pct == 99 && p.value == 990 && p.samples == 1000,
        "1000 samples support p99 (10 beyond it)");
  check(p.name("episode_us") == "episode_us_p99", "p99 metric name");
}

void test_tail_fallback() {
  // 999 samples leave only 9 beyond the p99 rank (990): fall back to p98.
  perfbench::Percentile p = perfbench::tail(ramp(999));
  check(p.pct == 98 && p.value == 980, "999 samples fall back to p98");
  check(perfbench::samples_beyond(999, 98) >= 10, "p98 keeps 10 beyond");
  // 200 samples: p95 leaves exactly 10 beyond.
  p = perfbench::tail(ramp(200));
  check(p.pct == 95 && p.value == 190, "200 samples support p95");
  check(p.name("episode_us") == "episode_us_p95", "fallback metric name");
  // Too few samples for any tail above the median.
  p = perfbench::tail(ramp(12));
  check(p.pct == 50 && p.value == 6, "12 samples report the median");
}

void test_grouped_tail() {
  // Three reps of 1000 samples: three groups, the median of their p99s.
  std::vector<std::vector<double>> reps;
  for (double scale : {1.0, 3.0, 2.0}) {
    std::vector<double> r = ramp(1000);
    for (double& v : r) v *= scale;
    reps.push_back(r);
  }
  perfbench::Percentile p = perfbench::grouped_tail(reps, 1000);
  check(p.pct == 99 && p.value == 1980 && p.samples == 3000,
        "median of per-group p99s");
  // One noisy rep cannot move it, where a pooled p99 would follow it.
  reps.push_back(std::vector<double>(1000, 1e9));
  reps.push_back(ramp(1000));
  p = perfbench::grouped_tail(reps, 1000);
  check(p.value == 1980, "a burst in one group leaves the median alone");
  // Reps of 400 group by three; the short tail group of two joins the
  // group before, so all 2000 samples form one group.
  std::vector<std::vector<double>> small(5);
  for (std::size_t i = 0; i < small.size(); ++i) {
    for (std::size_t k = 0; k < 400; ++k) {
      small[i].push_back(static_cast<double>(i * 400 + k + 1));
    }
  }
  p = perfbench::grouped_tail(small, 1000);
  check(p.pct == 99 && p.value == 1980 && p.samples == 2000,
        "a short last group joins the one before");
  // Too few samples for a p99 anywhere: the fallback percentile is named.
  p = perfbench::grouped_tail({ramp(200)}, 1000);
  check(p.pct == 95 && p.value == 190, "grouped tail falls back with n");
}

void test_merge() {
  const std::vector<double> all =
      perfbench::merge_sorted({{5, 1, 3}, {2, 4}, {}});
  check(all == std::vector<double>({1, 2, 3, 4, 5}), "merge sorts clients");
  const perfbench::Percentile mid = perfbench::median(all);
  check(mid.value == 3 && mid.samples == 5,
        "median of merged clients with its count");
  check(perfbench::median_of({4, 1, 3, 2}) == 2.5, "median_of even list");
}

void test_wall_rate() {
  // A sleep-bound loop burns almost no CPU; the rate must be count over
  // wall time, which the sleeps bound from below.
  using Clock = std::chrono::steady_clock;
  constexpr int kIters = 20;
  constexpr auto kSleep = std::chrono::milliseconds(5);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) std::this_thread::sleep_for(kSleep);
  const Clock::duration wall = Clock::now() - t0;
  const double rate = perfbench::wall_rate(kIters, wall);
  const double want = kIters / std::chrono::duration<double>(wall).count();
  check(rate == want, "rate is count / wall seconds");
  check(rate <= 1000.0 / 5.0, "sleep-bound rate cannot beat the sleeps");
  check(perfbench::wall_rate(5, Clock::duration::zero()) == 0,
        "empty window reads 0");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_tail_supported();
  test_tail_fallback();
  test_grouped_tail();
  test_merge();
  test_wall_rate();
  std::printf("%s (%d failures)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

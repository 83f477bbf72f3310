// Sample statistics for the benchmark: nearest-rank percentiles over
// merged per-client latency samples, with a tail percentile that only
// claims what the sample supports, and wall-clock rates.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank position (1-based) of whole percentile `pct` in a sample
/// of `n`: ceil(pct * n / 100), in integers so no rounding moves it.
inline std::size_t rank_of(std::size_t n, int pct) {
  const std::size_t r = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return std::clamp<std::size_t>(r, 1, std::max<std::size_t>(n, 1));
}

/// Nearest-rank percentile `pct` (1..100) of ascending `sorted`; 0 for an
/// empty sample.
inline double nearest_rank(const std::vector<double>& sorted, int pct) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), pct) - 1];
}

/// How many samples lie strictly beyond the nearest-rank position of `pct`.
inline std::size_t samples_beyond(std::size_t n, int pct) {
  return n == 0 ? 0 : n - rank_of(n, pct);
}

/// One reported percentile: which one, its value, and the sample count.
struct Percentile {
  int pct = 0;
  double value = 0.0;
  std::size_t samples = 0;

  /// Metric name, e.g. "episode_us_p99" for prefix "episode_us".
  std::string name(const std::string& prefix) const {
    return prefix + "_p" + std::to_string(pct);
  }
};

/// Median of an unsorted list (0 for an empty list).
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The median of `sorted` with its sample count.
inline Percentile median(const std::vector<double>& sorted) {
  return {50, nearest_rank(sorted, 50), sorted.size()};
}

/// Percentile `want` if at least `min_beyond` samples lie beyond it;
/// otherwise the highest whole percentile below `want` that has them.
/// A sample too small for any tail above the median (about 2 × `min_beyond`
/// values or fewer) falls back to the median.
inline Percentile tail(const std::vector<double>& sorted, int want = 99,
                       std::size_t min_beyond = 10) {
  for (int pct = want; pct > 50; --pct) {
    if (samples_beyond(sorted.size(), pct) >= min_beyond) {
      return {pct, nearest_rank(sorted, pct), sorted.size()};
    }
  }
  return median(sorted);
}

/// The tail of a run of reps, robust to noise that hits only a few of them:
/// consecutive reps are grouped, each group the fewest reps holding
/// `group_samples` samples (a short group at the end joins the one before),
/// and the median of the groups' tails is returned with the total sample
/// count.  Its percentile is the lowest any group supports.
inline Percentile grouped_tail(const std::vector<std::vector<double>>& reps,
                               std::size_t group_samples = 1000) {
  std::vector<std::vector<double>> groups{{}};
  std::size_t total = 0;
  for (const std::vector<double>& r : reps) {
    if (groups.back().size() >= group_samples) groups.emplace_back();
    groups.back().insert(groups.back().end(), r.begin(), r.end());
    total += r.size();
  }
  if (groups.size() > 1 && groups.back().size() < group_samples) {
    std::vector<double> last = std::move(groups.back());
    groups.pop_back();
    groups.back().insert(groups.back().end(), last.begin(), last.end());
  }
  int pct = 99;
  std::vector<double> tails;
  for (std::vector<double>& g : groups) {
    std::sort(g.begin(), g.end());
    const Percentile t = tail(g);
    pct = std::min(pct, t.pct);
    tails.push_back(t.value);
  }
  return {pct, median_of(tails), total};
}

/// Merge per-client samples into one ascending vector.
inline std::vector<double> merge_sorted(
    const std::vector<std::vector<double>>& per_client) {
  std::vector<double> all;
  for (const auto& c : per_client) all.insert(all.end(), c.begin(), c.end());
  std::sort(all.begin(), all.end());
  return all;
}

/// Completed work per second of wall-clock (steady_clock) time.  Never CPU
/// time: a closed loop that sleeps or blocks on a peer still counts the
/// blocked time, which is what its caller waits through.
inline double wall_rate(std::uint64_t count,
                        std::chrono::steady_clock::duration wall) {
  const double s = std::chrono::duration<double>(wall).count();
  return s > 0.0 ? static_cast<double>(count) / s : 0.0;
}

}  // namespace perfbench

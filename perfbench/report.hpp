// Turning reps into the benchmark's metrics: the end-to-end set from the
// untraced reps, the per-layer budget from the traced ones, and the
// Chrome-trace file of the last traced rep.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Episodes a tail percentile is taken over: 10 beyond the p99.
inline constexpr std::size_t kTailSamples = 1000;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every end-to-end metric over the untraced reps; `rss_mb` is the peak
/// RSS to report.  Sample counts and other context go to `notes`, one line
/// each.
std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               double rss_mb, std::vector<std::string>& notes);

/// Every per-layer metric over the traced reps (obs.overhead_pct compares
/// them with the untraced reps of the same run), plus the untraced reps'
/// episode tail.
std::vector<Metric> per_layer(const std::vector<RepResult>& reps,
                              std::vector<std::string>& notes);

/// Self time per span name over `rep`'s window: each span minus the child
/// spans nested inside it on the same thread lane, bench and library
/// spans together.  One line per name, largest first.
std::vector<std::string> self_time_budget(const RepResult& rep);

/// Write `rep`'s bench and library spans as Chrome trace-event JSON.
bool write_chrome_trace(const RepResult& rep, const std::string& path);

/// Process peak resident set size in MB.
double peak_rss_mb();

}  // namespace perfbench

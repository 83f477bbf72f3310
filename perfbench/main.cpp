// hdsm_bench: runs one workload for a fixed wall-clock budget and prints
// its metrics.  Usage:
//
//   hdsm_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// Reps (fresh cluster, warm-up, timed window, verification) repeat until
// S seconds have passed, the untraced reps' windows hold 1000 episodes, so
// a p99 has 10 samples beyond it, and at least three untraced reps (with
// --trace 1: one traced rep) ran.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced reps and prints the per-layer budget with the untraced reps'
// p99 (and writes the last traced rep as a Chrome trace to FILE).  The last stdout line is one JSON
// object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status: 0 when every rep verified and no episode failed, 1 when not,
// 2 for bad arguments, 3 when the run overran its hard time limit.
#include <charconv>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "harness.hpp"
#include "report.hpp"

namespace {

using namespace perfbench;

/// Hard cap on one invocation, below the 180 s a caller may allow.
constexpr auto kHardLimit = std::chrono::seconds(170);
/// No new rep starts after this much wall time, whatever else is unmet.
constexpr double kLastRepStartS = 90.0;
/// Per-rep timings are medians over at least this many untraced reps.
constexpr std::size_t kMinReps = 3;
/// The p99 needs this many untraced episodes.
constexpr std::size_t kMinSamples = kTailSamples;

/// Ends the process if the run has not finished by the deadline, so a
/// wedged cluster cannot outlive the caller's timeout.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, limit, [this] { return done_; })) {
            std::fprintf(stderr, "hdsm_bench: hard time limit exceeded\n");
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool parse(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed" && parse_u64(val, n)) {
      o.seed = n;
      have_seed = true;
    } else if (key == "--seconds" && parse_u64(val, n) && n >= 1 &&
               n <= 60) {
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      o.trace = val == "1";
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Has the run measured enough to stop?  Untraced reps holding kMinSamples
/// window episodes, and kMinReps of them (untraced runs) or one traced rep
/// (traced runs).
bool enough(const std::vector<RepResult>& reps, bool trace) {
  std::size_t traced = 0, plain = 0, samples = 0;
  for (const RepResult& r : reps) {
    (r.traced ? traced : plain) += 1;
    if (!r.traced) samples += r.window_episodes();
  }
  if (samples < kMinSamples) return false;
  return trace ? traced >= 1 : plain >= kMinReps;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S(1..60) "
                 "--trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  Watchdog watchdog(kHardLimit);
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Peak RSS after the first rep: inputs, one cluster and its verification.
  // Later reps rebuild the same cluster; only the benchmark's own sample
  // storage grows with their number, and that is not the system's cost.
  double rss_mb = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<RepResult> reps;
  for (std::size_t i = 0;; ++i) {
    // A traced run alternates untraced and traced reps, so the traced
    // budget and its overhead come from the same process and inputs.
    RepResult rep = workload->run_rep(opt.trace && i % 2 == 1);
    if (i == 0) rss_mb = peak_rss_mb();
    for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
      const RankLog& log = rep.ranks[r];
      attempted += log.planned;
      if (!log.error.empty()) {
        failed += log.planned - std::min(log.done, log.planned);
        problems.push_back("rep " + std::to_string(i) + " rank " +
                           std::to_string(r) + ": " + log.error);
      }
    }
    if (!rep.verify_error.empty()) {
      problems.push_back("rep " + std::to_string(i) + ": " + rep.verify_error);
    }
    // Keep spans of the last traced rep only; they are large.
    if (rep.traced) {
      for (RepResult& old : reps) {
        for (RankLog& log : old.ranks) log.spans = {};
      }
    }
    reps.push_back(std::move(rep));
    if (!problems.empty() || elapsed() >= kLastRepStartS) break;
    if (elapsed() >= opt.seconds && enough(reps, opt.trace)) break;
  }

  const bool correct = problems.empty() && failed == 0 &&
                       enough(reps, opt.trace);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  }

  std::vector<std::string> notes;
  std::vector<Metric> metrics;
  if (correct) {
    metrics = opt.trace ? per_layer(reps, notes)
                        : end_to_end(reps, rss_mb, notes);
    if (opt.trace) {
      const RepResult* last = nullptr;
      for (const RepResult& r : reps) {
        if (r.traced) last = &r;
      }
      notes.push_back("self time, last traced rep's window:");
      for (const std::string& line : self_time_budget(*last)) {
        notes.push_back("  " + line);
      }
      if (!opt.trace_out.empty()) {
        notes.push_back(write_chrome_trace(*last, opt.trace_out)
                            ? "chrome trace: " + opt.trace_out
                            : "chrome trace: cannot write " + opt.trace_out);
      }
    }
  }

  std::printf("workload %s, seed %llu, %zu reps in %.2f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              reps.size(), elapsed());
  for (const std::string& n : notes) std::printf("  %s\n", n.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

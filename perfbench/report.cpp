#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "stats.hpp"

namespace perfbench {

namespace {

dsm::ShareStats minus(const dsm::ShareStats& a, const dsm::ShareStats& b) {
  dsm::ShareStats d;
#define PERFBENCH_X(field) d.field = a.field - b.field;
  HDSM_SHARE_STATS_FIELDS(PERFBENCH_X)
#undef PERFBENCH_X
  return d;
}

const obs::HistogramSnapshot& histogram(const obs::MetricsSnapshot& m,
                                        const std::string& name) {
  static const obs::HistogramSnapshot kEmpty;
  const auto it = m.histograms.find(name);
  return it == m.histograms.end() ? kEmpty : it->second;
}

/// The samples `close` recorded since `open`, for one obs phase histogram.
obs::HistogramSnapshot window_histogram(const Tally& open, const Tally& close,
                                        const std::string& name) {
  const obs::HistogramSnapshot& a = histogram(open.metrics, name);
  const obs::HistogramSnapshot& b = histogram(close.metrics, name);
  std::map<std::uint32_t, std::uint64_t> buckets;
  for (const auto& [i, n] : b.buckets) buckets[i] += n;
  for (const auto& [i, n] : a.buckets) buckets[i] -= n;
  obs::HistogramSnapshot d;
  d.count = b.count - a.count;
  d.sum = b.sum - a.sum;
  for (const auto& [i, n] : buckets) {
    if (n != 0) d.buckets.emplace_back(i, n);
  }
  return d;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Episode latencies of one rank, in µs.
std::vector<double> latencies_us(const RankLog& log) {
  std::vector<double> out;
  out.reserve(log.episodes.size());
  for (const EpisodeTimes& t : log.episodes) out.push_back(us(t.end - t.start));
  return out;
}

/// One rep's episode latencies, merged over its clients and sorted.
std::vector<double> rep_latencies(const RepResult& rep) {
  std::vector<std::vector<double>> per_client;
  for (const RankLog& log : rep.ranks) per_client.push_back(latencies_us(log));
  return merge_sorted(per_client);
}

/// Median over the traced (or untraced) reps of each rep's episode p50.
double p50_over_reps(const std::vector<RepResult>& reps, bool traced) {
  std::vector<double> p50s;
  for (const RepResult& rep : reps) {
    if (rep.traced == traced) p50s.push_back(median(rep_latencies(rep)).value);
  }
  return median_of(p50s);
}

/// The untraced reps' episode tail (grouped_tail over their latencies).
Percentile untraced_tail(const std::vector<RepResult>& reps) {
  std::vector<std::vector<double>> lats;
  for (const RepResult& rep : reps) {
    if (!rep.traced) lats.push_back(rep_latencies(rep));
  }
  return grouped_tail(lats, kTailSamples);
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               double rss_mb, std::vector<std::string>& notes) {
  // Timings are per-rep statistics (p50 and rate over the rep's own
  // window) reported as their median over reps, so a burst of host noise
  // that hits a few reps cannot move them.  Wire bytes are a plain ratio.
  // The tail is only a note here: it follows the host's load, not the
  // program (README.md), and is reported with the per-layer metrics.
  std::uint64_t episodes = 0, wire = 0;
  std::vector<double> p50s, rates, setups;
  for (const RepResult& rep : reps) {
    if (rep.traced) continue;
    p50s.push_back(median(rep_latencies(rep)).value);
    rates.push_back(wall_rate(rep.window_episodes(), rep.window));
    setups.push_back(rep.setup_s);
    episodes += rep.window_episodes();
    for (std::size_t r = 1; r < rep.ranks.size(); ++r) {
      const RankLog& log = rep.ranks[r];
      wire += (log.close.bytes_sent + log.close.bytes_received) -
              (log.open.bytes_sent + log.open.bytes_received);
    }
  }
  const Percentile tl = untraced_tail(reps);
  const auto range = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? std::string()
                     : fmt("min %.6g, max %.6g", v.front(), v.back());
  };
  notes.push_back(fmt("%.0f reps, %.0f samples",
                      static_cast<double>(p50s.size()),
                      static_cast<double>(tl.samples)));
  notes.push_back("per-rep episode p50 (us): " + range(p50s));
  notes.push_back("per-rep episodes/s: " + range(rates));
  notes.push_back("per-rep setup (s): " + range(setups));
  notes.push_back(tl.name("episode") + fmt(" (us, median over rep groups): "
                                           "%.6g", tl.value));

  return {
      {"episode_us_p50", median_of(p50s), "us"},
      {"episodes_per_s", median_of(rates), "1/s"},
      {"wire_bytes_per_episode", ratio(static_cast<double>(wire),
                                       static_cast<double>(episodes)),
       "B"},
      {"setup_s", median_of(setups), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const std::vector<RepResult>& reps,
                              std::vector<std::string>& notes) {
  std::uint64_t episodes = 0;
  dsm::ShareStats all;     // every node, window deltas
  dsm::ShareStats remote;  // remotes only, window deltas
  std::uint64_t frames = 0, sent = 0, link_rate = 0;
  std::uint64_t retries = 0, timeouts = 0;
  obs::HistogramSnapshot reply_wait, home_wake;
  std::vector<double> seed_bytes, switches, engage;
  std::vector<std::vector<double>> lock, unlock, barrier, write;

  for (const RepResult& rep : reps) {
    if (!rep.traced) continue;
    episodes += rep.window_episodes();
    link_rate = rep.link_bytes_per_s;
    double seed = 0, rep_switches = 0, rep_engage = 0;
    for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
      const RankLog& log = rep.ranks[r];
      const dsm::ShareStats d = minus(log.close.stats, log.open.stats);
      all += d;
      retries += log.close.stats.retries;
      timeouts += log.close.stats.timeouts;
      rep_switches += static_cast<double>(log.close.stats.adapt_switches);
      rep_engage = std::max(rep_engage,
                            static_cast<double>(log.engage_episodes));
      if (r == 0) {
        home_wake.merge(window_histogram(log.open, log.close,
                                         "phase.reactor_wake.ns"));
      } else {
        remote += d;
        frames += log.close.frames - log.open.frames;
        sent += log.close.bytes_sent - log.open.bytes_sent;
        seed += static_cast<double>(log.open.bytes_sent +
                                    log.open.bytes_received);
        reply_wait.merge(window_histogram(log.open, log.close,
                                          "phase.reply_wait.ns"));
      }
      auto& l = lock.emplace_back();
      auto& u = unlock.emplace_back();
      auto& b = barrier.emplace_back();
      auto& w = write.emplace_back();
      for (const EpisodeTimes& t : log.episodes) {
        w.push_back(us(t.releasing - t.acquired));
        if (rep.lock_sync) {
          l.push_back(us(t.acquired - t.start));
          u.push_back(us(t.end - t.releasing));
        } else {
          b.push_back(us(t.end - t.releasing));
        }
      }
    }
    seed_bytes.push_back(seed);
    switches.push_back(rep_switches);
    engage.push_back(rep_engage);
  }

  const double e = static_cast<double>(episodes);
  const auto per_ep = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), e);
  };
  const auto p50_of = [](const std::vector<std::vector<double>>& s) {
    return median(merge_sorted(s)).value;
  };
  const double rw = us(reply_wait.quantile(0.5));
  const double wake = us(home_wake.quantile(0.5));
  const double traced_p50 = p50_over_reps(reps, true);
  const double plain_p50 = p50_over_reps(reps, false);
  const Percentile tl = untraced_tail(reps);
  const std::uint64_t lookups = all.plan_cache_hits + all.plan_cache_misses;
  const std::uint64_t codec_seen = all.codec_blocks + all.codec_skipped;

  notes.push_back(fmt("traced window episodes: %.0f", e));
  notes.push_back(fmt("reply_wait histogram: %.0f samples; reactor_wake: "
                      "%.0f samples",
                      static_cast<double>(reply_wait.count),
                      static_cast<double>(home_wake.count)));
  notes.push_back(fmt("episode p50: traced %.3f us, untraced %.3f us",
                      traced_p50, plain_p50));
  notes.push_back(tl.name("episode") +
                  fmt(" (us, untraced reps, median over rep groups): %.6g "
                      "over %.0f samples",
                      tl.value, static_cast<double>(tl.samples)));
  notes.push_back(fmt("Eq.1 C_share per episode: %.3f us",
                      us(all.share_ns()) / std::max(e, 1.0)));

  return {
      {"window.episodes", e, "count"},
      {tl.name("episode_us"), tl.value, "us"},
      {"msg.frames_per_episode", per_ep(frames), "count"},
      {"msg.reply_wait_us_p50", rw, "us"},
      {"msg.hop_us_p50", rw - wake, "us"},
      {"msg.link_wait_us_per_episode",
       link_rate == 0 ? 0.0
                      : ratio(static_cast<double>(sent) * 1e6,
                              static_cast<double>(link_rate)) /
                            std::max(e, 1.0),
       "us"},
      {"dsm.lock_us_p50", p50_of(lock), "us"},
      {"dsm.unlock_us_p50", p50_of(unlock), "us"},
      {"dsm.barrier_us_p50", p50_of(barrier), "us"},
      {"dsm.home_handle_us_p50", wake, "us"},
      {"dsm.seed_bytes", median_of(seed_bytes), "B"},
      {"dsm.pending_bytes_per_grant",
       ratio(static_cast<double>(remote.update_bytes_received),
             static_cast<double>(remote.locks + remote.barriers)),
       "B"},
      {"dsm.pack_ns_per_episode", per_ep(all.pack_ns), "ns"},
      {"dsm.unpack_ns_per_episode", per_ep(all.unpack_ns), "ns"},
      {"dsm.share_ns_per_episode", per_ep(all.share_ns()), "ns"},
      {"dsm.retries", static_cast<double>(retries), "count"},
      {"dsm.timeouts", static_cast<double>(timeouts), "count"},
      {"memory.dirty_pages_per_episode", per_ep(all.dirty_pages), "count"},
      {"memory.write_phase_us_p50", p50_of(write), "us"},
      {"index.index_ns_per_episode", per_ep(all.index_ns), "ns"},
      {"tags.tag_ns_per_episode", per_ep(all.tag_ns), "ns"},
      {"tags.tags_per_episode", per_ep(all.tags_generated), "count"},
      {"convert.conv_ns_per_episode", per_ep(all.conv_ns), "ns"},
      {"convert.plan_cache_hit_ratio",
       ratio(static_cast<double>(all.plan_cache_hits),
             static_cast<double>(lookups)),
       "ratio"},
      {"convert.plan_lookups_per_episode", per_ep(lookups), "count"},
      {"convert.fastpath_share",
       ratio(static_cast<double>(all.fastpath_blocks),
             static_cast<double>(all.updates_received)),
       "ratio"},
      {"convert.blocks_per_episode", per_ep(all.updates_received), "count"},
      {"codec.encode_ns_per_episode", per_ep(all.codec_encode_ns), "ns"},
      {"codec.decode_ns_per_episode", per_ep(all.codec_decode_ns), "ns"},
      {"codec.ratio",
       ratio(static_cast<double>(all.codec_wire_bytes),
             static_cast<double>(all.codec_raw_bytes)),
       "ratio"},
      {"codec.raw_bytes_per_episode", per_ep(all.codec_raw_bytes), "B"},
      {"codec.skipped_share",
       ratio(static_cast<double>(all.codec_skipped),
             static_cast<double>(codec_seen)),
       "ratio"},
      {"codec.blocks_per_episode", per_ep(codec_seen), "count"},
      {"adapt.switches", median_of(switches), "count"},
      {"adapt.episodes_to_engage", median_of(engage), "count"},
      {"obj.objects_per_episode", per_ep(all.objects_shipped), "count"},
      {"obs.overhead_pct",
       plain_p50 > 0.0 ? (traced_p50 / plain_p50 - 1.0) * 100.0 : 0.0, "%"},
  };
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's episode phases plus every node's obs flight recorder.

namespace {

struct Span {
  std::uint32_t pid = 0;  ///< rank
  std::uint32_t tid = 0;  ///< lane
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  std::string args;  ///< JSON object members
};

struct LaneName {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string label;
};

/// Lane for bench spans of a rank whose client thread recorded no library
/// span (e.g. an untraced node).
constexpr std::uint32_t kBenchLane = 999;

void gather(const RepResult& rep, std::vector<Span>& spans,
            std::vector<LaneName>& lanes) {
  for (std::uint32_t r = 0; r < rep.ranks.size(); ++r) {
    const RankLog& log = rep.ranks[r];
    const std::string client = r == 0 ? "master" : "client";
    std::uint32_t client_lane = kBenchLane;
    for (const obs::LaneSnapshot& lane : log.spans.lanes) {
      lanes.push_back({r, lane.lane, lane.label});
      if (lane.label == client) client_lane = lane.lane;
      for (const obs::SpanRecord& s : lane.spans) {
        spans.push_back({r, lane.lane, obs::span_kind_name(s.kind),
                         s.start_ns, s.dur_ns,
                         "\"id\":" + std::to_string(s.id)});
      }
    }
    if (log.episodes.empty()) continue;
    if (client_lane == kBenchLane) lanes.push_back({r, kBenchLane, client});
    for (std::size_t i = 0; i < log.episodes.size(); ++i) {
      const EpisodeTimes& t = log.episodes[i];
      const std::string args = "\"rank\":" + std::to_string(r) +
                               ",\"episode\":" + std::to_string(i);
      const auto add = [&](const char* name, std::uint64_t a,
                           std::uint64_t b) {
        spans.push_back({r, client_lane, name, a, b - a, args});
      };
      add("bench.episode", t.start, t.end);
      if (rep.lock_sync) {
        add("bench.lock", t.start, t.acquired);
        add("bench.write", t.acquired, t.releasing);
        add("bench.unlock", t.releasing, t.end);
      } else {
        add("bench.sweep", t.start, t.releasing);
        add("bench.barrier", t.releasing, t.end);
      }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<std::string> self_time_budget(const RepResult& rep) {
  std::vector<Span> spans;
  std::vector<LaneName> lanes;
  gather(rep, spans, lanes);
  // Window only, grouped by lane, parents before the children they nest.
  // A master that runs no episodes only waits out the window; its lane
  // would charge that wait to every episode.
  const bool idle_master = rep.ranks[0].episodes.empty();
  std::erase_if(spans, [&](const Span& s) {
    const bool idle = idle_master && s.pid == 0 &&
                      std::any_of(lanes.begin(), lanes.end(),
                                  [&](const LaneName& l) {
                                    return l.pid == 0 && l.tid == s.tid &&
                                           l.label == "master";
                                  });
    return idle || s.dur == 0 || s.start < rep.window_open_ns ||
           s.start + s.dur > rep.window_close_ns;
  });
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.dur > b.dur;
  });
  // A span's parent is the innermost span on its lane that contains it.
  // Library spans are timed independently of each other, so a child may
  // end up to kSlackNs after its parent (and siblings overlap as much):
  // such a child still nests, and only the overlap is charged.
  constexpr std::uint64_t kSlackNs = 1000;
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = static_cast<std::int64_t>(s.dur);
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      const bool same_lane = top.pid == s.pid && top.tid == s.tid;
      if (same_lane && s.start + s.dur <= top.start + top.dur + kSlackNs) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Span& parent = spans[stack.back()];
      const std::uint64_t end =
          std::min(s.start + s.dur, parent.start + parent.dur);
      self[stack.back()] -= static_cast<std::int64_t>(end - s.start);
    }
    stack.push_back(i);
  }
  struct Total {
    double self_ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string key =
        (spans[i].pid == 0 ? "home:" : "remote:") + spans[i].name;
    by_name[key].self_ns += static_cast<double>(self[i]);
    ++by_name[key].count;
  }
  std::vector<std::pair<std::string, Total>> rows(by_name.begin(),
                                                  by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  const double episodes =
      std::max<double>(1.0, static_cast<double>(rep.window_episodes()));
  std::vector<std::string> out;
  for (const auto& [name, t] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-28s %10.3f us/episode self  (%llu spans)",
                  name.c_str(), t.self_ns / 1e3 / episodes,
                  static_cast<unsigned long long>(t.count));
    out.emplace_back(buf);
  }
  return out;
}

bool write_chrome_trace(const RepResult& rep, const std::string& path) {
  std::vector<Span> spans;
  std::vector<LaneName> lanes;
  gather(rep, spans, lanes);
  std::uint64_t t0 = ~0ull;
  for (const Span& s : spans) t0 = std::min(t0, s.start);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const std::string& body) {
    if (!first) out += ",\n";
    first = false;
    out += body;
  };
  for (std::uint32_t r = 0; r < rep.ranks.size(); ++r) {
    event("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
          std::to_string(r) + ",\"args\":{\"name\":\"" +
          (r == 0 ? std::string("home (rank 0)")
                  : "remote rank " + std::to_string(r)) +
          "\"}}");
  }
  for (const LaneName& l : lanes) {
    event("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
          std::to_string(l.pid) + ",\"tid\":" + std::to_string(l.tid) +
          ",\"args\":{\"name\":\"" + json_escape(l.label) + "\"}}");
  }
  char num[64];
  for (const Span& s : spans) {
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(s.start - t0) / 1e3);
    std::string body = "{\"ph\":\"" + std::string(s.dur == 0 ? "i" : "X") +
                       "\",\"name\":\"" + s.name + "\",\"pid\":" +
                       std::to_string(s.pid) + ",\"tid\":" +
                       std::to_string(s.tid) + ",\"ts\":" + num;
    if (s.dur != 0) {
      std::snprintf(num, sizeof num, "%.3f", static_cast<double>(s.dur) / 1e3);
      body += ",\"dur\":";
      body += num;
    } else {
      body += ",\"s\":\"t\"";
    }
    body += ",\"args\":{" + s.args + "}}";
    event(body);
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

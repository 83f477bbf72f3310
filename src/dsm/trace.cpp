#include "dsm/trace.hpp"

#include <map>
#include <set>
#include <sstream>

namespace hdsm::dsm {

const char* trace_kind_name(TraceEvent::Kind k) noexcept {
  switch (k) {
    case TraceEvent::Kind::LockRequested: return "LockRequested";
    case TraceEvent::Kind::LockGranted: return "LockGranted";
    case TraceEvent::Kind::LockReleased: return "LockReleased";
    case TraceEvent::Kind::BarrierEntered: return "BarrierEntered";
    case TraceEvent::Kind::BarrierReleased: return "BarrierReleased";
    case TraceEvent::Kind::UpdatesApplied: return "UpdatesApplied";
    case TraceEvent::Kind::UpdatesShipped: return "UpdatesShipped";
    case TraceEvent::Kind::Joined: return "Joined";
    case TraceEvent::Kind::Attached: return "Attached";
    case TraceEvent::Kind::Detached: return "Detached";
    case TraceEvent::Kind::RetrySent: return "RetrySent";
    case TraceEvent::Kind::DuplicateDropped: return "DuplicateDropped";
    case TraceEvent::Kind::ReplyResent: return "ReplyResent";
    case TraceEvent::Kind::Reconnected: return "Reconnected";
    case TraceEvent::Kind::TimeoutDetached: return "TimeoutDetached";
    case TraceEvent::Kind::ProbeSampled: return "ProbeSampled";
    case TraceEvent::Kind::StrategySwitched: return "StrategySwitched";
    case TraceEvent::Kind::MetricsScraped: return "MetricsScraped";
  }
  return "?";
}

void TraceLog::append(TraceEvent::Kind kind, std::uint32_t rank,
                      std::uint32_t sync_id, std::uint64_t blocks,
                      std::uint64_t bytes, std::uint64_t req) {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent e;
  e.seq = next_seq_++;
  e.kind = kind;
  e.rank = rank;
  e.sync_id = sync_id;
  e.blocks = blocks;
  e.bytes = bytes;
  e.req = req;
  events_.push_back(e);
}

std::vector<TraceEvent> TraceLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  next_seq_ = 1;
}

std::string TraceLog::to_string() const {
  std::ostringstream os;
  for (const TraceEvent& e : snapshot()) {
    os << "#" << e.seq << " " << trace_kind_name(e.kind)
       << " rank=" << e.rank << " sync=" << e.sync_id;
    if (e.blocks != 0 || e.bytes != 0) {
      os << " blocks=" << e.blocks << " bytes=" << e.bytes;
    }
    if (e.req != 0) os << " req=" << e.req;
    os << "\n";
  }
  return os.str();
}

std::optional<std::string> validate_trace(
    const std::vector<TraceEvent>& events) {
  const auto fail = [](const TraceEvent& e, const std::string& why) {
    return "event #" + std::to_string(e.seq) + " (" +
           trace_kind_name(e.kind) + " rank=" + std::to_string(e.rank) +
           " sync=" + std::to_string(e.sync_id) + "): " + why;
  };

  std::map<std::uint32_t, std::int64_t> holder;      // mutex -> rank or -1
  std::map<std::uint32_t, std::set<std::uint32_t>> entered;  // barrier -> ranks
  std::set<std::uint32_t> gone;  // joined or detached, not re-attached
  std::map<std::uint32_t, std::uint64_t> applied_req;  // rank -> last req
  // rank -> episode (sync_id) of its most recent ProbeSampled, for the
  // adaptive-causality invariant.  No entry = never sampled.
  std::map<std::uint32_t, std::uint32_t> probed_episode;

  const auto is_reliability_bookkeeping = [](TraceEvent::Kind k) {
    // Retransmits of a gone rank's final request legitimately reach the
    // home after its Join/Detach; dropping or re-answering them is not
    // "activity" in the lifecycle sense.
    return k == TraceEvent::Kind::RetrySent ||
           k == TraceEvent::Kind::DuplicateDropped ||
           k == TraceEvent::Kind::ReplyResent ||
           // A scrape is pure bookkeeping too: a remote's last MetricsPull
           // may race its Join/Detach, and folding the snapshot is not
           // protocol activity.
           k == TraceEvent::Kind::MetricsScraped;
  };
  const auto is_adaptive = [](TraceEvent::Kind k) {
    // Tuner bookkeeping, not protocol activity: a remote's final collect
    // (e.g. after a TimeoutDetached) still samples its local tuner.
    return k == TraceEvent::Kind::ProbeSampled ||
           k == TraceEvent::Kind::StrategySwitched;
  };

  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::Attached && e.rank != 0 &&
        !is_reliability_bookkeeping(e.kind) && !is_adaptive(e.kind) &&
        gone.count(e.rank) != 0) {
      return fail(e, "activity from a joined/detached rank");
    }
    switch (e.kind) {
      case TraceEvent::Kind::LockRequested:
        break;
      case TraceEvent::Kind::LockGranted: {
        auto [it, inserted] = holder.try_emplace(e.sync_id, -1);
        if (it->second != -1) {
          return fail(e, "granted while held by rank " +
                             std::to_string(it->second));
        }
        it->second = e.rank;
        break;
      }
      case TraceEvent::Kind::LockReleased: {
        auto it = holder.find(e.sync_id);
        if (it == holder.end() || it->second == -1) {
          return fail(e, "released while free");
        }
        if (it->second != static_cast<std::int64_t>(e.rank)) {
          return fail(e, "released by non-holder (holder is rank " +
                             std::to_string(it->second) + ")");
        }
        it->second = -1;
        break;
      }
      case TraceEvent::Kind::BarrierEntered: {
        auto& set = entered[e.sync_id];
        if (!set.insert(e.rank).second) {
          return fail(e, "rank entered the barrier twice in one episode");
        }
        break;
      }
      case TraceEvent::Kind::BarrierReleased: {
        auto& set = entered[e.sync_id];
        if (set.empty()) {
          return fail(e, "barrier released with no participants");
        }
        if (set.count(0) == 0) {
          return fail(e, "barrier released without the master thread");
        }
        set.clear();
        break;
      }
      case TraceEvent::Kind::Joined:
      case TraceEvent::Kind::Detached:
      case TraceEvent::Kind::TimeoutDetached:
        gone.insert(e.rank);
        // The home reclaims a departed rank's mutexes (graceful
        // degradation), without a separate LockReleased event: model the
        // implicit release so the next grant does not read as a double
        // grant.
        for (auto& [sync_id, h] : holder) {
          if (h == static_cast<std::int64_t>(e.rank)) h = -1;
        }
        break;
      case TraceEvent::Kind::Attached:
        gone.erase(e.rank);
        // A re-attach starts a new incarnation of the rank (thread churn,
        // migration, reconnect): its request numbering may restart at #1,
        // so the idempotency horizon resets with it.
        applied_req.erase(e.rank);
        break;
      case TraceEvent::Kind::UpdatesApplied: {
        if (e.req != 0) {
          auto [it, inserted] = applied_req.try_emplace(e.rank, 0);
          if (!inserted && e.req <= it->second) {
            return fail(e, "request #" + std::to_string(e.req) +
                               " applied twice (duplicate application)");
          }
          it->second = e.req;
        }
        break;
      }
      case TraceEvent::Kind::ProbeSampled:
        probed_episode[e.rank] = e.sync_id;
        break;
      case TraceEvent::Kind::StrategySwitched: {
        auto it = probed_episode.find(e.rank);
        if (it == probed_episode.end()) {
          return fail(e, "strategy change without any prior probe sample");
        }
        if (it->second != e.sync_id) {
          return fail(e, "strategy change in episode " +
                             std::to_string(e.sync_id) +
                             " but last probe sample was episode " +
                             std::to_string(it->second));
        }
        break;
      }
      case TraceEvent::Kind::RetrySent:
      case TraceEvent::Kind::DuplicateDropped:
      case TraceEvent::Kind::ReplyResent:
      case TraceEvent::Kind::Reconnected:
      case TraceEvent::Kind::UpdatesShipped:
      case TraceEvent::Kind::MetricsScraped:
        break;
    }
  }
  return std::nullopt;
}

}  // namespace hdsm::dsm

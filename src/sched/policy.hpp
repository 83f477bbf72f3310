// The adaptation scheduler — the "adaptive" of the paper's title.
//
// Paper §1: "Collecting and orchestrating these otherwise idle machines
// will utilize these computing resources effectively ... Parallel
// computing jobs can be dispatched to newly added machines by migrating
// running threads dynamically.  Thus an idle machine's computing power is
// utilized for better throughput"; §3.1: "threads can move around
// according to requests from schedulers for load balancing and load
// sharing" and "Threads can migrate again if the hosting node is
// overloaded."
//
// AdaptationPolicy is that scheduler: given per-node load and the
// iso-computing role map, it proposes migrations (overloaded source ->
// most idle destination with a free slot), honoring the paper's role
// discipline.  LoadModel provides a deterministic synthetic load signal
// (external load + per-computing-thread cost) standing in for the paper's
// "large fraction of workstations unused for a large fraction of time".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dsm/stats.hpp"
#include "mig/roles.hpp"

namespace hdsm::sched {

struct PolicyConfig {
  /// A node whose load exceeds this is a migration source.
  double overload_threshold = 0.75;
  /// A node below this is an attractive destination.
  double underload_threshold = 0.50;
  /// Required load gap between source and destination (hysteresis —
  /// prevents thrashing a thread back and forth).
  double min_imbalance = 0.25;
};

struct MigrationDecision {
  std::size_t slot = 0;
  std::size_t src = 0;
  std::size_t dst = 0;

  bool operator==(const MigrationDecision&) const = default;
};

/// Threshold/greedy load balancer over the role map.
class AdaptationPolicy {
 public:
  explicit AdaptationPolicy(PolicyConfig cfg = {}) : cfg_(cfg) {}

  const PolicyConfig& config() const noexcept { return cfg_; }

  /// Propose at most one migration: the most overloaded node shedding one
  /// movable (Local/Remote, slot != 0) thread to the least loaded active
  /// node whose matching slot is free (Skeleton/Stub).  Returns nullopt
  /// when the system is balanced or no legal move exists.
  std::optional<MigrationDecision> decide(
      const mig::RoleTracker& roles,
      const std::vector<double>& node_load) const;

  /// Apply decide() repeatedly (each application updates the role map and
  /// re-estimates load via `load_of_node`) until balanced or `max_moves`
  /// reached.  Returns the decisions taken, in order.  `load_of_node` is
  /// any `(roles, node) -> double`, a LoadModel included; each iteration
  /// re-evaluates every node.
  template <typename LoadFn>
  std::vector<MigrationDecision> rebalance(mig::RoleTracker& roles,
                                           LoadFn&& load_of_node,
                                           std::size_t max_moves = 16) const {
    std::vector<MigrationDecision> taken;
    for (std::size_t i = 0; i < max_moves; ++i) {
      std::vector<double> loads(roles.num_nodes());
      for (std::size_t n = 0; n < roles.num_nodes(); ++n) {
        loads[n] = load_of_node(roles, n);
      }
      const std::optional<MigrationDecision> d = decide(roles, loads);
      if (!d) break;
      roles.migrate(d->slot, d->src, d->dst);
      taken.push_back(*d);
    }
    return taken;
  }

 private:
  PolicyConfig cfg_;
};

/// Deterministic synthetic load: external (owner) load per node plus a
/// per-computing-thread increment — the signal a MigThread scheduler would
/// sample from the machines.
class LoadModel {
 public:
  LoadModel(std::vector<double> external_load, double per_thread_cost)
      : external_(std::move(external_load)), per_thread_(per_thread_cost) {}

  /// External (non-DSM) load of `node`; settable as the simulated owners
  /// come and go.
  void set_external(std::size_t node, double load);
  double external(std::size_t node) const { return external_.at(node); }
  /// Grow alongside RoleTracker::add_node().
  void add_node(double external_load) { external_.push_back(external_load); }

  /// Replace `node`'s synthetic external load with a measured busy
  /// fraction: busy_ns of work observed over a wall_ns sampling window,
  /// clamped to [0, 1] (parallel lanes can make busy exceed wall).
  void set_measured(std::size_t node, std::uint64_t busy_ns,
                    std::uint64_t wall_ns);

  /// Same, with the busy time read straight from the node's ShareStats:
  /// the Eq.-1 data-sharing cost (C_share) is the DSM-side busy signal a
  /// real scheduler samples, instead of the synthetic owner-load vector.
  void set_measured(std::size_t node, const dsm::ShareStats& stats,
                    std::uint64_t wall_ns) {
    set_measured(node, stats.share_ns(), wall_ns);
  }

  /// Total load of `node` under the current role map.
  double operator()(const mig::RoleTracker& roles, std::size_t node) const;

 private:
  std::vector<double> external_;
  double per_thread_;
};

}  // namespace hdsm::sched

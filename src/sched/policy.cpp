#include "sched/policy.hpp"

#include <stdexcept>

namespace hdsm::sched {

namespace {

bool slot_movable(mig::ThreadRole r) {
  return r == mig::ThreadRole::Local || r == mig::ThreadRole::Remote;
}

bool slot_free(mig::ThreadRole r) {
  return r == mig::ThreadRole::Skeleton || r == mig::ThreadRole::Stub;
}

}  // namespace

std::optional<MigrationDecision> AdaptationPolicy::decide(
    const mig::RoleTracker& roles,
    const std::vector<double>& node_load) const {
  if (node_load.size() != roles.num_nodes()) {
    throw std::invalid_argument("decide: load vector size != node count");
  }

  // Source: the highest-loaded active node above the overload threshold
  // that runs at least one movable thread.
  std::size_t src = roles.num_nodes();
  double src_load = cfg_.overload_threshold;
  for (std::size_t n = 0; n < roles.num_nodes(); ++n) {
    if (!roles.node_active(n) || node_load[n] <= src_load) continue;
    bool movable = false;
    for (std::size_t s = 1; s < roles.num_slots() && !movable; ++s) {
      movable = slot_movable(roles.role(n, s));
    }
    if (movable) {
      src = n;
      src_load = node_load[n];
    }
  }
  if (src == roles.num_nodes()) return std::nullopt;

  // Pick the slot to shed (first movable; slot 0 — the master — stays).
  std::size_t slot = 0;
  for (std::size_t s = 1; s < roles.num_slots(); ++s) {
    if (slot_movable(roles.role(src, s))) {
      slot = s;
      break;
    }
  }

  // Destination: the least-loaded active node below the underload
  // threshold, with the matching slot free, honoring hysteresis.
  std::size_t dst = roles.num_nodes();
  double dst_load = cfg_.underload_threshold;
  for (std::size_t n = 0; n < roles.num_nodes(); ++n) {
    if (n == src || !roles.node_active(n)) continue;
    if (node_load[n] >= dst_load) continue;
    if (!slot_free(roles.role(n, slot))) continue;
    dst = n;
    dst_load = node_load[n];
  }
  if (dst == roles.num_nodes()) return std::nullopt;
  if (src_load - dst_load < cfg_.min_imbalance) return std::nullopt;

  return MigrationDecision{slot, src, dst};
}

void LoadModel::set_external(std::size_t node, double load) {
  external_.at(node) = load;
}

void LoadModel::set_measured(std::size_t node, std::uint64_t busy_ns,
                             std::uint64_t wall_ns) {
  if (wall_ns == 0) {
    external_.at(node) = 0.0;
    return;
  }
  const double frac =
      static_cast<double>(busy_ns) / static_cast<double>(wall_ns);
  external_.at(node) = frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
}

double LoadModel::operator()(const mig::RoleTracker& roles,
                             std::size_t node) const {
  double load = external_.at(node);
  for (std::size_t s = 0; s < roles.num_slots(); ++s) {
    const mig::ThreadRole r = roles.role(node, s);
    if (r == mig::ThreadRole::Master || r == mig::ThreadRole::Local ||
        r == mig::ThreadRole::Remote) {
      load += per_thread_;
    }
  }
  return load;
}

}  // namespace hdsm::sched

// Tests for the adaptation scheduler: threshold policy, hysteresis, node
// join/leave, and full rebalance loops over the role map.
#include <gtest/gtest.h>

#include "sched/policy.hpp"

namespace sched = hdsm::sched;
namespace mig = hdsm::mig;
using mig::ThreadRole;

TEST(LoadModel, SumsExternalAndThreadLoad) {
  mig::RoleTracker roles(2, 3);  // node0: master + 2 locals; node1: skeletons
  sched::LoadModel model({0.1, 0.2}, 0.3);
  EXPECT_DOUBLE_EQ(model(roles, 0), 0.1 + 3 * 0.3);
  EXPECT_DOUBLE_EQ(model(roles, 1), 0.2);
  roles.migrate(1, 0, 1);
  EXPECT_DOUBLE_EQ(model(roles, 0), 0.1 + 2 * 0.3);
  EXPECT_DOUBLE_EQ(model(roles, 1), 0.2 + 0.3);
}

TEST(Policy, ShedsFromOverloadedToIdle) {
  mig::RoleTracker roles(2, 3);
  sched::AdaptationPolicy policy;
  const auto d = policy.decide(roles, {0.9, 0.1});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 0u);
  EXPECT_EQ(d->dst, 1u);
  EXPECT_GE(d->slot, 1u);  // the master never moves
}

TEST(Policy, BalancedSystemProposesNothing) {
  mig::RoleTracker roles(2, 3);
  sched::AdaptationPolicy policy;
  EXPECT_FALSE(policy.decide(roles, {0.5, 0.5}).has_value());
  EXPECT_FALSE(policy.decide(roles, {0.6, 0.6}).has_value());
}

TEST(Policy, HysteresisPreventsMarginalMoves) {
  mig::RoleTracker roles(2, 3);
  sched::PolicyConfig cfg;
  cfg.overload_threshold = 0.7;
  cfg.underload_threshold = 0.65;
  cfg.min_imbalance = 0.25;
  sched::AdaptationPolicy policy(cfg);
  // Overloaded source, eligible destination, but the gap is too small.
  EXPECT_FALSE(policy.decide(roles, {0.8, 0.6}).has_value());
  EXPECT_TRUE(policy.decide(roles, {0.9, 0.1}).has_value());
}

TEST(Policy, NoMovableThreadMeansNoDecision) {
  mig::RoleTracker roles(2, 2);
  roles.migrate(1, 0, 1);  // only slave now computes on node 1
  sched::AdaptationPolicy policy;
  // Node 0 hosts master (immovable) + stub: overload cannot be shed.
  EXPECT_FALSE(policy.decide(roles, {0.95, 0.1}).has_value());
}

TEST(Policy, DestinationSlotMustBeFree) {
  mig::RoleTracker roles(3, 2);
  roles.migrate(1, 0, 1);  // slot 1 computes on node 1
  sched::AdaptationPolicy policy;
  // Node 1 overloaded; node 2's slot 1 is a skeleton -> legal.
  const auto d = policy.decide(roles, {0.1, 0.9, 0.05});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 1u);
  EXPECT_EQ(d->dst, 2u);
  EXPECT_EQ(d->slot, 1u);
}

TEST(Policy, DepartedNodesExcluded) {
  mig::RoleTracker roles(3, 2);
  roles.remove_node(2);
  sched::AdaptationPolicy policy;
  const auto d = policy.decide(roles, {0.9, 0.1, 0.0});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->dst, 1u);  // node 2 would be cheaper but it left
}

TEST(Policy, LoadVectorSizeValidated) {
  mig::RoleTracker roles(2, 2);
  sched::AdaptationPolicy policy;
  EXPECT_THROW(policy.decide(roles, {0.5}), std::invalid_argument);
}

TEST(Policy, RebalanceConvergesToFixpoint) {
  // Home node with 4 slave threads; two idle machines join.
  mig::RoleTracker roles(1, 5);
  sched::LoadModel model({0.1}, 0.22);  // 0.1 + 5*0.22 = 1.2: overloaded
  roles.add_node();
  model.add_node(0.05);
  roles.add_node();
  model.add_node(0.0);

  sched::AdaptationPolicy policy;
  const auto moves = policy.rebalance(roles, model);
  EXPECT_FALSE(moves.empty());

  // Fixpoint: no further decision.
  std::vector<double> loads(roles.num_nodes());
  for (std::size_t n = 0; n < roles.num_nodes(); ++n) {
    loads[n] = model(roles, n);
  }
  EXPECT_FALSE(policy.decide(roles, loads).has_value());
  // The joiners actually received work.
  std::size_t computing_elsewhere = 0;
  for (std::size_t n = 1; n < roles.num_nodes(); ++n) {
    for (std::size_t s = 0; s < roles.num_slots(); ++s) {
      if (roles.role(n, s) == ThreadRole::Remote) ++computing_elsewhere;
    }
  }
  EXPECT_GE(computing_elsewhere, 2u);
}

TEST(Policy, OverloadedRemoteMigratesAgain) {
  // "Threads can migrate again if the hosting node is overloaded."
  mig::RoleTracker roles(3, 2);
  roles.migrate(1, 0, 1);
  sched::AdaptationPolicy policy;
  const auto d = policy.decide(roles, {0.2, 0.95, 0.1});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 1u);
  EXPECT_EQ(d->dst, 2u);
  roles.migrate(d->slot, d->src, d->dst);
  EXPECT_EQ(roles.role(1, 1), ThreadRole::Skeleton);
  EXPECT_EQ(roles.role(2, 1), ThreadRole::Remote);
}

TEST(Roles, AddAndRemoveNodes) {
  mig::RoleTracker roles(2, 2);
  const std::size_t n = roles.add_node();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(roles.role(n, 0), ThreadRole::Skeleton);
  EXPECT_TRUE(roles.node_active(n));

  roles.migrate(1, 0, n);
  // A node running a thread cannot leave.
  EXPECT_THROW(roles.remove_node(n), std::logic_error);
  roles.migrate(1, n, 1);
  roles.remove_node(n);
  EXPECT_FALSE(roles.node_active(n));
  // And nothing migrates onto a departed node.
  EXPECT_THROW(roles.migrate(1, 1, n), std::logic_error);
  // The home node never leaves.
  EXPECT_THROW(roles.remove_node(0), std::logic_error);
}

// ---- measured-load bridge ---------------------------------------------------

TEST(LoadModel, MeasuredBusyFractionReplacesTheSyntheticLoad) {
  sched::LoadModel model({0.9, 0.3}, 0.1);

  // Busy time straight from a node's ShareStats: share_ns() over the wall
  // window, i.e. the Eq.-1 data-sharing cost as a busy fraction.
  hdsm::dsm::ShareStats stats;
  stats.index_ns = 200;
  stats.pack_ns = 100;
  stats.conv_ns = 100;
  model.set_measured(0, stats, /*wall_ns=*/1000);
  EXPECT_DOUBLE_EQ(model.external(0), 0.4);

  // A zero-length window carries no information: load reads 0.
  model.set_measured(1, 500, 0);
  EXPECT_DOUBLE_EQ(model.external(1), 0.0);
  // Parallel lanes can make busy exceed wall: clamped to 1.
  model.set_measured(1, 3000, 1000);
  EXPECT_DOUBLE_EQ(model.external(1), 1.0);
}

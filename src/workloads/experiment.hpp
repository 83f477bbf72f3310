// Experiment harness for the paper's §5 evaluation: platform pairs
// LL / SS / SL (Linux/Linux, Solaris/Solaris, Solaris/Linux), matrix sizes
// 99..255, three threads of which two are "migrated" (run as remote
// threads on their own virtual nodes).  Produces the Eq.-1 breakdown per
// node and in total — the quantities Figures 6-11 plot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "workloads/lu.hpp"
#include "workloads/matmul.hpp"

namespace hdsm::work {

struct PairSpec {
  std::string name;                        ///< "LL", "SS", "SL"
  const plat::PlatformDesc* home;          ///< master-thread platform
  const plat::PlatformDesc* remote;        ///< platform of both remote threads
};

/// The paper's three platform pairs.
const std::vector<PairSpec>& paper_pairs();
/// The paper's matrix sizes: 99, 138, 177, 216, 255.
const std::vector<std::uint32_t>& paper_sizes();

struct ExperimentResult {
  std::string pair;
  std::string workload;  ///< "matmul" or "lu"
  std::uint32_t n = 0;
  dsm::ShareStats total;   ///< sum over all three threads (C_share)
  dsm::ShareStats home;    ///< the home node's share
  dsm::ShareStats remote;  ///< sum over the two remote threads
  double wall_seconds = 0;
  bool verified = false;  ///< result matched the serial reference
};

ExperimentResult run_matmul_experiment(const PairSpec& pair, std::uint32_t n,
                                       dsm::ShardedHomeOptions opts = {});
ExperimentResult run_lu_experiment(const PairSpec& pair, std::uint32_t n,
                                   dsm::ShardedHomeOptions opts = {});

}  // namespace hdsm::work

// Red-black successive over-relaxation — the classic software-DSM
// benchmark of the TreadMarks era (the paper cites TreadMarks as the
// page-based archetype).  Added here as an extended workload beyond the
// paper's MM/LU pair: a stencil whose natural red/black phase split is
// race-free under the home node's eager update application (each phase
// writes one color and reads only the other).
//
//   struct GThV_sor_t { double grid[(n+2)*(n+2)]; int n; }
//
// Threads own contiguous interior-row bands; one DSD barrier after each
// half-sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::work {

tags::TypePtr sor_gthv(std::uint32_t n);

/// Deterministic boundary/interior initialization.
double sor_initial(std::uint32_t n, std::uint32_t i, std::uint32_t j);

/// Serial reference with the identical red/black sweep order — results
/// match the distributed run bit-for-bit.
std::vector<double> sor_reference(std::uint32_t n, std::uint32_t iters,
                                  double omega);

/// Run distributed SOR; returns the final grid from the master image.
std::vector<double> run_sor(dsm::ShardedCluster& cluster, std::uint32_t n,
                            std::uint32_t iters, double omega = 1.5);

}  // namespace hdsm::work

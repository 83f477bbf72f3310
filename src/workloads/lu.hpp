// The paper's LU-decomposition workload (§5): in-place LU (Doolittle, no
// pivoting — the input is made diagonally dominant so none is needed) on a
// shared double matrix, rows distributed cyclically over the threads, one
// DSD barrier per elimination step.  Each step rewrites every remaining row
// a thread owns, so updates are large — the paper's observation that "the
// LU-decomposition example transfers more data per update than the matrix
// multiplication example".
//
//   struct GThV_lu_t { void* GThP; double M[n*n]; int n; }
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::work {

tags::TypePtr lu_gthv(std::uint32_t n);

/// Deterministic, diagonally dominant input matrix.
double lu_input(std::uint32_t n, std::uint32_t i, std::uint32_t j);

/// Serial in-place LU of the same input, same operation order — results
/// match the distributed run bit-for-bit (binary64 end to end).
std::vector<double> lu_reference(std::uint32_t n);

/// Run the distributed LU; returns the factored matrix read back from the
/// master image (L below the diagonal, U on and above).
std::vector<double> run_lu(dsm::ShardedCluster& cluster, std::uint32_t n);

}  // namespace hdsm::work

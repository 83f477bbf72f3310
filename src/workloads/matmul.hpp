// The paper's matrix multiplication workload (§5): square int matrices of
// sizes 99/138/177/216/255, computed by three threads (two migrated to
// remote nodes, one staying home), sharing A, B, C through the DSD layer.
//
// The GThV structure mirrors the paper's Figure 4:
//   struct GThV_t { void* GThP; int A[n*n]; int B[n*n]; int C[n*n]; int n; }
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/sharded_cluster.hpp"
#include "tags/type_desc.hpp"

namespace hdsm::work {

/// The Figure-4 GThV for an n x n problem.
tags::TypePtr matmul_gthv(std::uint32_t n);

/// Deterministic inputs: a[i] and b[i] as small pseudo-random ints.
std::int32_t matmul_a(std::uint32_t n, std::uint64_t i);
std::int32_t matmul_b(std::uint32_t n, std::uint64_t i);

/// Serial reference product for verification.
std::vector<std::int32_t> matmul_reference(std::uint32_t n);

/// Run C = A*B on the cluster: the master initializes A and B, every
/// thread (master + remotes) computes a contiguous row block of C, and a
/// final barrier gathers the result at home.  Returns C read back from the
/// master image.
std::vector<std::int32_t> run_matmul(dsm::ShardedCluster& cluster,
                                     std::uint32_t n);

}  // namespace hdsm::work

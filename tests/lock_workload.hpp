// The increments-under-a-mutex workload the convergence suites
// (fault_test, sharded_fault_test, sharding_test) share: a GThV of one
// int64 array, deterministic per-rank op streams so the expected master
// image is computable without running the cluster, and the tight retry
// schedule the fault suites race.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "dsm/global_space.hpp"
#include "dsm/retry_core.hpp"
#include "dsm/sharded_remote.hpp"
#include "tags/type_desc.hpp"
#include "test_time.hpp"

namespace hdsm::test {

inline constexpr std::uint64_t kElems = 64;

inline tags::TypePtr gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kElems)}});
}

/// Tight schedule so fault tests finish in milliseconds, with enough
/// retries to ride out high loss rates.  HDSM_TEST_TIME_SCALE stretches
/// each wait for slow (sanitized) runs — see tests/test_time.hpp.
inline dsm::RetryPolicy fast_retry() {
  dsm::RetryPolicy p;
  p.timeout = scaled(std::chrono::milliseconds(25));
  p.backoff = 1.5;
  p.max_timeout = scaled(std::chrono::milliseconds(200));
  p.max_retries = 12;
  return p;
}

/// Rank `rank`'s op stream: (element, delta) pairs from a per-rank seed.
inline std::vector<std::pair<std::uint64_t, std::int64_t>> ops_of(
    std::uint32_t rank, int ops) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> v;
  std::mt19937_64 rng(500 + rank);
  for (int i = 0; i < ops; ++i) {
    v.emplace_back(rng() % kElems,
                   static_cast<std::int64_t>(rng() % 100) - 50);
  }
  return v;
}

/// The master image after ranks 1..num_remotes each ran `ops` ops.
inline std::vector<std::int64_t> expected_array(std::uint32_t num_remotes,
                                                int ops) {
  std::vector<std::int64_t> e(kElems, 0);
  for (std::uint32_t r = 1; r <= num_remotes; ++r) {
    for (const auto& [idx, delta] : ops_of(r, ops)) e[idx] += delta;
  }
  return e;
}

/// One remote's whole run: its ops, each under `lock`, then barrier 0 and
/// join.
inline void run_workload(dsm::ShardedRemote& remote, int ops,
                         std::uint32_t lock = 0) {
  for (const auto& [idx, delta] : ops_of(remote.rank(), ops)) {
    remote.lock(lock);
    auto a = remote.space().view<std::int64_t>("A");
    a.set(idx, a.get(idx) + delta);
    remote.unlock(lock);
  }
  remote.barrier(0);
  remote.join();
}

inline void expect_image(dsm::GlobalSpace& space,
                         const std::vector<std::int64_t>& expected) {
  auto a = space.view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
  }
}

}  // namespace hdsm::test

// Runs a test suite on both write-trap backends: derive the suite's
// fixture from TrapBackendTest, construct regions with GetParam(), and
// instantiate it with HDSM_ON_BOTH_TRAP_BACKENDS(Suite).  A Uffd case is
// skipped only when the kernel refuses the backend.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <system_error>

#include "memory/write_trap.hpp"

namespace hdsm::mem {
inline const char* trap_backend_name(TrapBackend b) {
  switch (b) {
    case TrapBackend::Auto:
      return "auto";
    case TrapBackend::Sigsegv:
      return "sigsegv";
    case TrapBackend::Uffd:
      return "uffd";
  }
  return "?";
}

/// Failure messages name the backend instead of dumping its byte.
inline void PrintTo(TrapBackend b, std::ostream* os) {
  *os << trap_backend_name(b);
}
}  // namespace hdsm::mem

namespace hdsm::test {

class TrapBackendTest : public ::testing::TestWithParam<mem::TrapBackend> {
 protected:
  void SetUp() override {
    if (GetParam() != mem::TrapBackend::Uffd) return;
    try {
      mem::TrackedRegion probe(1, mem::TrapBackend::Uffd);
    } catch (const std::system_error& e) {
      GTEST_SKIP() << "the kernel refuses the uffd backend: " << e.what();
    }
  }
};

inline std::string trap_backend_param_name(
    const ::testing::TestParamInfo<mem::TrapBackend>& info) {
  return mem::trap_backend_name(info.param);
}

}  // namespace hdsm::test

#define HDSM_ON_BOTH_TRAP_BACKENDS(suite)                                    \
  INSTANTIATE_TEST_SUITE_P(Backends, suite,                                  \
                           ::testing::Values(hdsm::mem::TrapBackend::Sigsegv, \
                                             hdsm::mem::TrapBackend::Uffd),  \
                           hdsm::test::trap_backend_param_name)

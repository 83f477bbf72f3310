// Reproduces Figure 8: "Mapping writes to their application-level indexes"
// (t_index) vs matrix size for the matrix-multiplication code, one series
// per platform performing the unlock (Solaris / Linux in the paper).
//
// Paper shape: t_index grows roughly linearly with the number of modified
// elements (so ~quadratically in n for MM's C block) and is small overall
// (single-digit milliseconds).  In the paper the two series differ because
// the CPUs differ; in this reproduction both virtual platforms execute on
// the same host, so the series nearly coincide — representation does not
// affect diff/scan work, which is the point of the hierarchical design.
#include <cstdio>

#include "bench_util.hpp"

using hdsm::bench::ms;

int main() {
  const auto sizes = hdsm::bench::sweep_sizes();
  // The shape check compares two single t_index readings, and fast mode's
  // sizes are small enough that one slow write fault outweighs the growth,
  // so even fast mode keeps the least-noise run of three.
  const auto sweep =
      hdsm::bench::run_matmul_sweep(hdsm::bench::repetitions(3));

  std::printf(
      "=== Figure 8: index discovery time (t_index), matrix "
      "multiplication ===\n\n");
  std::printf("%6s %18s %18s\n", "size", "Linux_ms(LL)", "Solaris_ms(SS)");
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    // Remote-side t_index of the homogeneous runs gives the per-platform
    // series, exactly as the paper measures the unlocking system.
    std::printf("%6u %18.4f %18.4f\n", sizes[s],
                ms(sweep[0][s].remote.index_ns),
                ms(sweep[1][s].remote.index_ns));
  }

  const bool grows =
      sweep[0].back().remote.index_ns > sweep[0].front().remote.index_ns;
  std::printf("\nshape: t_index grows with matrix size: %s\n",
              grows ? "YES" : "NO");
  return grows ? 0 : 1;
}

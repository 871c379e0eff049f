// Reproduces the structure of Table II (paper): the largest synthetic runs
// (512^3 and 1024^3 on up to 2048 tasks of Stampede). Here the "large" grid
// is 96^3 (the largest that keeps this binary under ~2 minutes on 4 cores);
// the paper's observation to reproduce is that the solve still completes at
// the largest size and that interpolation execution dominates the runtime.
#include "bench_common.hpp"

using namespace diffreg;
using namespace diffreg::bench;

int main() {
  print_scaling_header(
      "Table II (structure): large synthetic runs, compressible, "
      "beta=1e-2, nt=4, 2 Newton iterations");

  struct Entry {
    Int3 dims;
    int ranks;
  };
  const Entry entries[] = {
      {{96, 96, 96}, 2},
      {{96, 96, 96}, 4},
  };

  int id = 14;  // numbering follows the paper's Table II (#14...)
  for (const Entry& e : entries) {
    CaseConfig config;
    config.dims = e.dims;
    config.ranks = e.ranks;
    config.options.beta = 1e-2;
    config.options.gtol = 1e-2;
    config.options.nt = 4;
    config.options.max_newton_iters = 2;  // scaling run, fixed Newton steps
    const CaseResult r = run_case(config);
    print_scaling_row(id++, e.dims, e.ranks, r);
  }

  std::printf(
      "\nExpected shape (paper): time to solution decreases with tasks;\n"
      "interpolation execution is the largest single component (~50%% of\n"
      "the total), matching Table II's 1024^3 rows.\n");
  return 0;
}

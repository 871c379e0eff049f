// Strong-scaling demonstration on one node: the same synthetic registration
// problem solved with 1, 2 and 4 simulated MPI ranks, reporting the paper's
// table columns (time to solution, FFT comm/exec, interpolation comm/exec).
//
// Notes: on a 4-core container (`nproc` = 4) ideal speedup saturates at
// 4x; the point of the demo is that the distributed code path (pencil FFT
// transposes, ghost exchange, interpolation scatter) produces the same
// answer at every rank count while the comm/exec split shifts the way the
// paper's Tables I-IV describe.
#include <cstdio>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

using namespace diffreg;

int main() {
  const Int3 dims{32, 32, 32};

  std::printf("%5s %8s %12s | %10s %10s | %10s %10s | %8s\n", "ranks", "grid",
              "time (s)", "fft comm", "fft exec", "itp comm", "itp exec",
              "rel res");

  for (int ranks : {1, 2, 4}) {
    double time = 0, rel = 0;
    Timings timings;
    auto all = mpisim::run_spmd(ranks, [&](mpisim::Communicator& comm) {
      grid::PencilDecomp decomp(comm, dims);
      spectral::SpectralOps ops(decomp);
      auto rho_t = imaging::synthetic_template(decomp);
      auto v_star = imaging::synthetic_velocity(decomp, 0.5);
      auto rho_r = imaging::make_reference(ops, rho_t, v_star);

      core::RegistrationOptions opt;
      opt.beta = 1e-2;
      opt.max_newton_iters = 5;
      core::RegistrationSolver solver(decomp, opt);
      auto result = solver.run(rho_t, rho_r);
      if (comm.is_root()) {
        time = result.time_to_solution;
        rel = result.rel_residual;
      }
    });
    for (const auto& t : all) timings.max_with(t);

    std::printf("%5d %5lld^3 %12.2f | %10.2f %10.2f | %10.2f %10.2f | %8.3f\n",
                ranks, static_cast<long long>(dims[0]), time,
                timings.get(TimeKind::kFftComm),
                timings.get(TimeKind::kFftExec),
                timings.get(TimeKind::kInterpComm),
                timings.get(TimeKind::kInterpExec), rel);
  }
  return 0;
}

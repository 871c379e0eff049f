// Multi-subject brain registration (the paper's real-world problem,
// section IV-C, run here on procedural brain phantoms — see
// imaging/synthetic.hpp).
//
// Uses the paper's anisotropic grid shape (256 x 300 x 256, scaled down to
// 48 x 56 x 48 so it runs in seconds; 48 = 2^4*3 and 56 = 2^3*7 run the
// mixed-radix FFT engine exactly like 300 = 2^2*3*5^2 does), beta
// continuation, and dumps the Fig. 6/7 panels as PGM slices: reference,
// template, residual before, residual after, det(grad y) map, deformed
// template.
#include <cstdio>

#include "core/diffreg.hpp"
#include "grid/field_io.hpp"
#include "imaging/io.hpp"
#include "imaging/synthetic.hpp"

using namespace diffreg;

int main() {
  const Int3 dims{48, 56, 48};
  const int ranks = 2;

  mpisim::run_spmd(ranks, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    const bool root = comm.is_root();

    auto rho_r = imaging::brain_phantom(decomp, /*subject=*/1);
    auto rho_t = imaging::brain_phantom(decomp, /*subject=*/2);

    core::RegistrationOptions opt;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 15;
    core::RegistrationSolver solver(decomp, opt);

    core::ContinuationOptions copt;
    copt.beta_start = 1e-1;
    copt.beta_target = 1e-3;
    auto cont = core::run_beta_continuation(solver, rho_t, rho_r, copt);

    if (root) {
      std::printf("brain registration (multi-subject phantoms), %lldx%lldx%lld\n",
                  static_cast<long long>(dims[0]),
                  static_cast<long long>(dims[1]),
                  static_cast<long long>(dims[2]));
      for (std::size_t s = 0; s < cont.stages.size(); ++s)
        std::printf("  stage %zu: beta %.1e  rel residual %.3f  min det %.3f\n",
                    s, cont.stages[s].beta, cont.stages[s].rel_residual,
                    cont.stages[s].min_det);
      std::printf("  accepted beta %.1e, rel residual %.3f, det in [%.3f, %.3f]\n",
                  cont.final_beta, cont.best.rel_residual, cont.best.min_det,
                  cont.best.max_det);
    }

    // Fig. 6/7 panels.
    grid::ScalarField deformed, det;
    solver.deform_template(rho_t, cont.best.velocity, deformed);
    solver.jacobian_field(cont.best.velocity, det);

    const index_t n = decomp.local_real_size();
    grid::ScalarField res_before(n), res_after(n);
    for (index_t i = 0; i < n; ++i) {
      res_before[i] = std::abs(rho_t[i] - rho_r[i]);
      res_after[i] = std::abs(deformed[i] - rho_r[i]);
    }

    auto dump = [&](const grid::ScalarField& f, const char* name, real_t lo,
                    real_t hi) {
      auto full = grid::gather_to_root(decomp, f);
      if (root) {
        const index_t slice = dims[0] / 2;
        imaging::write_pgm_slice(std::string("brain_") + name + ".pgm", dims,
                                 full, slice, lo, hi);
      }
    };
    dump(rho_r, "reference", 0, 1);
    dump(rho_t, "template", 0, 1);
    dump(res_before, "residual_before", 0, 1);
    dump(res_after, "residual_after", 0, 1);
    dump(det, "det_grad_y", 0, 2);  // paper's Fig. 7 color scale [0, 2]
    dump(deformed, "deformed_template", 0, 1);
    if (root)
      std::printf("  wrote brain_*.pgm slice panels (axial slice %lld)\n",
                  static_cast<long long>(dims[0] / 2));
  });
  return 0;
}

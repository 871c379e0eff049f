// Multilevel continuation trajectory reporter: times a cold single-level
// solve against the 3-level coarse-to-fine pyramid on the same registration
// problem (both to the same gtol), and the spectral smoother against the
// two-level coarse-grid Hessian preconditioner at small beta. One JSON
// record per configuration goes to BENCH_continuation.json for the CI
// bench-regression gate (bench/check_regression.py): wall times are gated
// with a tolerance, Krylov/matvec counts (*_iters) with a smaller one, and
// the resample exchange counter exactly.
//
// Usage: continuation_report [output.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/continuation.hpp"
#include "imaging/synthetic.hpp"
#include "mpisim/communicator.hpp"
#include "spectral/resample.hpp"

using namespace diffreg;

namespace {

int krylov_total(const core::RegistrationResult& r) {
  int total = 0;
  for (const auto& e : r.newton.log) total += e.krylov_iterations;
  return total;
}

struct PyramidRecord {
  index_t n = 0;
  int p = 0;
  double single_ms = 0, pyramid_ms = 0;
  int single_converged = 0, pyramid_converged = 0;
  int single_matvecs = 0, pyramid_matvecs = 0;  // pyramid: all levels
  std::uint64_t resample_exchanges = 0;  // per 3-component apply (exact)
};

/// Cold full-resolution solve vs the 3-level pyramid, both at beta = 1e-3 —
/// the low-beta regime grid continuation exists for.
PyramidRecord run_pyramid_case(index_t n, int p) {
  PyramidRecord rec;
  rec.n = n;
  rec.p = p;
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp fine(comm, {n, n, n});
    spectral::SpectralOps ops(fine);
    auto rho_t = imaging::synthetic_template(fine);
    auto v_star = imaging::synthetic_velocity(fine, 0.6);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-3;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 20;

    WallTimer t1;
    core::RegistrationSolver cold_solver(fine, opt);
    auto cold = cold_solver.run(rho_t, rho_r);
    const double single_s = t1.seconds();

    WallTimer t2;
    core::MultilevelOptions mopt;
    mopt.levels = 3;
    mopt.coarsest_dim = 8;
    auto ml = core::run_multilevel_continuation(fine, opt, rho_t, rho_r,
                                                mopt);
    const double pyramid_s = t2.seconds();

    // Exchange cost of one batched 3-component grid transfer: 2 forward +
    // 1 remap + 2 inverse alltoallv, a deterministic property of the plan.
    grid::PencilDecomp coarse(comm, spectral::coarsen_dims(fine.dims(), 8),
                              fine.p1(), fine.p2());
    spectral::SpectralOps coarse_ops(coarse);
    spectral::ResamplePlan plan(ops, coarse_ops);
    grid::VectorField vec_out;
    const auto before = comm.timings().exchanges(TimeKind::kFftComm);
    plan.apply(cold.velocity, vec_out);
    const auto exchanges =
        comm.timings().exchanges(TimeKind::kFftComm) - before;

    if (comm.is_root()) {
      rec.single_ms = single_s * 1e3;
      rec.pyramid_ms = pyramid_s * 1e3;
      rec.single_converged = cold.newton.converged ? 1 : 0;
      rec.pyramid_converged = ml.fine.newton.converged ? 1 : 0;
      rec.single_matvecs = cold.newton.total_matvecs;
      for (const auto& lev : ml.solves) rec.pyramid_matvecs += lev.matvecs;
      rec.resample_exchanges = exchanges;
    }
  });
  return rec;
}

struct PrecondRecord {
  index_t n = 0;
  int p = 0;
  double smooth_ms = 0, two_level_ms = 0;
  int smooth_krylov = 0, two_level_krylov = 0;
  int two_level_coarse_matvecs = 0;
  int smooth_converged = 0, two_level_converged = 0;
};

/// Spectral smoother alone vs smoother + coarse-grid Hessian correction at
/// beta = 1e-3 (where the smoother's low band degrades).
PrecondRecord run_precond_case(index_t n, int p) {
  PrecondRecord rec;
  rec.n = n;
  rec.p = p;
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, {n, n, n});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-3;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 12;

    WallTimer t1;
    core::RegistrationSolver smooth_solver(decomp, opt);
    auto smooth = smooth_solver.run(rho_t, rho_r);
    const double smooth_s = t1.seconds();

    opt.two_level_precond = true;
    WallTimer t2;
    core::RegistrationSolver two_level_solver(decomp, opt);
    auto two_level = two_level_solver.run(rho_t, rho_r);
    const double two_level_s = t2.seconds();

    if (comm.is_root()) {
      rec.smooth_ms = smooth_s * 1e3;
      rec.two_level_ms = two_level_s * 1e3;
      rec.smooth_krylov = krylov_total(smooth);
      rec.two_level_krylov = krylov_total(two_level);
      rec.two_level_coarse_matvecs = two_level.coarse_matvecs;
      rec.smooth_converged = smooth.newton.converged ? 1 : 0;
      rec.two_level_converged = two_level.newton.converged ? 1 : 0;
    }
  });
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_continuation.json";

  const PyramidRecord pyr = run_pyramid_case(48, 2);
  const PrecondRecord pre = run_precond_case(32, 2);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "continuation_report: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"continuation\",\n  \"flags\": \"%s\",\n"
               "  \"records\": [\n",
               bench::arch_flags());
  std::fprintf(
      f,
      "    {\"case\": \"pyramid3_beta1e-3\", \"size\": %lld, \"ranks\": %d, "
      "\"single_level_ms\": %.2f, \"pyramid_ms\": %.2f, "
      "\"single_converged\": %d, \"pyramid_converged\": %d, "
      "\"single_matvecs_iters\": %d, \"pyramid_total_matvecs_iters\": %d, "
      "\"resample_exchanges_per_vec3_apply\": %llu},\n",
      static_cast<long long>(pyr.n), pyr.p, pyr.single_ms, pyr.pyramid_ms,
      pyr.single_converged, pyr.pyramid_converged, pyr.single_matvecs,
      pyr.pyramid_matvecs,
      static_cast<unsigned long long>(pyr.resample_exchanges));
  std::fprintf(
      f,
      "    {\"case\": \"two_level_precond_beta1e-3\", \"size\": %lld, "
      "\"ranks\": %d, \"smooth_ms\": %.2f, \"two_level_ms\": %.2f, "
      "\"smooth_krylov_iters\": %d, \"two_level_krylov_iters\": %d, "
      "\"two_level_coarse_matvecs_iters\": %d, \"smooth_converged\": %d, "
      "\"two_level_converged\": %d}\n",
      static_cast<long long>(pre.n), pre.p, pre.smooth_ms, pre.two_level_ms,
      pre.smooth_krylov, pre.two_level_krylov, pre.two_level_coarse_matvecs,
      pre.smooth_converged, pre.two_level_converged);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf(
      "pyramid %lld^3 p=%d: single %.0f ms (%d matvecs) vs 3-level %.0f ms "
      "(%d matvecs across levels), converged %d/%d, %llu exchanges per "
      "vec3 resample\n",
      static_cast<long long>(pyr.n), pyr.p, pyr.single_ms, pyr.single_matvecs,
      pyr.pyramid_ms, pyr.pyramid_matvecs, pyr.single_converged,
      pyr.pyramid_converged,
      static_cast<unsigned long long>(pyr.resample_exchanges));
  std::printf(
      "precond %lld^3 p=%d beta=1e-3: smoother %.0f ms / %d krylov vs "
      "two-level %.0f ms / %d krylov (+%d coarse matvecs), converged %d/%d\n",
      static_cast<long long>(pre.n), pre.p, pre.smooth_ms, pre.smooth_krylov,
      pre.two_level_ms, pre.two_level_krylov, pre.two_level_coarse_matvecs,
      pre.smooth_converged, pre.two_level_converged);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

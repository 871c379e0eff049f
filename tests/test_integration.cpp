// Cross-module integration tests and ablations:
//  * tricubic vs trilinear accuracy in the transport solve (paper section
//    III-B2: cubic interpolation is needed because interpolation errors
//    accumulate across time steps without a dt factor);
//  * full registration on anisotropic, non-power-of-two grids (the paper's
//    256x300x256 class via the mixed-radix FFT path);
//  * registration recovers a known ground-truth deformation (self
//    consistency: warping the template with the recovered velocity matches
//    the reference);
//  * warm starting reduces work (the mechanism behind beta continuation);
//  * Hessian matvec consistency between Gauss-Newton and full Newton at a
//    ground-truth-consistent iterate (at the solution lam = 0 makes the
//    extra full-Newton terms vanish).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/diffreg.hpp"
#include "imaging/metrics.hpp"
#include "imaging/synthetic.hpp"

namespace diffreg {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;
using grid::VectorField;

TEST(Ablation, TricubicBeatsTrilinearInTransportAccuracy) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {32, 32, 32});
    spectral::SpectralOps ops(decomp);
    // Constant velocity: exact solution is a pure translation.
    const Vec3 c{0.61, -0.37, 0.29};
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      for (auto& val : v[d]) val = c[d];

    const Int3 dims = decomp.dims();
    const Int3 ld = decomp.local_real_dims();
    const real_t h = kTwoPi / dims[0];
    ScalarField rho0(decomp.local_real_size());
    index_t idx = 0;
    for (index_t a = 0; a < ld[0]; ++a)
      for (index_t b = 0; b < ld[1]; ++b)
        for (index_t cc = 0; cc < ld[2]; ++cc, ++idx)
          rho0[idx] = std::sin((decomp.range1().begin + a) * h) *
                      std::cos(2 * (decomp.range2().begin + b) * h) *
                      std::sin(cc * h);

    auto solve_error = [&](interp::Method method) {
      semilag::TransportConfig tc;
      tc.nt = 8;
      tc.method = method;
      semilag::Transport transport(ops, tc);
      transport.set_velocity(v);
      transport.solve_state(rho0);
      // Analytic solution rho0(x - c).
      real_t err = 0;
      index_t i = 0;
      for (index_t a = 0; a < ld[0]; ++a)
        for (index_t b = 0; b < ld[1]; ++b)
          for (index_t cc = 0; cc < ld[2]; ++cc, ++i) {
            const real_t exact =
                std::sin((decomp.range1().begin + a) * h - c[0]) *
                std::cos(2 * ((decomp.range2().begin + b) * h - c[1])) *
                std::sin(cc * h - c[2]);
            err = std::max(err, std::abs(transport.final_state()[i] - exact));
          }
      return comm.allreduce_max(err);
    };

    const real_t cubic_err = solve_error(interp::Method::kTricubic);
    const real_t linear_err = solve_error(interp::Method::kTrilinear);
    // The paper's reason for tricubic: at this resolution the accumulated
    // linear-interpolation error is at least an order of magnitude worse.
    EXPECT_LT(cubic_err * 10, linear_err)
        << "cubic " << cubic_err << " linear " << linear_err;
  });
}

TEST(Integration, AnisotropicNonPowerOfTwoGridRegisters) {
  // 20x24x20 exercises uneven pencil blocks and the mixed-radix FFT
  // (24 = 2^3 * 3, 20 = 2^2 * 5) — the paper's 256x300x256 shape class.
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {20, 24, 20});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.max_newton_iters = 8;
    core::RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);
    EXPECT_LT(result.rel_residual, 0.7);
    EXPECT_GT(result.min_det, 0.0);
  });
}

TEST(Integration, RecoveredVelocityWarpsTemplateOntoReference) {
  // Self-consistency: deform_template with the recovered velocity must
  // reproduce the solver's own final residual.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-3;
    opt.max_newton_iters = 8;
    core::RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);

    ScalarField deformed;
    solver.deform_template(rho_t, result.velocity, deformed);
    const real_t rel =
        imaging::relative_residual(decomp, deformed, rho_r, rho_t);
    // deform_template uses the unsmoothed template while the solver works
    // on smoothed images, so allow a modest gap.
    EXPECT_LT(rel, result.rel_residual + 0.15);
    EXPECT_LT(rel, 0.6);
  });
}

TEST(Integration, WarmStartReducesNewtonWork) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.max_newton_iters = 10;
    core::RegistrationSolver solver(decomp, opt);

    auto cold = solver.run(rho_t, rho_r);
    // Warm start from the converged velocity: should terminate almost
    // immediately with no additional matvec work.
    auto warm = solver.run(rho_t, rho_r, &cold.velocity);
    EXPECT_LE(warm.newton.total_matvecs, cold.newton.total_matvecs);
    EXPECT_LE(warm.newton.iterations, 1);
  });
}

TEST(Integration, FullNewtonMatchesGaussNewtonAtPerfectFit) {
  // With rho_R = rho_T and v = 0 the adjoint vanishes, so the full-Newton
  // extra terms are zero and both matvecs must agree.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    spectral::SpectralOps ops(decomp);
    auto rho = imaging::synthetic_template(decomp);

    auto matvec_with = [&](bool gauss_newton) {
      semilag::TransportConfig tc;
      semilag::Transport transport(ops, tc);
      core::Regularization reg(ops, core::RegType::kH2Seminorm, 1e-2);
      core::OptimalitySystem system(ops, transport, reg, rho, rho, false,
                                    gauss_newton);
      VectorField v(decomp.local_real_size());
      system.evaluate(v);
      VectorField g(decomp.local_real_size());
      system.gradient(g);
      auto dir = imaging::synthetic_velocity(decomp, 0.3);
      VectorField out(decomp.local_real_size());
      system.hessian_matvec(dir, out);
      return out;
    };

    auto gn = matvec_with(true);
    auto full = matvec_with(false);
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < gn[d].size(); ++i)
        ASSERT_NEAR(gn[d][i], full[d][i], 1e-10);
  });
}

TEST(Integration, SmoothingControlsNonSmoothInputs) {
  // A discontinuous (binary sphere) input: without spectral smoothing the
  // registration still runs, with smoothing the residual is at least as
  // good and the map stays diffeomorphic (paper section III-B1 motivates
  // the Gaussian pre-smoothing).
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {24, 24, 24});
    const Vec3 c{kTwoPi / 2, kTwoPi / 2, kTwoPi / 2};
    auto rho_t = imaging::sphere_phantom(decomp, c, 1.2, 0.02);  // sharp edge
    const Vec3 c2{kTwoPi / 2 + 0.35, kTwoPi / 2 - 0.2, kTwoPi / 2};
    auto rho_r = imaging::sphere_phantom(decomp, c2, 1.2, 0.02);

    core::RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.max_newton_iters = 8;
    opt.smooth_inputs = true;
    core::RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);
    EXPECT_LT(result.rel_residual, 0.8);
    EXPECT_GT(result.min_det, 0.0);
  });
}

TEST(Integration, TimingCategoriesAreAllExercisedByASolve) {
  auto timings = mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.4);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);
    core::RegistrationOptions opt;
    opt.max_newton_iters = 2;
    core::RegistrationSolver solver(decomp, opt);
    solver.run(rho_t, rho_r);
  });
  Timings max;
  for (const auto& t : timings) max.max_with(t);
  EXPECT_GT(max.get(TimeKind::kFftComm), 0.0);
  EXPECT_GT(max.get(TimeKind::kFftExec), 0.0);
  EXPECT_GT(max.get(TimeKind::kInterpComm), 0.0);
  EXPECT_GT(max.get(TimeKind::kInterpExec), 0.0);
}

/// Thrown by the kill-switch iterate hook below: models a job dying
/// mid-continuation (every rank throws at the same accepted iterate).
struct KillSwitch : std::runtime_error {
  KillSwitch() : std::runtime_error("kill switch") {}
};

TEST(Integration, CheckpointResumeReproducesTheContinuationRun) {
  // The checkpoint/restart acceptance test: a 3-level 48^3 continuation is
  // (1) run uninterrupted for reference, (2) killed right after the first
  // accepted Newton iterate past the coarsest level with --checkpoint-every
  // 1, and (3) resumed from the surviving checkpoint. Newton state is fully
  // determined by (velocity, options), so the resumed run must converge to
  // the same gtol with the same final-level Newton iterate count — and in
  // this thread-backed deterministic runtime, a bitwise-identical velocity.
  const std::string ckpt = ::testing::TempDir() + "diffreg_resume_test.ckpt";
  core::RegistrationOptions opt;
  opt.beta = 1e-2;
  opt.gtol = 1e-2;
  opt.max_newton_iters = 10;
  core::MultilevelOptions mopt;
  mopt.levels = 3;
  mopt.coarsest_dim = 8;

  auto body = [&](mpisim::Communicator& comm, const core::MultilevelOptions&
                                                  run_mopt,
                  core::MultilevelResult& out) {
    PencilDecomp decomp(comm, {48, 48, 48});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);
    out = core::run_multilevel_continuation(decomp, opt, rho_t, rho_r,
                                            run_mopt);
  };

  // (1) Uninterrupted reference.
  core::MultilevelResult ref;
  int ref_coarsest_iters = 0;
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    core::MultilevelResult ml;
    body(comm, mopt, ml);
    if (comm.is_root()) {
      ref = std::move(ml);
      ref_coarsest_iters = ref.solves.front().newton_iters;
    }
  });
  ASSERT_TRUE(ref.fine.newton.converged);
  ASSERT_GE(ref_coarsest_iters, 1);

  // (2) Kill the run at the first accepted iterate past the coarsest level.
  const int kill_at = ref_coarsest_iters + 1;
  EXPECT_THROW(
      mpisim::run_spmd(2,
                       [&](mpisim::Communicator& comm) {
                         core::MultilevelOptions kmopt = mopt;
                         kmopt.checkpoint_path = ckpt;
                         kmopt.checkpoint_every = 1;
                         core::RegistrationOptions kopt = opt;
                         int accepted = 0;  // per-rank, advances in lockstep
                         kopt.iterate_hook =
                             [&](const core::NewtonIterateInfo&) {
                               if (++accepted == kill_at) throw KillSwitch();
                             };
                         PencilDecomp decomp(comm, {48, 48, 48});
                         spectral::SpectralOps ops(decomp);
                         auto rho_t = imaging::synthetic_template(decomp);
                         auto v_star = imaging::synthetic_velocity(decomp,
                                                                   0.5);
                         auto rho_r =
                             imaging::make_reference(ops, rho_t, v_star);
                         core::run_multilevel_continuation(decomp, kopt,
                                                           rho_t, rho_r,
                                                           kmopt);
                       }),
      KillSwitch);

  // (3) Resume from the surviving checkpoint and compare.
  core::MultilevelResult resumed;
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    core::MultilevelOptions rmopt = mopt;
    rmopt.resume_path = ckpt;
    core::MultilevelResult ml;
    body(comm, rmopt, ml);
    if (comm.is_root()) resumed = std::move(ml);
  });

  EXPECT_TRUE(resumed.fine.newton.converged);
  EXPECT_EQ(resumed.fine.newton.iterations, ref.fine.newton.iterations);
  EXPECT_DOUBLE_EQ(resumed.fine.newton.final_gradient_norm,
                   ref.fine.newton.final_gradient_norm);
  EXPECT_DOUBLE_EQ(resumed.gradient_reference, ref.gradient_reference);
  ASSERT_EQ(resumed.fine.velocity.local_size(),
            ref.fine.velocity.local_size());
  for (int d = 0; d < 3; ++d)
    for (size_t i = 0; i < ref.fine.velocity[d].size(); ++i)
      ASSERT_EQ(resumed.fine.velocity[d][i], ref.fine.velocity[d][i])
          << "d=" << d << " i=" << i;
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace diffreg

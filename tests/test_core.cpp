// Core solver tests: regularization functional values, PCG on a known SPD
// system, finite-difference gradient check of the reduced gradient, Hessian
// symmetry/positive-definiteness, Newton convergence on the synthetic
// problem, the incompressibility invariants, beta continuation, and the
// rigid baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"
#include "mutate.hpp"

namespace diffreg::core {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;
using grid::VectorField;

template <typename F>
ScalarField fill(PencilDecomp& d, F&& f) {
  const Int3 dims = d.dims();
  const Int3 ld = d.local_real_dims();
  const real_t h1 = kTwoPi / dims[0], h2 = kTwoPi / dims[1],
               h3 = kTwoPi / dims[2];
  ScalarField out(d.local_real_size());
  index_t idx = 0;
  for (index_t a = 0; a < ld[0]; ++a)
    for (index_t b = 0; b < ld[1]; ++b)
      for (index_t c = 0; c < ld[2]; ++c, ++idx)
        out[idx] = f((d.range1().begin + a) * h1, (d.range2().begin + b) * h2,
                     c * h3);
  return out;
}

TEST(Regularization, H1SeminormMatchesAnalyticValue) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    // v = (sin x1, 0, 0): ||grad v||^2 = integral cos^2 x1 = (2 pi)^3 / 2.
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t x1, real_t, real_t) { return std::sin(x1); });
    const real_t beta = 0.37;
    Regularization reg(ops, RegType::kH1Seminorm, beta);
    const real_t expected = 0.5 * beta * kTwoPi * kTwoPi * kTwoPi / 2;
    EXPECT_NEAR(reg.evaluate(v), expected, 1e-9 * expected);
  });
}

TEST(Regularization, H2SeminormMatchesAnalyticValue) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    // v = (sin(2 x2), 0, 0): lap v = -4 v, <v, lap^2 v> = 16 ||v||^2
    //                        = 16 (2 pi)^3 / 2.
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t, real_t x2, real_t) {
      return std::sin(2 * x2);
    });
    const real_t beta = 0.1;
    Regularization reg(ops, RegType::kH2Seminorm, beta);
    const real_t expected = 0.5 * beta * 16 * kTwoPi * kTwoPi * kTwoPi / 2;
    EXPECT_NEAR(reg.evaluate(v), expected, 1e-9 * expected);
  });
}

TEST(Regularization, InvertIsInverseOfApplyOnZeroMeanFields) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    spectral::SpectralOps ops(decomp);
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t x1, real_t, real_t) { return std::sin(x1); });
    v[1] = fill(decomp, [](real_t, real_t x2, real_t x3) {
      return std::cos(x2) * std::sin(x3);
    });
    v[2] = fill(decomp,
                [](real_t x1, real_t, real_t x3) { return std::sin(x1 + x3); });
    for (RegType type : {RegType::kH1Seminorm, RegType::kH2Seminorm}) {
      Regularization reg(ops, type, 3.5);
      VectorField av(v.local_size()), back(v.local_size());
      reg.apply(v, av);
      reg.invert(av, back);
      for (int d = 0; d < 3; ++d)
        for (size_t i = 0; i < back[d].size(); ++i)
          ASSERT_NEAR(back[d][i], v[d][i], 1e-9);
    }
  });
}

TEST(Pcg, SolvesSpdSystemAndExactPreconditionerConvergesInOneIteration) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    spectral::SpectralOps ops(decomp);
    // SPD operator A = 2 I + (-lap); exact inverse available spectrally? Not
    // directly — use A = beta (-lap)^2 with the seminorm trick on zero-mean
    // fields, where Regularization::invert is the exact inverse.
    Regularization reg(ops, RegType::kH2Seminorm, 2.0);
    VectorField x_true(decomp.local_real_size());
    x_true[0] = fill(decomp, [](real_t x1, real_t, real_t) {
      return std::sin(x1);
    });
    x_true[1] = fill(decomp, [](real_t, real_t x2, real_t) {
      return std::sin(2 * x2);
    });
    x_true[2] = fill(decomp, [](real_t, real_t, real_t x3) {
      return std::cos(x3);
    });
    VectorField b(x_true.local_size());
    reg.apply(x_true, b);

    // Identity preconditioner: still converges, more iterations. No split:
    // all of the operator is D, and the preconditioners report B z = 0.
    VectorField x(x_true.local_size());
    auto apply_a = [&](const VectorField& in, VectorField& out) {
      reg.apply(in, out);
    };
    auto apply_id = [&](const VectorField& in, VectorField& out,
                        VectorField& az) {
      out = in;
      az.fill(0);
    };
    PcgWorkspace ws;
    PcgResult plain =
        pcg_solve(decomp, apply_a, apply_id, b, x, 1e-10, 200, ws);
    EXPECT_TRUE(plain.converged);
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < x[d].size(); ++i)
        ASSERT_NEAR(x[d][i], x_true[d][i], 1e-6);
    // A second solve through the same workspace is bitwise identical: stale
    // workspace contents do not leak into the iteration.
    VectorField again;
    EXPECT_EQ(pcg_solve(decomp, apply_a, apply_id, b, again, 1e-10, 200, ws)
                  .iterations,
              plain.iterations);
    for (int d = 0; d < 3; ++d) ASSERT_EQ(again[d], x[d]);

    // Exact preconditioner: one iteration.
    auto apply_m = [&](const VectorField& in, VectorField& out,
                       VectorField& az) {
      reg.invert(in, out);
      az.fill(0);
    };
    PcgResult precond =
        pcg_solve(decomp, apply_a, apply_m, b, x, 1e-10, 200, ws);
    EXPECT_TRUE(precond.converged);
    EXPECT_LE(precond.iterations, 2);
  });
}

TEST(Pcg, ZeroRhsReturnsZero) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    spectral::SpectralOps ops(decomp);
    Regularization reg(ops, RegType::kH1Seminorm, 1.0);
    VectorField b(decomp.local_real_size()), x;
    auto apply_a = [&](const VectorField& in, VectorField& out) {
      reg.apply(in, out);
    };
    auto apply_id = [&](const VectorField& in, VectorField& out,
                        VectorField& az) {
      out = in;
      az.fill(0);
    };
    PcgWorkspace ws;
    PcgResult r = pcg_solve(decomp, apply_a, apply_id, b, x, 1e-8, 10, ws);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(grid::norm_inf(decomp, x), 0.0);
  });
}

// --------------------------------------------------------------------------
// Optimality system.

struct SystemParts {
  std::unique_ptr<spectral::SpectralOps> ops;
  std::unique_ptr<semilag::Transport> transport;
  std::unique_ptr<Regularization> reg;
  std::unique_ptr<OptimalitySystem> system;
};

SystemParts make_system(PencilDecomp& decomp, bool incompressible,
                        bool gauss_newton, real_t beta) {
  SystemParts parts;
  parts.ops = std::make_unique<spectral::SpectralOps>(decomp);
  semilag::TransportConfig tc;
  tc.nt = 4;
  tc.incompressible = incompressible;
  parts.transport = std::make_unique<semilag::Transport>(*parts.ops, tc);
  parts.reg = std::make_unique<Regularization>(*parts.ops,
                                               RegType::kH2Seminorm, beta);
  auto rho_t = imaging::synthetic_template(decomp);
  auto v_star = incompressible
                    ? imaging::synthetic_velocity_divfree(decomp, 0.4)
                    : imaging::synthetic_velocity(decomp, 0.4);
  auto rho_r = imaging::make_reference(*parts.ops, rho_t, v_star);
  parts.system = std::make_unique<OptimalitySystem>(
      *parts.ops, *parts.transport, *parts.reg, rho_t, rho_r, incompressible,
      gauss_newton);
  return parts;
}

TEST(OptimalitySystem, GradientPassesFiniteDifferenceCheck) {
  // <g(v), d> must match (J(v + eps d) - J(v - eps d)) / (2 eps) up to the
  // optimize-then-discretize inconsistency (a few percent on a 16^3 grid).
  // The directions d = v and d = g are far from orthogonal to g, so the
  // directional derivative is large and a sign or scale error in g fails
  // the relative bound; |fd| must also stand far above the rounding of the
  // difference quotient.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    auto parts = make_system(decomp, false, true, 1e-2);
    auto& system = *parts.system;

    const VectorField v = imaging::synthetic_velocity(decomp, 0.2);
    const real_t j0 = system.evaluate(v);
    VectorField g(decomp.local_real_size());
    system.gradient(g);

    const real_t eps = 1e-4;
    const VectorField* directions[] = {&v, &g};
    for (const VectorField* d : directions) {
      const real_t gd = grid::dot(decomp, g, *d);
      VectorField vp = v, vm = v;
      grid::axpy(eps, *d, vp);
      grid::axpy(-eps, *d, vm);
      const real_t jp = system.evaluate(vp);
      const real_t jm = system.evaluate(vm);
      const real_t fd = (jp - jm) / (2 * eps);

      EXPECT_GT(std::abs(fd), 1e-6 * std::abs(j0) / eps)
          << (d == &v ? "d = v" : "d = g") << ": fd " << fd;
      EXPECT_NEAR(gd, fd, 0.05 * std::abs(fd))
          << (d == &v ? "d = v" : "d = g") << ": analytic " << gd << " fd "
          << fd;
    }
  });
}

TEST(OptimalitySystem, GradientVanishesAtGroundTruthOnPerfectData) {
  // If rho_R == rho_T the optimum is v = 0 and the gradient there vanishes.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    spectral::SpectralOps ops(decomp);
    semilag::TransportConfig tc;
    semilag::Transport transport(ops, tc);
    Regularization reg(ops, RegType::kH2Seminorm, 1e-2);
    auto rho = imaging::synthetic_template(decomp);
    OptimalitySystem system(ops, transport, reg, rho, rho, false, true);
    VectorField v(decomp.local_real_size());
    system.evaluate(v);
    VectorField g(decomp.local_real_size());
    system.gradient(g);
    EXPECT_LT(grid::norm_l2(decomp, g), 1e-12);
  });
}

TEST(OptimalitySystem, GaussNewtonHessianIsSymmetricAndPositive) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    auto parts = make_system(decomp, false, true, 1e-2);
    auto& system = *parts.system;
    VectorField v = imaging::synthetic_velocity(decomp, 0.2);
    system.evaluate(v);
    VectorField g(decomp.local_real_size());
    system.gradient(g);

    VectorField u = imaging::synthetic_velocity_divfree(decomp, 0.5);
    VectorField w(decomp.local_real_size());
    w[0] = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return std::sin(x1) * std::sin(x2);
    });
    w[1] = fill(decomp, [](real_t, real_t x2, real_t) { return std::cos(x2); });
    w[2] = fill(decomp, [](real_t x1, real_t, real_t x3) {
      return std::cos(x1) * std::sin(x3);
    });

    VectorField hu(decomp.local_real_size()), hw(decomp.local_real_size());
    system.hessian_matvec(u, hu);
    system.hessian_matvec(w, hw);
    const real_t uhw = grid::dot(decomp, u, hw);
    const real_t whu = grid::dot(decomp, w, hu);
    const real_t scale = std::max(std::abs(uhw), std::abs(whu));
    EXPECT_NEAR(uhw, whu, 0.03 * scale + 1e-8);

    // Positive definiteness along both directions.
    EXPECT_GT(grid::dot(decomp, u, hu), 0.0);
    EXPECT_GT(grid::dot(decomp, w, hw), 0.0);
  });
}

TEST(OptimalitySystem, MatvecCountTracksCalls) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    auto parts = make_system(decomp, false, true, 1e-2);
    auto& system = *parts.system;
    VectorField v(decomp.local_real_size());
    system.evaluate(v);
    system.gradient(v);  // reuse v as scratch for g
    VectorField u = imaging::synthetic_velocity(decomp, 0.1), out;
    out = u;
    EXPECT_EQ(system.matvec_count(), 0);
    system.hessian_matvec(u, out);
    system.hessian_matvec(u, out);
    EXPECT_EQ(system.matvec_count(), 2);
    system.reset_matvec_count();
    EXPECT_EQ(system.matvec_count(), 0);
  });
}

TEST(OptimalitySystem, PcgMatvecsReuseOneCachedInterpolationPlan) {
  // The acceptance criterion of the plan-caching tentpole: one evaluate =
  // one plan build; gradient and every Hessian matvec of the Newton
  // iteration reuse it.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    auto parts = make_system(decomp, false, true, 1e-2);
    auto& system = *parts.system;
    auto& transport = *parts.transport;

    VectorField v = imaging::synthetic_velocity(decomp, 0.2);
    system.evaluate(v);
    EXPECT_EQ(transport.plan_build_count(), 1);
    VectorField g(decomp.local_real_size());
    system.gradient(g);
    VectorField u = imaging::synthetic_velocity_divfree(decomp, 0.1);
    VectorField out = u;
    for (int k = 0; k < 5; ++k) system.hessian_matvec(u, out);
    EXPECT_EQ(transport.plan_build_count(), 1)
        << "PCG matvecs must reuse the evaluate()'s cached plan";

    system.evaluate(v);  // line-search restore of the same iterate
    EXPECT_EQ(transport.plan_build_count(), 1);
    grid::axpy(real_t(0.5), u, v);
    system.evaluate(v);  // genuinely new iterate
    EXPECT_EQ(transport.plan_build_count(), 2);
  });
}

// FFT exchanges this rank has entered so far (a vector FFT pair, one
// batched forward and one batched inverse, is 4).
std::uint64_t fft_exchanges(PencilDecomp& decomp) {
  return decomp.comm().timings().exchanges(TimeKind::kFftComm);
}

/// The Newton driver's PCG callbacks: the data term per sweep, and the
/// preconditioner reporting beta A z.
PcgResult split_pcg(OptimalitySystem& system, const VectorField& rhs,
                    VectorField& x, real_t rtol, int max_iters,
                    PcgWorkspace& ws) {
  const auto apply_d = [&](const VectorField& in, VectorField& out) {
    system.data_matvec(in, out);
  };
  const auto apply_m = [&](const VectorField& in, VectorField& z,
                           VectorField& az) {
    system.apply_preconditioner(in, z, &az);
  };
  return pcg_solve(system.decomp(), apply_d, apply_m, rhs, x, rtol, max_iters,
                   ws);
}

TEST(Pcg, GaussNewtonSweepSpendsOneVectorFftPair) {
  // PCG carries beta A p, so a compressible Gauss-Newton sweep's only
  // transforms are the preconditioner's: k sweeps spend 4 (k + 1) FFT
  // exchanges per rank at p = 4 (the first preconditioner application
  // included). Applying beta A to p in every matvec, as hessian_matvec
  // does, spent 4 + 8 k. Incompressible, the matvec adds the Leray
  // projection of b~ and the preconditioner projects in its one pass:
  // 4 + 8 k (it was 8 + 16 k).
  for (bool incompressible : {false, true}) {
    mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
      PencilDecomp decomp(comm, {16, 16, 16});
      auto parts = make_system(decomp, incompressible, true, 1e-2);
      auto& system = *parts.system;
      VectorField v = imaging::synthetic_velocity_divfree(decomp, 0.2);
      system.evaluate(v);
      VectorField g(decomp.local_real_size()), step;
      system.gradient(g);
      grid::scale(real_t(-1), g);
      PcgWorkspace ws;
      constexpr std::uint64_t kSweeps = 3;
      const std::uint64_t before = fft_exchanges(decomp);
      const PcgResult result =
          split_pcg(system, g, step, /*rtol=*/0, kSweeps, ws);
      EXPECT_EQ(result.iterations, static_cast<int>(kSweeps));
      EXPECT_EQ(system.matvec_count(), static_cast<int>(kSweeps));
      EXPECT_EQ(fft_exchanges(decomp) - before,
                incompressible ? 4 + 8 * kSweeps : 4 * (kSweeps + 1))
          << "incompressible = " << incompressible;
    });
  }
}

TEST(Pcg, SplitOperatorMatchesTheWholeOperator) {
  // The same Newton system solved twice: split (D = data term, the
  // preconditioner reports beta A z) and whole (D = H, a zero report). The
  // split changes only how beta A p is formed, so both take the same sweeps
  // to the same step up to rounding (here 7 sweeps, steps 7e-13 apart
  // relative; CG amplifies rounding about 3x per sweep, so tighter
  // tolerances drift further).
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    auto parts = make_system(decomp, false, true, 1e-2);
    auto& system = *parts.system;
    VectorField v = imaging::synthetic_velocity(decomp, 0.2);
    system.evaluate(v);
    VectorField rhs(decomp.local_real_size());
    system.gradient(rhs);
    grid::scale(real_t(-1), rhs);

    PcgWorkspace ws;
    VectorField split_step, whole_step;
    const PcgResult split =
        split_pcg(system, rhs, split_step, 1e-4, 100, ws);
    const auto apply_h = [&](const VectorField& in, VectorField& out) {
      system.hessian_matvec(in, out);
    };
    const auto apply_m = [&](const VectorField& in, VectorField& z,
                             VectorField& az) {
      system.apply_preconditioner(in, z);
      az.fill(0);
    };
    const PcgResult whole =
        pcg_solve(decomp, apply_h, apply_m, rhs, whole_step, 1e-4, 100, ws);
    EXPECT_TRUE(split.converged);
    EXPECT_GT(split.iterations, 4);
    EXPECT_EQ(split.iterations, whole.iterations);
    // Residuals relative to ||r_0||, so this bound is relative too.
    EXPECT_NEAR(split.rel_residual, whole.rel_residual, 1e-10);
    VectorField diff = split_step;
    grid::axpy(real_t(-1), whole_step, diff);
    EXPECT_LE(grid::norm_inf(decomp, diff),
              1e-10 * grid::norm_inf(decomp, whole_step));
  });
}

TEST(OptimalitySystem, GradientReusesTheEvaluatedRegularization) {
  // gradient() takes beta A v from the A v evaluate() computed for J_reg:
  // the result is bitwise the adjoint term plus a fresh beta A v, and its
  // only transforms are the nt + 1 state gradients (4 exchanges each at
  // p = 4), not one more vector pair for beta A v.
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    auto parts = make_system(decomp, false, true, 1e-2);
    auto& system = *parts.system;
    const index_t n = decomp.local_real_size();
    VectorField v = imaging::synthetic_velocity(decomp, 0.2);
    system.evaluate(v);
    VectorField g(n);
    const std::uint64_t before = fft_exchanges(decomp);
    system.gradient(g);
    EXPECT_EQ(fft_exchanges(decomp) - before, 4u * (4 + 1));

    // The same gradient assembled the long way.
    ScalarField lam;
    system.final_residual(lam);
    for (auto& x : lam) x = -x;
    VectorField expected, reg_term;
    parts.transport->solve_adjoint(lam, expected);
    parts.reg->apply(v, reg_term);
    grid::axpy(real_t(1), reg_term, expected);
    for (int d = 0; d < 3; ++d) ASSERT_EQ(g[d], expected[d]);
  });
}

TEST(Newton, ReportsPlanBuildsWellBelowMatvecs) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 6;
    RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);

    EXPECT_GT(result.newton.plan_builds, 0);
    // Builds are one per objective evaluation of a new trial velocity —
    // bounded by line-search capacity (12 backtracking steps per iterate,
    // kMaxLineSearch in newton.cpp), NOT by the matvec count. A
    // build-per-matvec regression would blow well past this bound. (The
    // cache-hit contract itself is asserted directly in
    // PcgMatvecsReuseOneCachedInterpolationPlan.)
    EXPECT_LE(result.newton.plan_builds, 12 * result.newton.iterations + 2);
    EXPECT_GT(result.newton.total_matvecs, result.newton.plan_builds);
  });
}

// --------------------------------------------------------------------------
// Newton solver end to end.

class NewtonRanks : public ::testing::TestWithParam<int> {};

TEST_P(NewtonRanks, ConvergesOnSyntheticProblem) {
  const int p = GetParam();
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 10;
    RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);

    EXPECT_TRUE(result.newton.converged);
    EXPECT_LT(result.rel_residual, 0.6);
    EXPECT_GT(result.min_det, 0.0);
    EXPECT_GT(result.newton.total_matvecs, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, NewtonRanks, ::testing::Values(1, 2, 4));

TEST(Newton, DecompositionInvarianceOfTheSolve) {
  // The full solver must produce the same objective decrease regardless of
  // the process grid (same arithmetic, different partitioning).
  auto run_with = [&](int p) {
    real_t rel = 0;
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      PencilDecomp decomp(comm, {16, 16, 16});
      spectral::SpectralOps ops(decomp);
      auto rho_t = imaging::synthetic_template(decomp);
      auto v_star = imaging::synthetic_velocity(decomp, 0.5);
      auto rho_r = imaging::make_reference(ops, rho_t, v_star);
      RegistrationOptions opt;
      opt.beta = 1e-2;
      opt.max_newton_iters = 3;
      RegistrationSolver solver(decomp, opt);
      auto result = solver.run(rho_t, rho_r);
      if (comm.is_root()) rel = result.rel_residual;
    });
    return rel;
  };
  const real_t serial = run_with(1);
  const real_t parallel = run_with(4);
  EXPECT_NEAR(serial, parallel, 1e-8);
}

TEST(Newton, IncompressibleSolveKeepsInvariants) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity_divfree(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.incompressible = true;
    opt.beta = 1e-2;
    opt.max_newton_iters = 6;
    RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);

    grid::ScalarField div_v;
    ops.divergence(result.velocity, div_v);
    EXPECT_LT(grid::norm_inf(decomp, div_v), 1e-8);
    EXPECT_NEAR(result.min_det, 1.0, 0.05);
    EXPECT_NEAR(result.max_det, 1.0, 0.05);
    EXPECT_LT(result.rel_residual, 0.8);
  });
}

TEST(Newton, FullNewtonAlsoConverges) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.4);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);
    RegistrationOptions opt;
    opt.gauss_newton = false;  // full Newton terms
    opt.beta = 1e-2;
    opt.max_newton_iters = 8;
    RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);
    EXPECT_LT(result.rel_residual, 0.8);
    EXPECT_GT(result.min_det, 0.0);
  });
}

TEST(Newton, SmallerBetaGivesBetterMatchAndMoreWork) {
  // The essence of the paper's Table V: reducing beta increases the number
  // of Hessian matvecs but improves the data fit.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    auto solve_with_beta = [&](real_t beta) {
      RegistrationOptions opt;
      opt.beta = beta;
      opt.max_newton_iters = 4;
      opt.gtol = 1e-3;
      RegistrationSolver solver(decomp, opt);
      return solver.run(rho_t, rho_r);
    };
    auto strong = solve_with_beta(1e-1);
    auto weak = solve_with_beta(1e-4);
    EXPECT_LT(weak.rel_residual, strong.rel_residual);
    EXPECT_GE(weak.newton.total_matvecs, strong.newton.total_matvecs);
  });
}

TEST(Continuation, ReducesBetaAndImprovesFit) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.max_newton_iters = 4;
    RegistrationSolver solver(decomp, opt);
    ContinuationOptions copt;
    copt.beta_start = 1e-1;
    copt.beta_target = 1e-3;
    auto cont = run_beta_continuation(solver, rho_t, rho_r, copt);

    ASSERT_GE(cont.stages.size(), 2u);
    EXPECT_LT(cont.stages.back().rel_residual,
              cont.stages.front().rel_residual);
    EXPECT_LE(cont.final_beta, copt.beta_start);
    EXPECT_GT(cont.best.min_det, copt.min_det_bound);
    // Betas decrease monotonically across stages.
    for (std::size_t s = 1; s < cont.stages.size(); ++s)
      EXPECT_LT(cont.stages[s].beta, cont.stages[s - 1].beta);
    EXPECT_TRUE(cont.admissible);
  });
}

TEST(Continuation, InadmissibleFirstStageStillReturnsTheStageResult) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.max_newton_iters = 3;
    RegistrationSolver solver(decomp, opt);
    ContinuationOptions copt;
    copt.beta_start = 1e-1;
    copt.beta_target = 1e-3;
    // An impossible det bound: even the first stage is inadmissible. The
    // caller must still get that stage's solve — not a default-constructed
    // result with an empty velocity and final_beta = 0.
    copt.min_det_bound = 10.0;
    auto cont = run_beta_continuation(solver, rho_t, rho_r, copt);

    EXPECT_EQ(cont.stages.size(), 1u);
    EXPECT_FALSE(cont.admissible);
    EXPECT_EQ(cont.final_beta, copt.beta_start);
    EXPECT_EQ(cont.best.velocity.local_size(), decomp.local_real_size());
    EXPECT_GT(cont.best.newton.total_matvecs, 0);
    EXPECT_GT(cont.gradient_reference, 0);
  });
}

// The continuation driver passes per-stage parameters (beta,
// gradient_reference) through each stage's SolveRequest and never touches
// the solver's own options, so the caller's configuration survives every
// exit path by construction — this pins that contract.
TEST(Continuation, RestoresTheSolverOptionsOnEveryExitPath) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.max_newton_iters = 3;
    opt.beta = 0.5;  // sentinel values the driver must not clobber
    opt.gradient_reference = 0;
    RegistrationSolver solver(decomp, opt);
    ContinuationOptions copt;
    copt.beta_start = 1e-1;
    copt.beta_target = 1e-2;

    (void)run_beta_continuation(solver, rho_t, rho_r, copt);
    EXPECT_EQ(solver.options().beta, 0.5);
    EXPECT_EQ(solver.options().gradient_reference, 0.0);

    // Early-exit path (inadmissible first stage) restores too.
    copt.min_det_bound = 10.0;
    (void)run_beta_continuation(solver, rho_t, rho_r, copt);
    EXPECT_EQ(solver.options().beta, 0.5);
    EXPECT_EQ(solver.options().gradient_reference, 0.0);
  });
}

// --------------------------------------------------------------------------
// Deformation statistics.

TEST(Deformation, EmptyRankDoesNotBiasTheDeterminantExtrema) {
  // 3 parts along an axis with 2 slabs: rank 2 owns zero points. The
  // min/max reduction must be seeded with the +-inf identities — a sentinel
  // seed (the old code used 1.0) corrupts the global extrema whenever every
  // true determinant lies on one side of it.
  mpisim::run_spmd(3, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {2, 8, 8}, /*p1=*/3, /*p2=*/1);
    ScalarField det(decomp.local_real_size());
    // All true determinants > 1 (an everywhere-expanding map).
    for (size_t i = 0; i < det.size(); ++i)
      det[i] = real_t(1.5) + real_t(0.01) * static_cast<real_t>(comm.rank());
    DeformationAnalysis stats;
    reduce_determinant_stats(decomp, det, stats);
    EXPECT_GE(stats.min_det, 1.5);
    EXPECT_LE(stats.max_det, 1.51);
    EXPECT_GT(stats.mean_det, 1.0);

    // And the mirrored case: all determinants < 1.
    for (auto& d : det) d = real_t(0.25);
    reduce_determinant_stats(decomp, det, stats);
    EXPECT_EQ(stats.min_det, 0.25);
    EXPECT_EQ(stats.max_det, 0.25);
  });
}

// --------------------------------------------------------------------------
// The two-level preconditioner.

TEST(TwoLevelPreconditioner, ReducesKrylovIterationsAtSmallBeta) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {24, 24, 24});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    // Small beta: the regime where the spectral smoother alone degrades
    // (the data term dominates the low-frequency end of the Hessian).
    RegistrationOptions opt;
    opt.beta = 1e-3;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 8;

    auto krylov_total = [](const RegistrationResult& r) {
      int total = 0;
      for (const auto& e : r.newton.log) total += e.krylov_iterations;
      return total;
    };

    RegistrationSolver smooth_solver(decomp, opt);
    auto smooth = smooth_solver.run(rho_t, rho_r);

    opt.two_level_precond = true;
    RegistrationSolver two_level_solver(decomp, opt);
    auto two_level = two_level_solver.run(rho_t, rho_r);

    EXPECT_LT(krylov_total(two_level), krylov_total(smooth));
    EXPECT_GT(two_level.coarse_matvecs, 0);
    // Same solution quality: both converge to the same problem's optimum.
    EXPECT_TRUE(two_level.newton.converged);
    EXPECT_NEAR(two_level.rel_residual, smooth.rel_residual, 0.05);
    EXPECT_GT(two_level.min_det, 0.0);
  });
}

TEST(TwoLevelPreconditioner, IncompressibleSolveStaysDivergenceFree) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity_divfree(decomp, 0.4);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.gtol = 5e-2;
    opt.max_newton_iters = 5;
    opt.incompressible = true;
    opt.two_level_precond = true;
    RegistrationSolver solver(decomp, opt);
    auto result = solver.run(rho_t, rho_r);

    ScalarField div;
    ops.divergence(result.velocity, div);
    EXPECT_LT(grid::norm_inf(decomp, div), 1e-8);
    EXPECT_LT(result.rel_residual, 1.0);
  });
}

// --------------------------------------------------------------------------
// Rigid baseline.

TEST(Rigid, RecoversPureTranslation) {
  const Int3 dims{24, 24, 24};
  // Serial full images: a blob and its translate.
  auto fill_full = [&](const Vec3& shift) {
    std::vector<real_t> img(dims.prod());
    const real_t h = kTwoPi / 24;
    for (index_t a = 0; a < 24; ++a)
      for (index_t b = 0; b < 24; ++b)
        for (index_t c = 0; c < 24; ++c) {
          const real_t x1 = a * h - shift[0], x2 = b * h - shift[1],
                       x3 = c * h - shift[2];
          img[linear_index(a, b, c, dims)] =
              std::exp(std::cos(x1 - kTwoPi / 2)) *
              std::exp(std::cos(x2 - kTwoPi / 2)) *
              std::exp(std::cos(x3 - kTwoPi / 2));
        }
    return img;
  };
  const Vec3 shift{0.25, -0.15, 0.1};
  auto rho_t = fill_full({0, 0, 0});
  auto rho_r = fill_full(shift);

  RigidRegistration rigid(dims);
  auto result = rigid.run(rho_t, rho_r, 150);
  EXPECT_LT(result.final_residual, 0.1 * result.initial_residual);
  // Recovered translation should be close to the true shift: the template is
  // resampled at y = x + t, matching rho_r(x) = rho_t(x - shift) requires
  // t ~ -shift.
  EXPECT_NEAR(result.params.translation[0], -shift[0], 0.05);
  EXPECT_NEAR(result.params.translation[1], -shift[1], 0.05);
  EXPECT_NEAR(result.params.translation[2], -shift[2], 0.05);
}

TEST(Rigid, IdentityWhenImagesMatch) {
  const Int3 dims{16, 16, 16};
  std::vector<real_t> img(dims.prod());
  for (index_t i = 0; i < dims.prod(); ++i)
    img[i] = std::sin(0.3 * static_cast<real_t>(i % 97));
  RigidRegistration rigid(dims);
  auto result = rigid.run(img, img, 30);
  EXPECT_NEAR(result.final_residual, 0.0, 1e-9);
  EXPECT_NEAR(result.params.translation.norm(), 0.0, 1e-6);
}

// ---- Numerical safeguards (--guard) -------------------------------------

TEST(Pcg, BreakdownFallsBackToAFiniteDirection) {
  // An operator that emits NaNs must trip the breakdown detector on the
  // first sweep and fall back to the (finite) preconditioned gradient
  // instead of iterating on garbage.
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    VectorField b(decomp.local_real_size());
    b.fill(1.0);
    auto apply_nan = [&](const VectorField& in, VectorField& out) {
      out = in;
      out[0][0] = std::numeric_limits<real_t>::quiet_NaN();
    };
    auto apply_id = [&](const VectorField& in, VectorField& out,
                        VectorField& az) {
      out = in;
      az.fill(0);
    };
    VectorField x;
    PcgWorkspace ws;
    PcgResult result =
        pcg_solve(decomp, apply_nan, apply_id, b, x, 1e-6, 50, ws);
    EXPECT_TRUE(result.breakdown);
    EXPECT_EQ(result.iterations, 0);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(grid::count_nonfinite(x), 0);
    // The fallback is the preconditioned gradient: z = M r = b here.
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < x[d].size(); ++i) ASSERT_EQ(x[d][i], b[d][i]);
  });
}

TEST(Guard, ValidateFiniteIsCollective) {
  // A NaN local to rank 1 must throw on BOTH ranks (a one-sided throw would
  // strand the healthy rank in the next collective).
  std::atomic<int> threw{0};
  EXPECT_THROW(
      mpisim::run_spmd(2,
                       [&](mpisim::Communicator& comm) {
                         PencilDecomp decomp(comm, {8, 8, 8});
                         VectorField v(decomp.local_real_size());
                         if (comm.rank() == 1)
                           v[2][3] = std::numeric_limits<
                               real_t>::quiet_NaN();
                         try {
                           grid::validate_finite(decomp, v, "test field");
                         } catch (const grid::NonFiniteFieldError&) {
                           ++threw;
                           throw;
                         }
                       }),
      grid::NonFiniteFieldError);
  EXPECT_EQ(threw.load(), 2);
}

TEST(Guard, ThrowsOnNonFiniteInputImages) {
  // A poisoned template image must surface as NonFiniteFieldError at the
  // first guarded Newton iterate, on every rank, instead of converging to
  // garbage or diverging silently.
  EXPECT_THROW(
      mpisim::run_spmd(2,
                       [&](mpisim::Communicator& comm) {
                         PencilDecomp decomp(comm, {16, 16, 16});
                         spectral::SpectralOps ops(decomp);
                         auto rho_t = imaging::synthetic_template(decomp);
                         auto v_star = imaging::synthetic_velocity(decomp,
                                                                   0.5);
                         auto rho_r =
                             imaging::make_reference(ops, rho_t, v_star);
                         if (comm.rank() == 0)
                           rho_t[1] =
                               std::numeric_limits<real_t>::infinity();
                         RegistrationOptions opt;
                         opt.guard = true;
                         opt.smooth_inputs = false;  // keep the Inf local
                         opt.max_newton_iters = 3;
                         RegistrationSolver solver(decomp, opt);
                         solver.run(rho_t, rho_r);
                       }),
      grid::NonFiniteFieldError);
}

TEST(Guard, UnguardedSolveThrowsOnNonFiniteGradient) {
  // One NaN template voxel makes the reduced gradient norm NaN. Without the
  // guard the solve must still fail on every rank: a NaN norm once read as
  // a relative gradient of 0, i.e. "converged", with rel residual 0.
  for (int p : {1, 4}) {
    std::atomic<int> threw{0};
    EXPECT_THROW(
        mpisim::run_spmd(
            p,
            [&](mpisim::Communicator& comm) {
              PencilDecomp decomp(comm, {16, 16, 16});
              spectral::SpectralOps ops(decomp);
              auto rho_t = imaging::synthetic_template(decomp);
              auto v_star = imaging::synthetic_velocity(decomp, 0.5);
              auto rho_r = imaging::make_reference(ops, rho_t, v_star);
              if (comm.rank() == 0)
                rho_t[1] = std::numeric_limits<real_t>::quiet_NaN();
              RegistrationOptions opt;
              ASSERT_FALSE(opt.guard);
              opt.max_newton_iters = 3;
              RegistrationSolver solver(decomp, opt);
              try {
                solver.run(rho_t, rho_r);
              } catch (const grid::NonFiniteFieldError&) {
                ++threw;
                throw;
              }
            }),
        grid::NonFiniteFieldError)
        << "p=" << p;
    EXPECT_EQ(threw.load(), p);
  }
}

TEST(Guard, GuardedSolveIsBitwiseIdenticalToUnguarded) {
  // On healthy inputs --guard adds sweeps but must not perturb a single
  // bit of the solve (the acceptance criterion for having it default off).
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.max_newton_iters = 5;
    RegistrationSolver plain(decomp, opt);
    auto res_plain = plain.run(rho_t, rho_r);

    opt.guard = true;
    RegistrationSolver guarded(decomp, opt);
    auto res_guarded = guarded.run(rho_t, rho_r);

    EXPECT_EQ(res_guarded.newton.iterations, res_plain.newton.iterations);
    EXPECT_EQ(res_guarded.newton.line_search_recoveries, 0);
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < res_plain.velocity[d].size(); ++i)
        ASSERT_EQ(res_guarded.velocity[d][i], res_plain.velocity[d][i])
            << "d=" << d << " i=" << i;
  });
}

TEST(Newton, IterateHookSeesEveryAcceptedIterate) {
  std::atomic<int> calls{0};
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    RegistrationOptions opt;
    opt.max_newton_iters = 5;
    int local_calls = 0;
    opt.iterate_hook = [&](const NewtonIterateInfo& info) {
      ++local_calls;
      EXPECT_EQ(info.iterates_done, local_calls);
      EXPECT_GT(info.gradient_reference, 0);
      ASSERT_NE(info.velocity, nullptr);
      EXPECT_EQ(grid::count_nonfinite(*info.velocity), 0);
    };
    RegistrationSolver solver(decomp, opt);
    auto res = solver.run(rho_t, rho_r);
    EXPECT_EQ(local_calls, res.newton.iterations);
    calls += local_calls;
  });
  EXPECT_GT(calls.load(), 0);
}

// ---- Checkpoint/restart -------------------------------------------------

TEST(Checkpoint, RoundTripsHeaderAndVelocityBitwise) {
  const std::string path = ::testing::TempDir() + "diffreg_ckpt_rt.bin";
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 10, 8});
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < v[d].size(); ++i)
        v[d][i] = 0.25 * d + 1e-3 * static_cast<real_t>(i) +
                  comm.rank() * 7.5;
    CheckpointHeader hdr;
    hdr.fine_dims = {24, 20, 16};
    hdr.level_dims = decomp.dims();
    hdr.beta = 1e-2;
    hdr.beta_override = 5e-3;
    hdr.gradient_reference = 3.75;
    hdr.admissible = false;
    hdr.newton_iters_done = 4;
    write_checkpoint(decomp, hdr, v, path);

    const CheckpointHeader back = read_checkpoint_header(comm, path);
    EXPECT_EQ(back.fine_dims, hdr.fine_dims);
    EXPECT_EQ(back.level_dims, hdr.level_dims);
    EXPECT_EQ(back.beta, hdr.beta);
    EXPECT_EQ(back.beta_override, hdr.beta_override);
    EXPECT_EQ(back.gradient_reference, hdr.gradient_reference);
    EXPECT_EQ(back.admissible, hdr.admissible);
    EXPECT_EQ(back.newton_iters_done, hdr.newton_iters_done);

    const VectorField got = read_checkpoint_velocity(decomp, path);
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < v[d].size(); ++i)
        ASSERT_EQ(got[d][i], v[d][i]) << "d=" << d << " i=" << i;
  });
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingAndCorruptFilesThrowOnEveryRank) {
  const std::string garbage =
      ::testing::TempDir() + "diffreg_ckpt_garbage.bin";
  {
    std::FILE* f = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a checkpoint at all";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  std::atomic<int> threw{0};
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    try {
      read_checkpoint_header(comm, "/nonexistent/diffreg.ckpt");
    } catch (const CheckpointError&) {
      ++threw;
    }
    try {
      read_checkpoint_velocity(decomp, garbage);
    } catch (const CheckpointError&) {
      ++threw;
    }
  });
  // Both failure modes, on both ranks.
  EXPECT_EQ(threw.load(), 4);
  std::remove(garbage.c_str());
}

TEST(Checkpoint, TruncatedPayloadThrowsOnEveryRank) {
  const std::string path = ::testing::TempDir() + "diffreg_ckpt_trunc.bin";
  std::atomic<int> threw{0};
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    VectorField v(decomp.local_real_size());
    v.fill(1.5);
    CheckpointHeader hdr;
    hdr.fine_dims = decomp.dims();
    hdr.level_dims = decomp.dims();
    write_checkpoint(decomp, hdr, v, path);
    comm.barrier();
    if (comm.is_root()) {
      std::filesystem::resize_file(path, 200);  // header + partial payload
    }
    comm.barrier();
    try {
      read_checkpoint_velocity(decomp, path);
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 2);
  std::remove(path.c_str());
}

// Byte offsets of the DRCK v1 header fields (core/checkpoint.hpp).
constexpr std::size_t kBetaAt = 56, kBetaOverrideAt = 64,
                      kGradientReferenceAt = 72, kAdmissibleAt = 80,
                      kNewtonItersAt = 84, kPayloadAt = 88;
constexpr real_t kNan = std::numeric_limits<real_t>::quiet_NaN();
constexpr real_t kInf = std::numeric_limits<real_t>::infinity();

/// The bytes of a valid checkpoint of an 8^3 grid written on two ranks.
std::string valid_checkpoint_bytes(const std::string& path) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < v[d].size(); ++i)
        v[d][i] = 0.5 * d - 1e-3 * static_cast<real_t>(i);
    CheckpointHeader hdr;
    hdr.fine_dims = {16, 16, 16};
    hdr.level_dims = decomp.dims();
    hdr.beta = 1e-2;
    hdr.gradient_reference = 3.75;
    hdr.newton_iters_done = 2;
    write_checkpoint(decomp, hdr, v, path);
  });
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Writes a valid checkpoint with `value` stored at byte `offset` and reads
/// it back on two ranks: both must throw CheckpointError naming the file.
template <typename T>
void expect_patched_rejected(std::size_t offset, T value) {
  const std::string path = ::testing::TempDir() + "diffreg_ckpt_patched.bin";
  std::string bytes = valid_checkpoint_bytes(path);
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  write_bytes(path, bytes);
  std::atomic<int> threw{0};
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    try {
      read_checkpoint_header(comm, path);
      read_checkpoint_velocity(decomp, path);
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 2) << "offset " << offset << " value " << value;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBetaThatIsNotFiniteAndPositive) {
  for (real_t beta : {-1.0, 0.0, kNan, kInf})
    expect_patched_rejected(kBetaAt, beta);
}

TEST(Checkpoint, RejectsNonFiniteBetaOverride) {
  for (real_t beta_override : {kNan, -kInf})
    expect_patched_rejected(kBetaOverrideAt, beta_override);
}

TEST(Checkpoint, RejectsGradientReferenceThatIsNotFiniteAndNonNegative) {
  for (real_t g : {kNan, kInf, -1.0})
    expect_patched_rejected(kGradientReferenceAt, g);
}

TEST(Checkpoint, RejectsAdmissibleOtherThanZeroOrOne) {
  for (std::int32_t admissible : {7, -1})
    expect_patched_rejected(kAdmissibleAt, admissible);
}

TEST(Checkpoint, RejectsNewtonItersDoneOutsideItsBound) {
  // A count near INT_MAX used to overflow when a resume added the iterates
  // it ran.
  for (std::int32_t iters : {-5, kMaxNewtonIters + 1, 2147483647})
    expect_patched_rejected(kNewtonItersAt, iters);
}

TEST(Checkpoint, RejectsNonFiniteVelocity) {
  for (real_t x : {kNan, kInf})
    expect_patched_rejected(kPayloadAt + 8 * sizeof(real_t), x);
}

TEST(Checkpoint, SeededMutantsReadOrThrowOnEveryRank) {
  // Seeded mutation fuzzing of a DRCK file (tests/mutate.hpp), read on two
  // ranks with the watchdog armed: every mutant reads, on both ranks, to a
  // header a solve can use (and a finite velocity when its grid matches),
  // or throws CheckpointError on both, with no other exception and no hang.
  const std::string path = ::testing::TempDir() + "diffreg_ckpt_fuzz.bin";
  const std::string valid = valid_checkpoint_bytes(path);
  mpisim::SpmdOptions opts;
  opts.comm_timeout_ms = 10000;
  int read = 0, rejected = 0;
  mpisim::run_spmd(
      2,
      [&](mpisim::Communicator& comm) {
        PencilDecomp decomp(comm, {8, 8, 8});
        std::mt19937_64 rng(28);  // the same mutants on both ranks
        for (int k = 0; k < 2000; ++k) {
          const std::string mutant = fuzz::mutate(valid, rng);
          if (comm.rank() == 0) write_bytes(path, mutant);
          comm.barrier();
          index_t outcome = -1;  // -1: rejected, else the iterates done
          try {
            const CheckpointHeader hdr = read_checkpoint_header(comm, path);
            EXPECT_TRUE(std::isfinite(hdr.beta) && hdr.beta > 0) << k;
            EXPECT_TRUE(std::isfinite(hdr.beta_override)) << k;
            EXPECT_TRUE(std::isfinite(hdr.gradient_reference) &&
                        hdr.gradient_reference >= 0)
                << k;
            EXPECT_GE(hdr.newton_iters_done, 0) << k;
            EXPECT_LE(hdr.newton_iters_done, kMaxNewtonIters) << k;
            if (hdr.level_dims == decomp.dims()) {
              EXPECT_EQ(grid::count_nonfinite(
                            read_checkpoint_velocity(decomp, path)),
                        0)
                  << k;
            }
            outcome = hdr.newton_iters_done;
          } catch (const CheckpointError&) {
            outcome = -1;
          }
          const auto all = comm.allgather(outcome);
          ASSERT_EQ(all[0], all[1]) << k;
          if (comm.rank() == 0) ++(outcome < 0 ? rejected : read);
        }
      },
      opts);
  std::remove(path.c_str());
  EXPECT_GT(read, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace diffreg::core

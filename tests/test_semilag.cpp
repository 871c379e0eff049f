// Semi-Lagrangian transport tests: analytic advection solutions, second
// order convergence in time, unconditional stability at large CFL numbers,
// state/adjoint inner-product consistency, incremental solvers as
// directional derivatives, the displacement/deformation map, and the
// transport's heap traffic: warm solves allocate nothing, and the bytes one
// velocity's cycle requests per grid point are bounded.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "core/deformation.hpp"
#include "imaging/synthetic.hpp"
#include "mpisim/communicator.hpp"
#include "semilag/transport.hpp"

// Global allocation counters backing the allocation and footprint tests
// below. Replacing the global operator new/delete pair is the only portable
// way to observe heap traffic; counting is gated so the rest of the suite
// pays one relaxed atomic load per allocation.
namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<long long> g_alloc_bytes{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(static_cast<long long>(size),
                            std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// GCC pairs the std::free here with the replaced operator new above and
// (wrongly) reports a mismatched allocation function when both ends inline
// into the same caller; the pair is malloc/free by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace diffreg::semilag {
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

class TransportRanks : public ::testing::TestWithParam<int> {};

TEST_P(TransportRanks, ConstantVelocityTranslatesExactly) {
  // For constant v the solution is rho(x, 1) = rho0(x - v); with the smooth
  // trig field the only error is O(h^4) interpolation.
  const int p = GetParam();
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {32, 32, 32});
    spectral::SpectralOps ops(decomp);
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);

    const Vec3 c{0.7, -0.4, 0.25};
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      for (auto& val : v[d]) val = c[d];
    transport.set_velocity(v);

    auto rho0 = fill(decomp, [](real_t x1, real_t x2, real_t x3) {
      return std::sin(x1) * std::cos(x2) + 0.5 * std::sin(x3);
    });
    transport.solve_state(rho0);
    auto expected = fill(decomp, [&](real_t x1, real_t x2, real_t x3) {
      return std::sin(x1 - c[0]) * std::cos(x2 - c[1]) +
             0.5 * std::sin(x3 - c[2]);
    });
    const auto& got = transport.final_state();
    for (size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], expected[i], 5e-4) << i;
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, TransportRanks, ::testing::Values(1, 2, 4));

TEST(Transport, SecondOrderConvergenceInTime) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {32, 32, 32});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.8);

    auto solve_with_nt = [&](int nt) {
      TransportConfig tc;
      tc.nt = nt;
      Transport transport(ops, tc);
      transport.set_velocity(v);
      transport.solve_state(rho0);
      return transport.final_state();
    };

    const auto coarse = solve_with_nt(2);
    const auto medium = solve_with_nt(4);
    const auto fine = solve_with_nt(16);  // reference

    real_t e_coarse = 0, e_medium = 0;
    for (size_t i = 0; i < fine.size(); ++i) {
      e_coarse = std::max(e_coarse, std::abs(coarse[i] - fine[i]));
      e_medium = std::max(e_medium, std::abs(medium[i] - fine[i]));
    }
    e_coarse = comm.allreduce_max(e_coarse);
    e_medium = comm.allreduce_max(e_medium);
    // RK2: halving dt should reduce the error by about 4 (allow slack for
    // the interpolation-error floor).
    EXPECT_GT(e_coarse / e_medium, 2.5)
        << "coarse " << e_coarse << " medium " << e_medium;
  });
}

TEST(Transport, UnconditionallyStableAtLargeCfl) {
  // CFL = |v| dt / h ~ 0.9 * (1/2) / (2*pi/16) ~ 1.15 per step with nt = 2;
  // amplify the velocity so a CFL-limited scheme would explode.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 6.0);  // CFL >> 1
    TransportConfig tc;
    tc.nt = 2;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    transport.solve_state(rho0);
    const real_t max_val = grid::norm_inf(decomp, transport.final_state());
    // Pure advection cannot amplify the field (modulo interpolation
    // overshoot); anything beyond a small factor indicates instability.
    EXPECT_LT(max_val, 1.5);
  });
}

TEST(Transport, StateHistoryEndpointsAreConsistent) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.5);
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    transport.solve_state(rho0);
    // slice 0 is the initial condition, slice nt the final state.
    for (size_t i = 0; i < rho0.size(); ++i)
      ASSERT_DOUBLE_EQ(transport.state(0)[i], rho0[i]);
    for (size_t i = 0; i < rho0.size(); ++i)
      ASSERT_DOUBLE_EQ(transport.state(4)[i], transport.final_state()[i]);
  });
}

TEST(Transport, AdjointInnerProductConsistency) {
  // The adjoint transport is (approximately) the L2 adjoint of the state
  // transport: <S rho0, lam1> == <rho0, S* lam1> up to discretization error.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {24, 24, 24});
    spectral::SpectralOps ops(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.4);
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);

    auto rho0 = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return std::sin(x1) * std::cos(2 * x2);
    });
    auto lam1 = fill(decomp, [](real_t, real_t x2, real_t x3) {
      return std::cos(x2) * std::sin(x3);
    });

    transport.solve_state(rho0);
    const real_t lhs = grid::dot(decomp, transport.final_state(), lam1);

    // S* lam1: backward solve; solve_adjoint stores lam(0) in the history.
    VectorField b;
    transport.solve_adjoint(lam1, b, /*store_lambda=*/true);
    const real_t rhs = grid::dot(decomp, rho0, transport.adjoint(0));

    const real_t scale = std::max(std::abs(lhs), std::abs(rhs));
    EXPECT_NEAR(lhs, rhs, 0.02 * scale + 1e-3);
  });
}

TEST(Transport, IncrementalStateIsDirectionalDerivative) {
  // rho_tilde(1) must match (rho(1; v + eps w) - rho(1; v - eps w)) / 2 eps.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.4);
    auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);

    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    transport.solve_state(rho0);
    ScalarField rho_tilde1;
    transport.solve_incremental_state(w, rho_tilde1);

    const real_t eps = 1e-4;
    auto perturbed = [&](real_t sign) {
      VectorField vp = v;
      grid::axpy(sign * eps, w, vp);
      Transport t2(ops, tc);
      t2.set_velocity(vp);
      t2.solve_state(rho0);
      return t2.final_state();
    };
    const auto plus = perturbed(+1);
    const auto minus = perturbed(-1);

    real_t max_err = 0, max_ref = 0;
    for (size_t i = 0; i < plus.size(); ++i) {
      const real_t fd = (plus[i] - minus[i]) / (2 * eps);
      max_err = std::max(max_err, std::abs(fd - rho_tilde1[i]));
      max_ref = std::max(max_ref, std::abs(fd));
    }
    max_err = comm.allreduce_max(max_err);
    max_ref = comm.allreduce_max(max_ref);
    EXPECT_LT(max_err, 0.06 * max_ref + 1e-6)
        << "err " << max_err << " ref " << max_ref;
  });
}

TEST(Transport, DisplacementForConstantVelocityIsMinusV) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    const Vec3 c{0.5, -0.3, 0.2};
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      for (auto& val : v[d]) val = c[d];
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    VectorField u;
    transport.solve_displacement(u);
    // y(x, 1) = x - v  =>  u = -v, det(grad y) = 1.
    for (int d = 0; d < 3; ++d)
      for (real_t val : u[d]) ASSERT_NEAR(val, -c[d], 1e-10);

    ScalarField det;
    core::jacobian_determinant(ops, u, det);
    for (real_t d : det) ASSERT_NEAR(d, 1.0, 1e-9);
  });
}

TEST(Transport, DivergenceFreeVelocityPreservesVolume) {
  // Incompressible velocity => det(grad y) = 1 pointwise (paper section
  // II-A); discretization errors of O(dt^2 + h^4) remain.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {24, 24, 24});
    spectral::SpectralOps ops(decomp);
    auto v = imaging::synthetic_velocity_divfree(decomp, 0.5);
    TransportConfig tc;
    tc.nt = 8;
    tc.incompressible = true;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    auto analysis = core::analyze_deformation(ops, transport);
    EXPECT_NEAR(analysis.min_det, 1.0, 0.02);
    EXPECT_NEAR(analysis.max_det, 1.0, 0.02);
    EXPECT_NEAR(analysis.mean_det, 1.0, 0.005);
  });
}

TEST(Transport, CompressibleVelocityChangesVolumeButStaysDiffeomorphic) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {24, 24, 24});
    spectral::SpectralOps ops(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.5);  // div v != 0
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    auto analysis = core::analyze_deformation(ops, transport);
    EXPECT_GT(analysis.min_det, 0.0) << "map must stay diffeomorphic";
    EXPECT_GT(analysis.max_det - analysis.min_det, 0.05)
        << "compressible flow should change volume somewhere";
  });
}

TEST(Transport, AdjointOfConstantVelocityTranslatesBackward) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {32, 32, 32});
    spectral::SpectralOps ops(decomp);
    const Vec3 c{0.6, 0.0, -0.3};
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      for (auto& val : v[d]) val = c[d];
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    // With div v = 0 (constant), the adjoint is advection along -v:
    // lam(x, 0) = lam1(x + v).
    auto rho0 = fill(decomp, [](real_t x1, real_t, real_t) {
      return std::sin(x1);
    });
    transport.solve_state(rho0);
    auto lam1 = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return std::cos(x1) * std::sin(x2);
    });
    VectorField b;
    transport.solve_adjoint(lam1, b, /*store_lambda=*/true);
    auto expected = fill(decomp, [&](real_t x1, real_t x2, real_t) {
      return std::cos(x1 + c[0]) * std::sin(x2 + c[1]);
    });
    const auto& lam0 = transport.adjoint(0);
    for (size_t i = 0; i < lam0.size(); ++i)
      ASSERT_NEAR(lam0[i], expected[i], 5e-4);
  });
}

TEST(Transport, PlanCacheRebuildsOnlyOnVelocityChange) {
  // The caching contract of the tentpole: set_velocity builds the plans
  // once; every solve (state, adjoint, incremental = PCG matvec transport)
  // reuses them; re-setting the SAME velocity is a no-op; a different
  // velocity invalidates and rebuilds.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.5);
    auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);

    EXPECT_EQ(transport.plan_build_count(), 0);
    transport.set_velocity(v);
    EXPECT_EQ(transport.plan_build_count(), 1);

    transport.solve_state(rho0);
    VectorField b;
    transport.solve_adjoint(transport.final_state(), b);
    ScalarField rho_tilde1;
    for (int k = 0; k < 3; ++k) {  // PCG-style repeated matvec transports
      transport.solve_incremental_state(w, rho_tilde1);
      transport.solve_incremental_adjoint_gn(rho_tilde1, b);
    }
    VectorField u1;
    transport.solve_displacement(u1);
    EXPECT_EQ(transport.plan_build_count(), 1)
        << "solves must reuse the cached plans";

    transport.set_velocity(v);  // identical velocity: cache hit
    EXPECT_EQ(transport.plan_build_count(), 1);
    transport.solve_state(rho0);  // still valid after a cache hit
    EXPECT_EQ(transport.plan_build_count(), 1);

    transport.set_velocity(w);  // velocity changed: plans invalidated
    EXPECT_EQ(transport.plan_build_count(), 2);
  });
}

TEST(Transport, ExchangeCountsPerSolveAreFixed) {
  // One alltoallv per semi-Lagrangian step, batch-invariant: solve_state is
  // nt exchanges; the incremental state interpolates one combined field per
  // step; the GN incremental adjoint is nt exchanges.
  for (int p : {1, 2, 4}) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      PencilDecomp decomp(comm, {16, 16, 16});
      spectral::SpectralOps ops(decomp);
      auto rho0 = imaging::synthetic_template(decomp);
      auto v = imaging::synthetic_velocity(decomp, 0.5);
      auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);
      TransportConfig tc;
      tc.nt = 4;
      Transport transport(ops, tc);

      auto interp_exchanges = [&] {
        return comm.timings().exchanges(TimeKind::kInterpComm);
      };
      // set_velocity: 2 exchanges per plan build (the +v and -v RK2
      // predictor plans, the forward and the backward plan), one predictor
      // interpolation per direction, and div v at the backward points.
      comm.timings().clear();
      transport.set_velocity(v);
      EXPECT_EQ(interp_exchanges(), 11u) << "p=" << p;

      comm.timings().clear();
      transport.solve_state(rho0);
      EXPECT_EQ(interp_exchanges(), 4u) << "p=" << p;

      comm.timings().clear();
      ScalarField rho_tilde1;
      transport.solve_incremental_state(w, rho_tilde1);
      EXPECT_EQ(interp_exchanges(), 4u) << "p=" << p;

      comm.timings().clear();
      VectorField b;
      transport.solve_incremental_adjoint_gn(rho_tilde1, b);
      EXPECT_EQ(interp_exchanges(), 4u) << "p=" << p;

      // Displacement: v(X) once, then one batched exchange per step after
      // the first.
      comm.timings().clear();
      VectorField u1;
      transport.solve_displacement(u1);
      EXPECT_EQ(interp_exchanges(), 4u) << "p=" << p;
    });
  }
}

TEST(Transport, IncrementalStateMatchesUnfusedRecurrence) {
  // solve_incremental_state interpolates nu + dt/2 f0 once per step. By
  // linearity that is the RK2 recurrence nu(X) + dt/2 (f0(X) + f1(x)) with
  // nu and f0 interpolated separately, rebuilt here on the public
  // interp_at_forward_points; the two agree to rounding.
  for (int p : {1, 4}) {
    for (int nt : {1, 4}) {
      mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
        PencilDecomp decomp(comm, {16, 16, 16});
        spectral::SpectralOps ops(decomp);
        auto rho0 = imaging::synthetic_template(decomp);
        auto v = imaging::synthetic_velocity(decomp, 0.5);
        auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);
        TransportConfig tc;
        tc.nt = nt;
        Transport transport(ops, tc);
        transport.set_velocity(v);
        transport.solve_state(rho0);
        ScalarField fused;
        transport.solve_incremental_state(w, fused);

        const index_t n = decomp.local_real_size();
        const real_t half_dt = real_t(0.5) * transport.dt();
        auto source = [&](int j) {
          const VectorField& g = transport.state_gradient(j);
          ScalarField f(n);
          for (index_t i = 0; i < n; ++i)
            f[i] = -(w[0][i] * g[0][i] + w[1][i] * g[1][i] +
                     w[2][i] * g[2][i]);
          return f;
        };
        ScalarField nu(n, 0), nu_x(n), f0_x(n);
        for (int j = 0; j < nt; ++j) {
          transport.interp_at_forward_points(nu, nu_x);
          transport.interp_at_forward_points(source(j), f0_x);
          const ScalarField f1 = source(j + 1);
          for (index_t i = 0; i < n; ++i)
            nu[i] = nu_x[i] + half_dt * (f0_x[i] + f1[i]);
        }
        real_t diff = 0, scale = 0;
        for (index_t i = 0; i < n; ++i) {
          diff = std::max(diff, std::abs(fused[i] - nu[i]));
          scale = std::max(scale, std::abs(nu[i]));
        }
        diff = comm.allreduce_max(diff);
        scale = comm.allreduce_max(scale);
        EXPECT_GT(scale, 0) << "p=" << p << " nt=" << nt;
        EXPECT_LE(diff, 1e-12 * scale) << "p=" << p << " nt=" << nt;
      });
    }
  }
}

TEST(Transport, RepeatedSolvesAreBitwiseDeterministic) {
  // Same velocity, same input => bit-identical transport results across
  // repeated solves on the same cached plan (buffer reuse must not leak).
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.6);
    TransportConfig tc;
    tc.nt = 4;
    Transport transport(ops, tc);
    transport.set_velocity(v);
    transport.solve_state(rho0);
    ScalarField first = transport.final_state();
    transport.set_velocity(v);  // cache hit
    transport.solve_state(rho0);
    const ScalarField& second = transport.final_state();
    for (size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first[i], second[i]) << i;
  });
}

TEST(Transport, WarmSolvesAreAllocationFree) {
  // After one velocity's cycle, a second velocity (new bits, so both plans
  // and their predictors are rebuilt), its state and adjoint solves, and a
  // Gauss-Newton matvec's two solves must not touch the heap (single rank:
  // the mailbox transport itself is out of the picture).
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {32, 32, 32});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.5);
    auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);
    VectorField v2 = v;
    grid::scale(real_t(1.001), v2);
    Transport transport(ops, TransportConfig{});
    ScalarField rho_tilde1;
    VectorField b, bt;
    const auto cycle = [&](const VectorField& vel) {
      transport.set_velocity(vel);
      transport.solve_state(rho0);
      transport.solve_adjoint(transport.final_state(), b);
    };
    const auto matvec = [&] {
      transport.solve_incremental_state(w, rho_tilde1);
      transport.solve_incremental_adjoint_gn(rho_tilde1, bt);
    };
    cycle(v);  // warm-up: grows every buffer once
    matvec();

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    cycle(v2);
    const long long cycle_allocs = g_alloc_count.exchange(0);
    matvec();
    const long long matvec_allocs = g_alloc_count.exchange(0);
    g_count_allocs.store(false);

    EXPECT_EQ(transport.plan_build_count(), 2);
    EXPECT_EQ(cycle_allocs, 0)
        << "new velocity + state + adjoint solves allocated";
    EXPECT_EQ(matvec_allocs, 0) << "Gauss-Newton matvec solves allocated";
  });
}

TEST(Transport, FootprintPerPointIsBounded) {
  // Bytes requested through operator new while a transport is constructed
  // and runs one set_velocity / state / adjoint / Gauss-Newton matvec
  // cycle, the caller's output fields included, per grid point. Two plans
  // sharing the exchanger's ghost blocks, with value staging for the
  // cross-rank points only, come to about 725 B; a third plan (about 270 B)
  // or all-point value staging breaks the bound.
  constexpr double kMaxBytesPerPoint = 800;
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {32, 32, 32});
    spectral::SpectralOps ops(decomp);
    auto rho0 = imaging::synthetic_template(decomp);
    auto v = imaging::synthetic_velocity(decomp, 0.5);
    auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);

    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    {
      Transport transport(ops, TransportConfig{});
      ScalarField rho_tilde1;
      VectorField b, bt;
      transport.set_velocity(v);
      transport.solve_state(rho0);
      transport.solve_adjoint(transport.final_state(), b);
      transport.solve_incremental_state(w, rho_tilde1);
      transport.solve_incremental_adjoint_gn(rho_tilde1, bt);
      g_count_allocs.store(false);
    }
    const double per_point =
        static_cast<double>(g_alloc_bytes.load()) /
        static_cast<double>(decomp.local_real_size());
    RecordProperty("bytes_per_point", static_cast<int>(per_point));
    EXPECT_LE(per_point, kMaxBytesPerPoint);
  });
}

TEST(Transport, RejectsUseBeforeSetVelocity) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    spectral::SpectralOps ops(decomp);
    TransportConfig tc;
    Transport transport(ops, tc);
    ScalarField rho(decomp.local_real_size(), 0);
    EXPECT_THROW(transport.solve_state(rho), std::logic_error);
    VectorField b;
    EXPECT_THROW(transport.solve_adjoint(rho, b), std::logic_error);
  });
}

TEST(Transport, RejectsInvalidNt) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    spectral::SpectralOps ops(decomp);
    TransportConfig tc;
    tc.nt = 0;
    EXPECT_THROW(Transport(ops, tc), std::invalid_argument);
  });
}

}  // namespace
}  // namespace diffreg::semilag

// Spectral operator tests: exactness of derivatives on trigonometric
// polynomials (spectral methods are exact below the Nyquist limit),
// operator/inverse consistency, Leray projector invariants, Gaussian
// smoothing behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "grid/field_io.hpp"
#include "mpisim/communicator.hpp"
#include "spectral/operators.hpp"

namespace diffreg::spectral {
namespace {

using grid::PencilDecomp;

/// Fills a local field from f(x1, x2, x3).
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

void expect_field_near(const ScalarField& got, const ScalarField& want,
                       real_t tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "i=" << i;
}

struct SpectralCase {
  Int3 dims;
  int p;
};

class SpectralSweep : public ::testing::TestWithParam<SpectralCase> {};

TEST_P(SpectralSweep, GradientExactOnTrigPolynomial) {
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    // f = sin(2 x1) cos(x2) + sin(3 x3)
    auto f = fill(decomp, [](real_t x1, real_t x2, real_t x3) {
      return std::sin(2 * x1) * std::cos(x2) + std::sin(3 * x3);
    });
    VectorField g(decomp.local_real_size());
    ops.gradient(f, g);
    auto g1 = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return 2 * std::cos(2 * x1) * std::cos(x2);
    });
    auto g2 = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return -std::sin(2 * x1) * std::sin(x2);
    });
    auto g3 = fill(decomp, [](real_t, real_t, real_t x3) {
      return 3 * std::cos(3 * x3);
    });
    expect_field_near(g[0], g1, 1e-10);
    expect_field_near(g[1], g2, 1e-10);
    expect_field_near(g[2], g3, 1e-10);
  });
}

TEST_P(SpectralSweep, DivergenceMatchesAnalytic) {
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t x1, real_t, real_t) { return std::sin(x1); });
    v[1] = fill(decomp, [](real_t, real_t x2, real_t) { return std::cos(2 * x2); });
    v[2] = fill(decomp, [](real_t, real_t, real_t x3) { return std::sin(x3); });
    ScalarField div;
    ops.divergence(v, div);
    auto expected = fill(decomp, [](real_t x1, real_t x2, real_t x3) {
      return std::cos(x1) - 2 * std::sin(2 * x2) + std::cos(x3);
    });
    expect_field_near(div, expected, 1e-10);
  });
}

TEST_P(SpectralSweep, LaplacianEigenfunction) {
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    // -lap sin(x1)cos(2 x3) = (1 + 4) sin(x1)cos(2 x3), and lap^2 = 25 f.
    auto f = fill(decomp, [](real_t x1, real_t, real_t x3) {
      return std::sin(x1) * std::cos(2 * x3);
    });
    VectorField v(decomp.local_real_size());
    for (int d = 0; d < 3; ++d) v[d] = f;
    for (const auto& [gamma, eigenvalue, tol] :
         {std::tuple{1, 5.0, 1e-10}, std::tuple{2, 25.0, 1e-9}}) {
      VectorField w(v.local_size());
      ops.neg_laplacian_pow(v, gamma, w);
      ScalarField expected = f;
      for (auto& x : expected) x *= eigenvalue;
      for (int d = 0; d < 3; ++d) expect_field_near(w[d], expected, tol);
    }
  });
}

TEST_P(SpectralSweep, LerayProjectionMakesDivergenceFree) {
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return std::sin(x1) * std::cos(x2);
    });
    v[1] = fill(decomp, [](real_t, real_t x2, real_t x3) {
      return std::cos(x2) + std::sin(x3);
    });
    v[2] = fill(decomp, [](real_t x1, real_t, real_t x3) {
      return std::sin(x1 + x3);
    });
    ops.leray_project(v);
    ScalarField div;
    ops.divergence(v, div);
    EXPECT_LT(grid::norm_inf(decomp, div), 1e-10);
  });
}

TEST_P(SpectralSweep, LerayIsIdempotentAndKeepsDivFreeFields) {
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    // Analytically divergence-free field.
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t, real_t x2, real_t) { return std::sin(x2); });
    v[1] = fill(decomp, [](real_t, real_t, real_t x3) { return std::cos(x3); });
    v[2] = fill(decomp, [](real_t x1, real_t, real_t) { return std::sin(x1); });
    VectorField original = v;
    ops.leray_project(v);
    for (int d = 0; d < 3; ++d) expect_field_near(v[d], original[d], 1e-10);

    // Idempotence on a generic field: P(Pv) = Pv.
    VectorField w(decomp.local_real_size());
    w[0] = fill(decomp, [](real_t x1, real_t, real_t) { return std::cos(x1); });
    w[1] = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return std::sin(x1) * std::sin(x2);
    });
    w[2] = fill(decomp, [](real_t, real_t x2, real_t) { return std::cos(x2); });
    ops.leray_project(w);
    VectorField w_once = w;
    ops.leray_project(w);
    for (int d = 0; d < 3; ++d) expect_field_near(w[d], w_once[d], 1e-10);
  });
}

TEST_P(SpectralSweep, RegularizationInverseIsExactInverse) {
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t x1, real_t, real_t) { return std::sin(x1); });
    v[1] = fill(decomp, [](real_t, real_t x2, real_t) { return std::cos(x2); });
    v[2] = fill(decomp,
                [](real_t, real_t, real_t x3) { return std::sin(2 * x3); });
    // A field mixing modes along several axes in one component.
    VectorField mixed(decomp.local_real_size());
    for (int d = 0; d < 3; ++d)
      mixed[d] = fill(decomp, [](real_t x1, real_t x2, real_t x3) {
        return std::sin(x1) + std::cos(x2) * std::sin(2 * x3);
      });
    for (const VectorField* in : {&v, &mixed})
      for (int gamma : {1, 2}) {
        VectorField av(in->local_size()), back(in->local_size());
        ops.neg_laplacian_pow(*in, gamma, av);
        ops.inv_neg_laplacian_pow(av, gamma, back);
        // Inputs are zero-mean, so the pseudo-inverse is exact.
        for (int d = 0; d < 3; ++d) expect_field_near(back[d], (*in)[d], 1e-9);
      }
  });
}

TEST_P(SpectralSweep, ProjectedInverseIsInverseThenLeray) {
  // The incompressible preconditioner's one pass (scale by the inverse
  // power, Leray project, one forward and one inverse transform) equals the
  // two passes it replaces, keeps the mean scaled by `mean_scale`, and is
  // discretely divergence free.
  const auto [dims, p] = GetParam();
  mpisim::run_spmd(p, [&, dims = dims](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    SpectralOps ops(decomp);
    VectorField v(decomp.local_real_size());
    v[0] = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return 0.5 + std::sin(x1) * std::cos(x2);
    });
    v[1] = fill(decomp, [](real_t x1, real_t x2, real_t x3) {
      return std::cos(x2) + std::sin(x3) * std::cos(2 * x1);
    });
    v[2] = fill(decomp, [](real_t x1, real_t, real_t x3) {
      return std::sin(x1 + x3) - 0.25;
    });
    for (int gamma : {1, 2}) {
      VectorField fused, two_pass;
      ops.inv_neg_laplacian_pow(v, gamma, fused, 3.0, 1.0, /*project=*/true);
      ops.inv_neg_laplacian_pow(v, gamma, two_pass, 3.0, 1.0);
      ops.leray_project(two_pass);
      for (int d = 0; d < 3; ++d)
        expect_field_near(fused[d], two_pass[d], 1e-12);
      ScalarField div;
      ops.divergence(fused, div);
      EXPECT_LT(grid::norm_inf(decomp, div), 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpectralSweep,
                         ::testing::Values(SpectralCase{{16, 16, 16}, 1},
                                           SpectralCase{{16, 16, 16}, 4},
                                           SpectralCase{{16, 12, 10}, 2},
                                           SpectralCase{{12, 18, 16}, 6},
                                           // brain-48's grid and its
                                           // two-level coarse grid: every
                                           // axis runs mixed radix.
                                           SpectralCase{{48, 56, 48}, 4},
                                           SpectralCase{{24, 28, 24}, 4}));

TEST(Spectral, GradientUsesBatchedInverseExchanges) {
  // Pre-batching, gradient cost 1 forward + 3 scalar inverses = 8 alltoallv
  // exchanges per rank; the batched inverse_many brings that to 4 (2 for the
  // forward, 2 for all three components together).
  const Int3 dims{8, 8, 8};
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, 2, 2);
    SpectralOps ops(decomp);
    ScalarField f(decomp.local_real_size(), 1.0);
    VectorField g(decomp.local_real_size());
    comm.timings().clear();
    ops.gradient(f, g);
    EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm), 4u);

    // Divergence batches its forward the same way: 2 + 2 instead of 6 + 2.
    VectorField v(decomp.local_real_size());
    ScalarField div(decomp.local_real_size());
    comm.timings().clear();
    ops.divergence(v, div);
    EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm), 4u);

    // Vector Laplacian (the regularization apply): 4 instead of 12.
    VectorField w(decomp.local_real_size());
    comm.timings().clear();
    ops.neg_laplacian_pow(v, 1, w);
    EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm), 4u);

    // The incompressible preconditioner, inverse and Leray in one pass: 4
    // instead of 8.
    comm.timings().clear();
    ops.inv_neg_laplacian_pow(v, 2, w, 1.0, 1.0, /*project=*/true);
    EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm), 4u);
  });
}

TEST(Spectral, GaussianSmoothingDampsHighFrequencies) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    SpectralOps ops(decomp);
    // Low mode + high mode; smoothing must keep the former, damp the latter.
    auto f = fill(decomp, [](real_t x1, real_t, real_t) {
      return std::sin(x1) + std::sin(7 * x1);
    });
    const real_t sigma = kTwoPi / 16;
    ScalarField smooth;
    ops.gaussian_smooth(f, {sigma, sigma, sigma}, smooth);
    auto low = fill(decomp, [&](real_t x1, real_t, real_t) {
      return std::exp(-0.5 * sigma * sigma) * std::sin(x1) +
             std::exp(-0.5 * 49 * sigma * sigma) * std::sin(7 * x1);
    });
    expect_field_near(smooth, low, 1e-10);
  });
}

TEST(Spectral, GaussianSmoothingPreservesMean) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {12, 12, 12});
    SpectralOps ops(decomp);
    auto f = fill(decomp, [](real_t x1, real_t x2, real_t) {
      return 2.5 + std::sin(3 * x1) * std::cos(2 * x2);
    });
    ScalarField smooth;
    ops.gaussian_smooth(f, {0.4, 0.4, 0.4}, smooth);
    ScalarField ones(decomp.local_real_size(), 1.0);
    const real_t vol = kTwoPi * kTwoPi * kTwoPi;
    EXPECT_NEAR(grid::dot(decomp, smooth, ones) / vol, 2.5, 1e-10);
  });
}

TEST(Spectral, GradientOfConstantIsZero) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    SpectralOps ops(decomp);
    ScalarField f(decomp.local_real_size(), 3.75);
    VectorField g(decomp.local_real_size());
    ops.gradient(f, g);
    for (int d = 0; d < 3; ++d)
      EXPECT_LT(grid::norm_inf(decomp, g[d]), 1e-12);
  });
}

}  // namespace
}  // namespace diffreg::spectral

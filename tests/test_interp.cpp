// Interpolation tests: kernel exactness (tricubic reproduces cubic
// polynomials, trilinear reproduces linear ones), convergence order on
// smooth fields, the distributed scatter-phase plan against serial
// evaluation — including points that left the owner's pencil (large CFL) —
// plus the caching contract: batched == sequential bitwise, fixed exchange
// counts per plan operation, and allocation-free steady-state interpolation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <span>
#include <utility>

#include "grid/field_io.hpp"
#include "interp/interp_plan.hpp"
#include "interp/kernels.hpp"
#include "mpisim/communicator.hpp"

// Global allocation counter backing the zero-allocation assertions below.
// Replacing the global operator new/delete pair is the only portable way to
// observe heap traffic; counting is gated so the rest of the suite pays one
// relaxed atomic load per allocation.
namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// GCC pairs the std::free here with the replaced operator new above and
// (wrongly) reports a mismatched allocation function when both ends inline
// into the same caller; the pair is malloc/free by construction. The
// suppression is push/pop-scoped to these two definitions so a genuine
// mismatch elsewhere in the file still warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace diffreg::interp {
namespace {

TEST(CubicWeights, PartitionOfUnity) {
  for (real_t t : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999}) {
    real_t w[4];
    cubic_weights(t, w);
    EXPECT_NEAR(w[0] + w[1] + w[2] + w[3], 1.0, 1e-14) << "t=" << t;
  }
}

TEST(CubicWeights, InterpolatesNodesExactly) {
  real_t w[4];
  cubic_weights(0.0, w);  // at node 0
  EXPECT_NEAR(w[0], 0.0, 1e-14);
  EXPECT_NEAR(w[1], 1.0, 1e-14);
  EXPECT_NEAR(w[2], 0.0, 1e-14);
  EXPECT_NEAR(w[3], 0.0, 1e-14);
}

TEST(CubicWeights, ReproducesCubicIn1d) {
  // Nodes at -1, 0, 1, 2 with values of q(s) = 2 s^3 - s^2 + 3 s - 4.
  auto q = [](real_t s) { return 2 * s * s * s - s * s + 3 * s - 4; };
  for (real_t t : {0.05, 0.3, 0.62, 0.97}) {
    real_t w[4];
    cubic_weights(t, w);
    const real_t got =
        w[0] * q(-1) + w[1] * q(0) + w[2] * q(1) + w[3] * q(2);
    EXPECT_NEAR(got, q(t), 1e-12);
  }
}

/// Builds a small dense block filled from f(i1, i2, i3) in index space.
template <typename F>
std::vector<real_t> index_block(const Int3& dims, F&& f) {
  std::vector<real_t> g(dims.prod());
  for (index_t a = 0; a < dims[0]; ++a)
    for (index_t b = 0; b < dims[1]; ++b)
      for (index_t c = 0; c < dims[2]; ++c)
        g[linear_index(a, b, c, dims)] = f(static_cast<real_t>(a),
                                           static_cast<real_t>(b),
                                           static_cast<real_t>(c));
  return g;
}

TEST(TricubicKernel, ExactOnTriCubicPolynomials) {
  const Int3 dims{8, 8, 8};
  auto poly = [](real_t a, real_t b, real_t c) {
    return 0.5 * a * a * a - a * b * c + 2 * b * b - c * c * c / 3 + a - 7;
  };
  const auto g = index_block(dims, poly);
  std::mt19937 rng(5);
  std::uniform_real_distribution<real_t> dist(1.0, 5.0);
  for (int trial = 0; trial < 50; ++trial) {
    const real_t u1 = dist(rng), u2 = dist(rng), u3 = dist(rng);
    EXPECT_NEAR(tricubic_eval(g.data(), dims, u1, u2, u3), poly(u1, u2, u3),
                1e-10);
  }
}

TEST(TricubicKernel, StencilApplyMatchesNaiveSum) {
  // cubic_stencil_apply reassociates the 64-term sum (each i3 line first,
  // then pairwise). It must match the plain triple loop, summed in long
  // double, to rounding: within 1e-14 of sum |w1 w2 w3 g|.
  const Int3 dims{9, 10, 11};
  const index_t s1 = dims[1] * dims[2], s2 = dims[2];
  std::mt19937 rng(19);
  std::uniform_real_distribution<real_t> value(-50.0, 50.0);
  std::vector<real_t> g(dims.prod());
  for (auto& x : g) x = value(rng);
  for (int trial = 0; trial < 500; ++trial) {
    real_t u[3];
    for (int d = 0; d < 3; ++d)  // the stencil reads nodes i - 1 .. i + 2
      u[d] = std::uniform_real_distribution<real_t>(
          1.0, static_cast<real_t>(dims[d] - 2))(rng);
    CubicStencil st;
    make_cubic_stencil(dims, u[0], u[1], u[2], st);
    long double sum = 0, magnitude = 0;
    for (int a = 0; a < 4; ++a)
      for (int b = 0; b < 4; ++b)
        for (int c = 0; c < 4; ++c) {
          const long double term =
              static_cast<long double>(st.w1[a]) * st.w2[b] * st.w3[c] *
              g[st.base + a * s1 + b * s2 + c];
          sum += term;
          magnitude += std::fabs(term);
        }
    EXPECT_NEAR(cubic_stencil_apply(g.data(), dims, st),
                static_cast<real_t>(sum),
                1e-14 * static_cast<real_t>(magnitude))
        << "trial " << trial;
  }
}

TEST(TrilinearKernel, ExactOnTriLinearPolynomials) {
  const Int3 dims{6, 6, 6};
  auto poly = [](real_t a, real_t b, real_t c) {
    return 2 * a - 3 * b + 0.5 * c + a * b - b * c + a * c + a * b * c + 1;
  };
  const auto g = index_block(dims, poly);
  std::mt19937 rng(6);
  std::uniform_real_distribution<real_t> dist(0.0, 4.5);
  for (int trial = 0; trial < 50; ++trial) {
    const real_t u1 = dist(rng), u2 = dist(rng), u3 = dist(rng);
    EXPECT_NEAR(trilinear_eval(g.data(), dims, u1, u2, u3), poly(u1, u2, u3),
                1e-11);
  }
}

TEST(TricubicKernel, FourthOrderConvergenceOnSmoothField) {
  // Interpolate sin(2*pi*x) sampled on grids of spacing h and h/2 at the
  // same physical points; error must drop by about 2^4.
  auto run = [](index_t n) {
    const Int3 dims{n + 4, n + 4, 4};  // padded in the first axis
    std::vector<real_t> g(dims.prod());
    const real_t h = 1.0 / static_cast<real_t>(n);
    for (index_t a = 0; a < dims[0]; ++a)
      for (index_t b = 0; b < dims[1]; ++b)
        for (index_t c = 0; c < dims[2]; ++c)
          g[linear_index(a, b, c, dims)] =
              std::sin(kTwoPi * (a - 2) * h);
    real_t max_err = 0;
    for (int k = 0; k < 40; ++k) {
      const real_t x = 0.012 + 0.97 * k / 40.0;  // physical in [0,1)
      const real_t u1 = x / h + 2;
      const real_t got = tricubic_eval(g.data(), dims, u1, 3.3, 1.6);
      max_err = std::max(max_err, std::abs(got - std::sin(kTwoPi * x)));
    }
    return max_err;
  };
  const real_t e1 = run(16);
  const real_t e2 = run(32);
  EXPECT_GT(e1 / e2, 10.0) << "expected ~16x error reduction";
}

TEST(TrilinearKernel, SecondOrderConvergenceOnSmoothField) {
  auto run = [](index_t n) {
    const Int3 dims{n + 4, 4, 4};
    std::vector<real_t> g(dims.prod());
    const real_t h = 1.0 / static_cast<real_t>(n);
    for (index_t a = 0; a < dims[0]; ++a)
      for (index_t b = 0; b < dims[1]; ++b)
        for (index_t c = 0; c < dims[2]; ++c)
          g[linear_index(a, b, c, dims)] = std::sin(kTwoPi * (a - 2) * h);
    real_t max_err = 0;
    for (int k = 0; k < 40; ++k) {
      const real_t x = 0.012 + 0.97 * k / 40.0;
      const real_t got =
          trilinear_eval(g.data(), dims, x / h + 2, 1.5, 1.5);
      max_err = std::max(max_err, std::abs(got - std::sin(kTwoPi * x)));
    }
    return max_err;
  };
  const real_t ratio = run(16) / run(32);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 6.0);  // second order, not fourth
}

// --------------------------------------------------------------------------
// Distributed plan.

struct PlanCase {
  Int3 dims;
  int p1, p2;
};

class PlanSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanSweep, MatchesAnalyticSmoothFunction) {
  const auto [dims, p1, p2] = GetParam();
  auto f_analytic = [](const Vec3& x) {
    return std::sin(x[0]) * std::cos(x[1]) + std::sin(2 * x[2]);
  };
  // Deterministic query points, including some far outside [0, 2*pi)^3.
  std::vector<Vec3> points;
  std::mt19937 rng(77);
  std::uniform_real_distribution<real_t> dist(-2 * kTwoPi, 3 * kTwoPi);
  for (int k = 0; k < 200; ++k)
    points.push_back({dist(rng), dist(rng), dist(rng)});

  mpisim::run_spmd(p1 * p2, [&, dims = dims, p1 = p1,
                             p2 = p2](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, p1, p2);
    // Each rank queries a distinct slice of the points.
    const BlockRange my =
        block_range(static_cast<index_t>(points.size()), comm.size(),
                    comm.rank());
    std::vector<Vec3> mine(points.begin() + my.begin,
                           points.begin() + my.end);

    // Field sampled on the grid.
    const Int3 ld = decomp.local_real_dims();
    grid::ScalarField field(decomp.local_real_size());
    const real_t h1 = kTwoPi / dims[0], h2 = kTwoPi / dims[1],
                 h3 = kTwoPi / dims[2];
    index_t idx = 0;
    for (index_t a = 0; a < ld[0]; ++a)
      for (index_t b = 0; b < ld[1]; ++b)
        for (index_t c = 0; c < ld[2]; ++c, ++idx)
          field[idx] = f_analytic({(decomp.range1().begin + a) * h1,
                                   (decomp.range2().begin + b) * h2, c * h3});

    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, mine);
    std::vector<real_t> out(mine.size());
    plan.interpolate(gx, field, out);

    const real_t h = std::max({h1, h2, h3});
    const real_t tol = 12 * h * h * h * h;  // O(h^4) with a safety factor
    for (size_t k = 0; k < mine.size(); ++k)
      EXPECT_NEAR(out[k], f_analytic(mine[k]), tol) << "point " << k;
  });
}

TEST_P(PlanSweep, GridPointsReproduceExactly) {
  // Querying exactly at grid nodes must return the nodal values.
  const auto [dims, p1, p2] = GetParam();
  mpisim::run_spmd(p1 * p2, [&, dims = dims, p1 = p1,
                             p2 = p2](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, p1, p2);
    const real_t h1 = kTwoPi / dims[0], h2 = kTwoPi / dims[1],
                 h3 = kTwoPi / dims[2];
    // Query a few nodes owned by *other* ranks to exercise the exchange.
    std::vector<Vec3> pts;
    std::vector<real_t> expected;
    for (index_t k = 0; k < 20; ++k) {
      const index_t g1 = (7 * k + comm.rank()) % dims[0];
      const index_t g2 = (3 * k + 2 * comm.rank()) % dims[1];
      const index_t g3 = (5 * k) % dims[2];
      pts.push_back({g1 * h1, g2 * h2, g3 * h3});
      expected.push_back(std::sin(g1 * h1 + 2 * g2 * h2) + std::cos(g3 * h3));
    }
    grid::ScalarField field(decomp.local_real_size());
    const Int3 ld = decomp.local_real_dims();
    index_t idx = 0;
    for (index_t a = 0; a < ld[0]; ++a)
      for (index_t b = 0; b < ld[1]; ++b)
        for (index_t c = 0; c < ld[2]; ++c, ++idx)
          field[idx] = std::sin((decomp.range1().begin + a) * h1 +
                                2 * ((decomp.range2().begin + b) * h2)) +
                       std::cos(c * h3);
    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, pts);
    std::vector<real_t> out(pts.size());
    plan.interpolate(gx, field, out);
    for (size_t k = 0; k < pts.size(); ++k)
      EXPECT_NEAR(out[k], expected[k], 1e-12);
  });
}

TEST_P(PlanSweep, DecompositionInvariance) {
  // The same query must give bit-identical answers for p = 1 and p > 1:
  // each point is evaluated by exactly one rank with the same stencil.
  const auto [dims, p1, p2] = GetParam();
  auto field_fn = [](const Vec3& x) {
    return std::cos(x[0]) * std::sin(2 * x[1]) * std::cos(x[2]);
  };
  std::vector<Vec3> points;
  std::mt19937 rng(123);
  std::uniform_real_distribution<real_t> dist(0, kTwoPi);
  for (int k = 0; k < 100; ++k)
    points.push_back({dist(rng), dist(rng), dist(rng)});

  auto run_with = [&](int q1, int q2) {
    std::vector<real_t> result(points.size());
    mpisim::run_spmd(q1 * q2, [&](mpisim::Communicator& comm) {
      grid::PencilDecomp decomp(comm, dims, q1, q2);
      grid::ScalarField field(decomp.local_real_size());
      const Int3 ld = decomp.local_real_dims();
      const real_t h1 = kTwoPi / dims[0], h2 = kTwoPi / dims[1],
                   h3 = kTwoPi / dims[2];
      index_t idx = 0;
      for (index_t a = 0; a < ld[0]; ++a)
        for (index_t b = 0; b < ld[1]; ++b)
          for (index_t c = 0; c < ld[2]; ++c, ++idx)
            field[idx] = field_fn({(decomp.range1().begin + a) * h1,
                                   (decomp.range2().begin + b) * h2, c * h3});
      grid::GhostExchange gx(decomp, kGhostWidth);
      // Rank 0 queries everything; others query nothing.
      std::vector<Vec3> mine = comm.is_root() ? points : std::vector<Vec3>{};
      InterpPlan plan(decomp, mine);
      std::vector<real_t> out(mine.size());
      plan.interpolate(gx, field, out);
      if (comm.is_root()) result = out;
    });
    return result;
  };

  const auto serial = run_with(1, 1);
  const auto parallel = run_with(p1, p2);
  for (size_t k = 0; k < points.size(); ++k)
    EXPECT_NEAR(parallel[k], serial[k], 1e-13);
}

TEST_P(PlanSweep, PlanReuseIsDeterministic) {
  const auto [dims, p1, p2] = GetParam();
  mpisim::run_spmd(p1 * p2, [&, dims = dims, p1 = p1,
                             p2 = p2](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, p1, p2);
    grid::ScalarField field(decomp.local_real_size());
    for (size_t i = 0; i < field.size(); ++i)
      field[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 1000;
    std::vector<Vec3> pts = {{0.3, 1.2, 4.4}, {5.9, 0.1, 2.2}};
    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, pts);
    std::vector<real_t> out1(pts.size()), out2(pts.size());
    plan.interpolate(gx, field, out1);
    plan.interpolate(gx, field, out2);
    for (size_t k = 0; k < pts.size(); ++k)
      EXPECT_DOUBLE_EQ(out1[k], out2[k]);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanSweep,
    ::testing::Values(PlanCase{{16, 16, 16}, 1, 1},
                      PlanCase{{16, 16, 16}, 2, 2},
                      PlanCase{{16, 16, 16}, 1, 4},
                      PlanCase{{16, 12, 10}, 2, 3},
                      PlanCase{{18, 14, 16}, 2, 2}));

TEST(InterpPlan, VectorFieldInterpolation) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, {16, 16, 16});
    grid::VectorField v(decomp.local_real_size());
    const Int3 ld = decomp.local_real_dims();
    const real_t h = kTwoPi / 16;
    index_t idx = 0;
    for (index_t a = 0; a < ld[0]; ++a)
      for (index_t b = 0; b < ld[1]; ++b)
        for (index_t c = 0; c < ld[2]; ++c, ++idx) {
          const real_t x1 = (decomp.range1().begin + a) * h;
          v[0][idx] = std::sin(x1);
          v[1][idx] = std::cos(x1);
          v[2][idx] = 2 * std::sin(x1);
        }
    std::vector<Vec3> pts = {{1.0, 2.0, 3.0}, {4.5, 0.5, 5.5}};
    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, pts);
    std::vector<Vec3> out;
    plan.interpolate_vec(gx, v, out);
    ASSERT_EQ(out.size(), pts.size());
    for (size_t k = 0; k < pts.size(); ++k) {
      EXPECT_NEAR(out[k][0], std::sin(pts[k][0]), 2e-3);
      EXPECT_NEAR(out[k][1], std::cos(pts[k][0]), 2e-3);
      EXPECT_NEAR(out[k][2], 2 * std::sin(pts[k][0]), 4e-3);
    }
  });
}

TEST(InterpPlan, PointsJustBelowThePeriodStayInBoundsAndWrap) {
  // Regression: h = 2*pi/n is a rounded double, so wrap(x)/h could land on
  // exactly n for points just below the period. That misclassified the
  // owning rank (periodic_index(n, n) = 0 sends the point to the rank
  // owning column 0, whose ghosted block it lies far outside) and pushed
  // the 4-point stencil one cell past the ghosted block — a silent
  // out-of-bounds read. periodic_grid_units folds such coordinates back
  // into [0, n).
  for (int p : {1, 2, 3}) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      for (index_t n : {index_t(8), index_t(12), index_t(24)}) {
        grid::PencilDecomp decomp(comm, {n, n, n});
        const Int3 ld = decomp.local_real_dims();
        const real_t h = kTwoPi / n;
        grid::ScalarField field(decomp.local_real_size());
        index_t idx = 0;
        for (index_t a = 0; a < ld[0]; ++a)
          for (index_t b = 0; b < ld[1]; ++b)
            for (index_t c = 0; c < ld[2]; ++c, ++idx)
              field[idx] = std::cos((decomp.range1().begin + a) * h) +
                           std::sin(c * h);
        // Adversarial coordinates: every rounding neighbourhood of the
        // period, including n*h itself (which exceeds or undershoots 2*pi
        // by rounding) and exact multiples that may divide back to n.
        std::vector<real_t> edges = {
            real_t(0),
            std::nextafter(kTwoPi, real_t(0)),
            std::nextafter(std::nextafter(kTwoPi, real_t(0)), real_t(0)),
            n * h,
            std::nextafter(n * h, real_t(0)),
            -std::numeric_limits<real_t>::denorm_min(),
            kTwoPi - 1e-15,
            kTwoPi - 1e-14};
        std::vector<Vec3> pts;
        for (real_t e1 : edges)
          for (real_t e3 : edges) pts.push_back({e1, real_t(0.5), e3});
        grid::GhostExchange gx(decomp, kGhostWidth);
        InterpPlan plan(decomp, pts);
        std::vector<real_t> out(pts.size());
        plan.interpolate(gx, field, out);
        for (size_t k = 0; k < pts.size(); ++k)
          ASSERT_NEAR(out[k], 1.0, 5e-3)  // cos(0) + sin(0/2pi) = 1
              << "p=" << p << " n=" << n << " k=" << k;
      }
    });
  }
}

TEST(InterpPlan, BatchedMatchesSequentialBitwise) {
  // interpolate_many must produce bit-identical values to one interpolate
  // per field: same stencils, same evaluation order per point.
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, {16, 12, 10}, 2, 2);
    const index_t n = decomp.local_real_size();
    constexpr int kFields = 3;
    std::array<grid::ScalarField, kFields> fields;
    for (int f = 0; f < kFields; ++f) {
      fields[f].resize(n);
      for (index_t i = 0; i < n; ++i)
        fields[f][i] =
            static_cast<real_t>(((i + 7 * f) * 2654435761u) % 1000) / 1000;
    }
    std::vector<Vec3> pts;
    std::mt19937 rng(31 + comm.rank());
    std::uniform_real_distribution<real_t> dist(0, kTwoPi);
    for (int k = 0; k < 60; ++k)
      pts.push_back({dist(rng), dist(rng), dist(rng)});

    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, pts);

    std::array<std::vector<real_t>, kFields> seq, bat;
    for (int f = 0; f < kFields; ++f) {
      seq[f].resize(pts.size());
      bat[f].resize(pts.size());
      plan.interpolate(gx, fields[f], seq[f]);
    }
    const real_t* in[kFields] = {fields[0].data(), fields[1].data(),
                                 fields[2].data()};
    real_t* out[kFields] = {bat[0].data(), bat[1].data(), bat[2].data()};
    plan.interpolate_many(gx, std::span<const real_t* const>(in, kFields),
                          std::span<real_t* const>(out, kFields));
    for (int f = 0; f < kFields; ++f)
      for (size_t k = 0; k < pts.size(); ++k)
        ASSERT_EQ(seq[f][k], bat[f][k]) << "field " << f << " point " << k;
  });
}

TEST(InterpPlan, RebuildWithSamePointsIsBitwiseDeterministic) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, {16, 16, 16});
    grid::ScalarField field(decomp.local_real_size());
    for (size_t i = 0; i < field.size(); ++i)
      field[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 1000;
    std::vector<Vec3> pts = {{0.3, 1.2, 4.4}, {5.9, 0.1, 2.2},
                             {2.5, 3.3, 0.7}};
    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, pts);
    std::vector<real_t> out1(pts.size()), out2(pts.size());
    plan.interpolate(gx, field, out1);
    plan.build(pts);  // rebuild with identical points
    plan.interpolate(gx, field, out2);
    EXPECT_EQ(plan.build_count(), 2);
    for (size_t k = 0; k < pts.size(); ++k) ASSERT_EQ(out1[k], out2[k]);
  });
}

TEST(InterpPlan, ExchangeCountsAreFixedPerOperation) {
  // The comm schedule of the plan: 2 collective exchanges per build (counts
  // alltoall + coordinate alltoallv), 1 per interpolate, and 1 per
  // interpolate_many REGARDLESS of the batch size. p covers 1, 2, 4, 6.
  for (int p : {1, 2, 4, 6}) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      grid::PencilDecomp decomp(comm, {18, 12, 16});
      const index_t n = decomp.local_real_size();
      grid::ScalarField f0(n, 1.0), f1(n, 2.0), f2(n, 3.0);
      std::vector<real_t> o0(5), o1(5), o2(5);
      std::vector<Vec3> pts;
      for (int k = 0; k < 5; ++k)
        pts.push_back({0.5 + k + 0.1 * comm.rank(), 1.0 + k, 2.0 + k});
      grid::GhostExchange gx(decomp, kGhostWidth);

      comm.timings().clear();
      InterpPlan plan(decomp, pts);
      EXPECT_EQ(comm.timings().exchanges(TimeKind::kInterpComm), 2u)
          << "p=" << p;
      plan.interpolate(gx, f0, o0);
      EXPECT_EQ(comm.timings().exchanges(TimeKind::kInterpComm), 3u)
          << "p=" << p;
      const real_t* in[3] = {f0.data(), f1.data(), f2.data()};
      real_t* out[3] = {o0.data(), o1.data(), o2.data()};
      plan.interpolate_many(gx, std::span<const real_t* const>(in, 3),
                            std::span<real_t* const>(out, 3));
      EXPECT_EQ(comm.timings().exchanges(TimeKind::kInterpComm), 4u)
          << "p=" << p;
    });
  }
}

TEST(InterpPlan, SteadyStateInterpolationIsAllocationFree) {
  // After the plan and the ghost scratch are warm, interpolate,
  // interpolate_many, and a same-size rebuild must not touch the heap
  // (single rank: the mailbox transport itself is out of the picture).
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, {16, 16, 16});
    const index_t n = decomp.local_real_size();
    grid::ScalarField fa(n), fb(n), fc(n);
    for (index_t i = 0; i < n; ++i) {
      fa[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 1000;
      fb[i] = fa[i] * 0.5 + 0.1;
      fc[i] = fa[i] * fa[i];
    }
    std::vector<Vec3> pts;
    std::mt19937 rng(11);
    std::uniform_real_distribution<real_t> dist(0, kTwoPi);
    for (int k = 0; k < 200; ++k)
      pts.push_back({dist(rng), dist(rng), dist(rng)});
    std::vector<real_t> oa(pts.size()), ob(pts.size()), oc(pts.size());
    const real_t* in[3] = {fa.data(), fb.data(), fc.data()};
    real_t* out[3] = {oa.data(), ob.data(), oc.data()};

    grid::GhostExchange gx(decomp, kGhostWidth);
    InterpPlan plan(decomp, pts);
    // Warm-up: grows the ghost/value scratch once.
    plan.interpolate(gx, fa, oa);
    plan.interpolate_many(gx, std::span<const real_t* const>(in, 3),
                          std::span<real_t* const>(out, 3));

    long long single = -1, many = -1, rebuild = -1;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    plan.interpolate(gx, fa, oa);
    single = g_alloc_count.exchange(0);
    plan.interpolate_many(gx, std::span<const real_t* const>(in, 3),
                          std::span<real_t* const>(out, 3));
    many = g_alloc_count.exchange(0);
    plan.build(pts);
    rebuild = g_alloc_count.exchange(0);
    g_count_allocs.store(false);

    EXPECT_EQ(single, 0) << "interpolate allocated";
    EXPECT_EQ(many, 0) << "interpolate_many allocated";
    EXPECT_EQ(rebuild, 0) << "same-size plan rebuild allocated";
  });
}

TEST(InterpPlan, ValueExchangeHidesWireTime) {
  // The SELF points are evaluated under the value alltoallv's flight, so
  // for p > 1 some wire time must surface as hidden.
  const Int3 dims{16, 14, 12};
  for (auto [p1, p2] : {std::pair{2, 1}, {2, 2}, {3, 2}}) {
    auto timings = mpisim::run_spmd(
        p1 * p2, [&, p1 = p1, p2 = p2](mpisim::Communicator& comm) {
          grid::PencilDecomp decomp(comm, dims, p1, p2);
          grid::ScalarField field(decomp.local_real_size(), 1.0);
          // Points spread across ranks (cross-rank) plus SELF-owned ones.
          std::vector<Vec3> pts;
          std::mt19937 rng(41 + comm.rank());
          std::uniform_real_distribution<real_t> dist(0, kTwoPi);
          for (int k = 0; k < 64; ++k)
            pts.push_back({dist(rng), dist(rng), dist(rng)});
          grid::GhostExchange gx(decomp, kGhostWidth);
          InterpPlan plan(decomp, pts);
          std::vector<real_t> out(pts.size());
          comm.timings().clear();
          plan.interpolate(gx, field, out);
        });
    double hidden = 0;
    for (const auto& t : timings) hidden += t.hidden(TimeKind::kInterpComm);
    EXPECT_GT(hidden, 0.0) << "p1=" << p1 << " p2=" << p2;
  }
}

}  // namespace
}  // namespace diffreg::interp

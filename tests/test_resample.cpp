// Tests for the distributed spectral grid transfer (ResamplePlan over two
// grids' SpectralOps) and the multilevel grid continuation built on it:
// cross-checks against the old serial gather-to-all reference,
// restrict/prolong identities, zero warm allocations, exact exchange
// counts, and the coarse-to-fine pyramid.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/continuation.hpp"
#include "fft/fft3d_serial.hpp"
#include "grid/field_io.hpp"
#include "imaging/synthetic.hpp"
#include "mpisim/communicator.hpp"
#include "spectral/resample.hpp"

// Global allocation counter backing the zero-allocation assertions below
// (same pattern as test_interp: replacing global operator new/delete is the
// only portable way to observe heap traffic).
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

namespace diffreg::spectral {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;

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

/// The pre-distributed algorithm, kept verbatim as the reference: gather the
/// full field on every rank, serial 3D FFT, copy every mode strictly below
/// the Nyquist limit of both grids, serial inverse, extract the local block.
ScalarField serial_reference_resample(PencilDecomp& src,
                                      std::span<const real_t> field,
                                      PencilDecomp& dst) {
  using fft::fft_frequency;
  const Int3 sd = src.dims();
  const Int3 dd = dst.dims();

  auto full = grid::gather_to_all(src, field);
  fft::SerialFft3d fft_src(sd);
  std::vector<complex_t> spec_src(fft_src.spectral_size());
  fft_src.forward(full, spec_src);

  fft::SerialFft3d fft_dst(dd);
  std::vector<complex_t> spec_dst(fft_dst.spectral_size(), complex_t(0, 0));
  const Int3 ssd = fft_src.spectral_dims();
  const Int3 dsd = fft_dst.spectral_dims();
  const real_t scale =
      static_cast<real_t>(dd.prod()) / static_cast<real_t>(sd.prod());

  auto below_nyquist = [](index_t f, index_t n) { return 2 * std::abs(f) < n; };
  for (index_t a = 0; a < dsd[0]; ++a) {
    const index_t f1 = fft_frequency(a, dd[0]);
    if (!below_nyquist(f1, dd[0]) || !below_nyquist(f1, sd[0])) continue;
    const index_t sa = periodic_index(f1, sd[0]);
    for (index_t b = 0; b < dsd[1]; ++b) {
      const index_t f2 = fft_frequency(b, dd[1]);
      if (!below_nyquist(f2, dd[1]) || !below_nyquist(f2, sd[1])) continue;
      const index_t sb = periodic_index(f2, sd[1]);
      for (index_t c = 0; c < dsd[2]; ++c) {
        if (!below_nyquist(c, dd[2]) || !below_nyquist(c, sd[2])) continue;
        spec_dst[linear_index(a, b, c, dsd)] =
            scale * spec_src[linear_index(sa, sb, c, ssd)];
      }
    }
  }

  std::vector<real_t> full_dst(dd.prod());
  fft_dst.inverse(spec_dst, full_dst);

  const Int3 ld = dst.local_real_dims();
  ScalarField local(dst.local_real_size());
  index_t pos = 0;
  for (index_t a = 0; a < ld[0]; ++a)
    for (index_t b = 0; b < ld[1]; ++b)
      for (index_t c = 0; c < ld[2]; ++c)
        local[pos++] = full_dst[linear_index(dst.range1().begin + a,
                                             dst.range2().begin + b, c, dd)];
  return local;
}

/// One-shot transfer of `field` from src's grid to dst's over a throwaway
/// plan.
ScalarField resample(SpectralOps& src, std::span<const real_t> field,
                     SpectralOps& dst) {
  ResamplePlan plan(src, dst);
  ScalarField out(dst.local_size());
  plan.apply(field, out);
  return out;
}

ScalarField pseudo_random_field(PencilDecomp& d, unsigned seed) {
  ScalarField out(d.local_real_size());
  const Int3 ld = d.local_real_dims();
  index_t idx = 0;
  for (index_t a = 0; a < ld[0]; ++a)
    for (index_t b = 0; b < ld[1]; ++b)
      for (index_t c = 0; c < ld[2]; ++c, ++idx) {
        // Deterministic hash of the GLOBAL index so every p produces the
        // same field.
        const std::uint64_t g =
            static_cast<std::uint64_t>(
                linear_index(d.range1().begin + a, d.range2().begin + b, c,
                             d.dims())) *
                2654435761u +
            seed;
        out[idx] = static_cast<real_t>(g % 10000) / 10000 - real_t(0.5);
      }
  return out;
}

TEST(Resample, MatchesSerialReferenceAcrossRanksAndDims) {
  struct Case {
    Int3 src, dst;
  };
  const Case cases[] = {
      {{16, 16, 16}, {8, 8, 8}},    // even restriction
      {{8, 8, 8}, {16, 16, 16}},    // even prolongation
      {{9, 15, 7}, {7, 9, 5}},      // odd -> odd
      {{7, 9, 5}, {9, 15, 7}},      // odd prolongation
      {{12, 10, 9}, {8, 7, 6}},     // mixed parity
  };
  for (int p : {1, 2, 4, 6}) {
    for (const auto& cs : cases) {
      mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
        PencilDecomp src(comm, cs.src);
        PencilDecomp dst(comm, cs.dst);
        SpectralOps src_ops(src), dst_ops(dst);
        auto field = pseudo_random_field(src, 17);
        auto got = resample(src_ops, field, dst_ops);
        auto want = serial_reference_resample(src, field, dst);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i)
          ASSERT_NEAR(got[i], want[i], 1e-10)
              << "p=" << p << " src=" << cs.src[0] << "," << cs.src[1] << ","
              << cs.src[2] << " dst=" << cs.dst[0] << "," << cs.dst[1] << ","
              << cs.dst[2] << " i=" << i;
      });
    }
  }
}

TEST(Resample, BandLimitedFieldTransfersExactlyBothWays) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp fine(comm, {16, 16, 16});
    PencilDecomp coarse(comm, {8, 8, 8});
    SpectralOps fine_ops(fine), coarse_ops(coarse);
    // Band limited for BOTH grids: |k| <= 2 < 8/2.
    auto f = [](real_t x1, real_t x2, real_t x3) {
      return 1.5 + std::sin(x1) * std::cos(2 * x2) + std::cos(x3);
    };
    auto on_fine = fill(fine, f);
    auto on_coarse = fill(coarse, f);

    auto restricted = resample(fine_ops, on_fine, coarse_ops);
    for (size_t i = 0; i < restricted.size(); ++i)
      ASSERT_NEAR(restricted[i], on_coarse[i], 1e-11);

    auto prolonged = resample(coarse_ops, on_coarse, fine_ops);
    for (size_t i = 0; i < prolonged.size(); ++i)
      ASSERT_NEAR(prolonged[i], on_fine[i], 1e-11);
  });
}

TEST(Resample, CoarseningRemovesOnlyHighFrequencies) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp fine(comm, {16, 16, 16});
    PencilDecomp coarse(comm, {8, 8, 8});
    SpectralOps fine_ops(fine), coarse_ops(coarse);
    // Low mode (k=1, survives) + high mode (k=6 >= coarse Nyquist 4, dies).
    auto on_fine = fill(fine, [](real_t x1, real_t, real_t) {
      return std::sin(x1) + std::sin(6 * x1);
    });
    auto restricted = resample(fine_ops, on_fine, coarse_ops);
    auto expected = fill(coarse, [](real_t x1, real_t, real_t) {
      return std::sin(x1);
    });
    for (size_t i = 0; i < restricted.size(); ++i)
      ASSERT_NEAR(restricted[i], expected[i], 1e-11);
  });
}

TEST(Resample, AnisotropicGridsSupported) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp src(comm, {12, 16, 8});
    PencilDecomp dst(comm, {8, 12, 12});
    SpectralOps src_ops(src), dst_ops(dst);
    auto f = [](real_t x1, real_t x2, real_t x3) {
      return std::cos(x1) + std::sin(x2) * std::cos(x3);
    };
    auto resampled = resample(src_ops, fill(src, f), dst_ops);
    auto expected = fill(dst, f);
    for (size_t i = 0; i < resampled.size(); ++i)
      ASSERT_NEAR(resampled[i], expected[i], 1e-11);
  });
}

TEST(Resample, ProlongThenRestrictIsIdentityOnBandLimitedFields) {
  // On odd coarse dims EVERY mode is strictly below the Nyquist limit, so
  // an arbitrary field is band limited and zero padding followed by
  // truncation must return it exactly.
  for (int p : {1, 4}) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      PencilDecomp coarse(comm, {9, 7, 7});
      PencilDecomp fine(comm, {18, 16, 13});
      SpectralOps coarse_ops(coarse), fine_ops(fine);
      auto field = pseudo_random_field(coarse, 3);
      ResamplePlan prolong(coarse_ops, fine_ops),
          restrict_plan(fine_ops, coarse_ops);
      ScalarField up(fine.local_real_size()), back(coarse.local_real_size());
      prolong.apply(field, up);
      restrict_plan.apply(up, back);
      for (size_t i = 0; i < field.size(); ++i)
        ASSERT_NEAR(back[i], field[i], 1e-11) << "p=" << p;
    });
  }
}

TEST(Resample, RestrictAfterProlongIsIdempotent) {
  // With even coarse axes the transfer legitimately drops the coarse
  // Nyquist modes, so prolong-restrict is not the identity on arbitrary
  // fields — but it IS a spectral projector: one roundtrip band-limits the
  // field, and a second roundtrip must reproduce it exactly.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp coarse(comm, {8, 10, 6});
    PencilDecomp fine(comm, {16, 20, 12});
    SpectralOps coarse_ops(coarse), fine_ops(fine);
    auto field = pseudo_random_field(coarse, 9);
    ResamplePlan prolong(coarse_ops, fine_ops),
        restrict_plan(fine_ops, coarse_ops);
    ScalarField up(fine.local_real_size());
    ScalarField once(coarse.local_real_size()), twice(coarse.local_real_size());
    prolong.apply(field, up);
    restrict_plan.apply(up, once);  // band-limited from here on
    prolong.apply(once, up);
    restrict_plan.apply(up, twice);
    for (size_t i = 0; i < once.size(); ++i)
      ASSERT_NEAR(twice[i], once[i], 1e-11);
  });
}

TEST(Resample, ApplyManyMatchesScalarApplies) {
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp src(comm, {12, 10, 9});
    PencilDecomp dst(comm, {8, 8, 6});
    SpectralOps src_ops(src), dst_ops(dst);
    auto fa = pseudo_random_field(src, 1);
    auto fb = pseudo_random_field(src, 2);
    auto fc = pseudo_random_field(src, 3);
    ResamplePlan plan(src_ops, dst_ops);
    const index_t n = dst.local_real_size();
    ScalarField oa(n), ob(n), oc(n), ra(n), rb(n), rc(n);
    const real_t* ins[3] = {fa.data(), fb.data(), fc.data()};
    real_t* outs[3] = {oa.data(), ob.data(), oc.data()};
    plan.apply_many(std::span<const real_t* const>(ins, 3),
                    std::span<real_t* const>(outs, 3));
    plan.apply(fa, ra);
    plan.apply(fb, rb);
    plan.apply(fc, rc);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(oa[i], ra[i]);  // batched == sequential, bitwise
      ASSERT_EQ(ob[i], rb[i]);
      ASSERT_EQ(oc[i], rc[i]);
    }
  });
}

TEST(Resample, ExactlyFiveExchangesPerApplyRegardlessOfBatchAndRanks) {
  // 2 (forward FFT) + 1 (spectral remap) + 2 (inverse FFT) alltoallv per
  // apply — independent of the component count (batching) and of p.
  for (int p : {1, 2, 4, 6}) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      PencilDecomp src(comm, {12, 16, 8});
      PencilDecomp dst(comm, {8, 12, 12});
      SpectralOps src_ops(src), dst_ops(dst);
      ResamplePlan plan(src_ops, dst_ops);
      auto fa = pseudo_random_field(src, 5);
      auto fb = pseudo_random_field(src, 6);
      auto fc = pseudo_random_field(src, 7);
      const index_t n = dst.local_real_size();
      ScalarField oa(n), ob(n), oc(n);

      auto before = comm.timings().exchanges(TimeKind::kFftComm);
      plan.apply(fa, oa);
      EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm) - before, 5u)
          << "scalar apply, p=" << p;

      const real_t* ins[3] = {fa.data(), fb.data(), fc.data()};
      real_t* outs[3] = {oa.data(), ob.data(), oc.data()};
      before = comm.timings().exchanges(TimeKind::kFftComm);
      plan.apply_many(std::span<const real_t* const>(ins, 3),
                      std::span<real_t* const>(outs, 3));
      EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm) - before, 5u)
          << "3-component apply_many, p=" << p;
    });
  }
}

TEST(Resample, WarmPlanAppliesAreAllocationFree) {
  // After one warm-up apply, scalar and batched transfers must not touch
  // the heap (single rank: the mailbox transport itself is out of the
  // picture). This is the per-rank O(N/p) memory contract: everything the
  // transfer needs is owned by the plan or by the FFT plans of the two
  // grids' SpectralOps, which it shares.
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp src(comm, {16, 16, 16});
    PencilDecomp dst(comm, {8, 8, 8});
    SpectralOps src_ops(src), dst_ops(dst);
    ResamplePlan plan(src_ops, dst_ops);
    auto fa = pseudo_random_field(src, 11);
    auto fb = pseudo_random_field(src, 12);
    auto fc = pseudo_random_field(src, 13);
    const index_t n = dst.local_real_size();
    ScalarField oa(n), ob(n), oc(n);
    const real_t* ins[3] = {fa.data(), fb.data(), fc.data()};
    real_t* outs[3] = {oa.data(), ob.data(), oc.data()};

    plan.apply(fa, oa);  // warm-up
    plan.apply_many(std::span<const real_t* const>(ins, 3),
                    std::span<real_t* const>(outs, 3));

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    plan.apply(fa, oa);
    const long long scalar_allocs = g_alloc_count.exchange(0);
    plan.apply_many(std::span<const real_t* const>(ins, 3),
                    std::span<real_t* const>(outs, 3));
    const long long batched_allocs = g_alloc_count.exchange(0);
    g_count_allocs.store(false);

    EXPECT_EQ(scalar_allocs, 0) << "scalar apply allocated";
    EXPECT_EQ(batched_allocs, 0) << "apply_many allocated";
  });
}

// --------------------------------------------------------------------------
// Grid continuation on the distributed transfer.

TEST(GridContinuation, CoarseWarmStartHelpsTheFineSolve) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp fine(comm, {24, 24, 24});
    spectral::SpectralOps ops(fine);
    auto rho_t = imaging::synthetic_template(fine);
    auto v_star = imaging::synthetic_velocity(fine, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 10;

    core::RegistrationSolver cold_solver(fine, opt);
    auto cold = cold_solver.run(rho_t, rho_r);

    core::MultilevelOptions mopt;
    mopt.levels = 2;
    auto two_level = core::run_multilevel_continuation(fine, opt, rho_t, rho_r,
                                                       mopt);

    // The two-level fine solve must reach a comparable fit with no more
    // fine-grid work than the cold start.
    EXPECT_LE(two_level.fine.newton.total_matvecs,
              cold.newton.total_matvecs);
    EXPECT_LT(two_level.fine.rel_residual, cold.rel_residual + 0.05);
    EXPECT_GT(two_level.fine.min_det, 0.0);
    // And the coarse stage did real work.
    EXPECT_GT(two_level.solves.front().matvecs, 0);
  });
}

TEST(Multilevel, ThreeLevelPyramidReachesTheFitWithLessFineWork) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp fine(comm, {24, 24, 24});
    spectral::SpectralOps ops(fine);
    auto rho_t = imaging::synthetic_template(fine);
    auto v_star = imaging::synthetic_velocity(fine, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 10;

    core::RegistrationSolver cold_solver(fine, opt);
    auto cold = cold_solver.run(rho_t, rho_r);

    core::MultilevelOptions mopt;
    mopt.levels = 3;
    mopt.coarsest_dim = 6;
    auto ml = core::run_multilevel_continuation(fine, opt, rho_t, rho_r,
                                                mopt);

    ASSERT_EQ(ml.solves.size(), 3u);  // 24 -> 12 -> 6, coarsest first
    EXPECT_EQ(ml.solves[0].dims, (Int3{6, 6, 6}));
    EXPECT_EQ(ml.solves[1].dims, (Int3{12, 12, 12}));
    EXPECT_EQ(ml.solves[2].dims, (Int3{24, 24, 24}));
    EXPECT_GT(ml.gradient_reference, 0);
    EXPECT_GT(ml.solves.front().matvecs, 0);

    // The warm start absorbs outer iterations on the coarse grids: the fine
    // level needs strictly fewer Newton iterations (its PCG may spend a few
    // extra matvecs inside one tighter forcing-term solve, so matvecs get a
    // small slack).
    EXPECT_LT(ml.fine.newton.iterations, cold.newton.iterations);
    EXPECT_LE(ml.fine.newton.total_matvecs, cold.newton.total_matvecs + 2);
    EXPECT_TRUE(ml.fine.newton.converged);
    EXPECT_LT(ml.fine.rel_residual, cold.rel_residual + 0.05);
    EXPECT_GT(ml.fine.min_det, 0.0);
  });
}

TEST(Multilevel, OddDimsSupported) {
  // The old two-level driver threw std::invalid_argument on odd dims; the
  // pyramid handles them through the resample's Nyquist rules.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp fine(comm, {10, 9, 12});
    spectral::SpectralOps ops(fine);
    auto rho_t = imaging::synthetic_template(fine);
    auto v_star = imaging::synthetic_velocity(fine, 0.3);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.max_newton_iters = 2;
    opt.gtol = 0.5;

    core::MultilevelOptions mopt;
    mopt.levels = 2;
    mopt.coarsest_dim = 4;
    auto ml = core::run_multilevel_continuation(fine, opt, rho_t, rho_r,
                                                mopt);
    ASSERT_EQ(ml.solves.size(), 2u);
    EXPECT_EQ(ml.solves[0].dims, (Int3{5, 5, 6}));
    EXPECT_TRUE(std::isfinite(ml.fine.rel_residual));
    EXPECT_LT(ml.fine.rel_residual, 1.0);
    EXPECT_GT(ml.fine.min_det, 0.0);
  });
}

TEST(Multilevel, ComposesWithBetaContinuation) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp fine(comm, {16, 16, 16});
    spectral::SpectralOps ops(fine);
    auto rho_t = imaging::synthetic_template(fine);
    auto v_star = imaging::synthetic_velocity(fine, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.max_newton_iters = 4;
    core::MultilevelOptions mopt;
    mopt.levels = 2;
    mopt.coarsest_dim = 8;
    core::ContinuationOptions copt;
    copt.beta_start = 1e-1;
    copt.beta_target = 1e-3;
    mopt.coarse_beta_cont = copt;

    auto ml = core::run_multilevel_continuation(fine, opt, rho_t, rho_r,
                                                mopt);
    // The coarse beta continuation determines the beta of every finer
    // level; the fine solve runs at that beta, not at opt.beta.
    EXPECT_LE(ml.final_beta, copt.beta_start);
    EXPECT_GE(ml.final_beta, copt.beta_target);
    EXPECT_EQ(ml.solves.back().beta, ml.final_beta);
    EXPECT_LT(ml.fine.rel_residual, 1.0);
    EXPECT_GT(ml.fine.min_det, 0.0);
  });
}

}  // namespace
}  // namespace diffreg::spectral

// Kernel microbenchmarks (google-benchmark) backing the paper's section
// III-C complexity discussion, plus ablations:
//
//  * batched 1D FFT rows at the brain-48 axes (48, 56), a power of two and
//    the paper's 300
//  * 3D FFT forward/inverse (the O(N^3 log N) spectral workhorse), on cubes
//    and on brain-48's mixed-radix 48x56x48 grid
//  * spectral gradient (1 forward + 3 inverse FFTs, the fused variant)
//  * tricubic evaluation sweep over precomputed stencils, 1 and 3 fields
//    with the host's body, 1 with the portable one (the paper's ~600
//    flops/point estimate)
//  * interpolation plan: build (scatter phase) vs execute (reuse) — the
//    paper's "once per field per Newton iteration" optimization
//  * tricubic vs trilinear execution cost
//  * Hessian matvec: Gauss-Newton vs full Newton
//  * ghost-layer exchange
//  * mpisim collectives (allreduce/broadcast wall-time vs rank count), so
//    comm-path regressions show up before they skew the Tables I-IV splits
#include <benchmark/benchmark.h>

#include <array>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

using namespace diffreg;

namespace {

/// Single-rank world reused by all benchmarks of one size.
struct World {
  Timings timings;
  mpisim::Communicator comm;
  grid::PencilDecomp decomp;
  spectral::SpectralOps ops;

  explicit World(const Int3& dims)
      : comm(mpisim::single_rank(timings)), decomp(comm, dims), ops(decomp) {}
};

World& world(const Int3& dims) {
  static std::map<std::array<index_t, 3>, std::unique_ptr<World>> cache;
  auto& slot = cache[{dims[0], dims[1], dims[2]}];
  if (!slot) slot = std::make_unique<World>(dims);
  return *slot;
}

World& world(index_t n) { return world(Int3{n, n, n}); }

void BM_Fft1dBatch(benchmark::State& state) {
  // One out-of-place unnormalized inverse from a fixed input, then an
  // in-place forward, over 256 KB of rows (values stay bounded).
  const index_t n = state.range(0);
  const index_t rows = (1 << 14) / n;
  fft::Fft1d plan(n);
  std::vector<complex_t> src(rows * n), dst(rows * n);
  for (index_t i = 0; i < rows * n; ++i)
    src[i] = complex_t(static_cast<real_t>((i * 7919) % 1000) / 1000.0,
                       static_cast<real_t>((i * 104729) % 1000) / 1000.0);
  for (auto _ : state) {
    plan.inverse_batch_noscale(src.data(), dst.data(), rows);
    plan.forward_batch(dst.data(), rows);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * n);
}
BENCHMARK(BM_Fft1dBatch)->Arg(48)->Arg(56)->Arg(64)->Arg(300);

void BM_Fft3dForward(benchmark::State& state) {
  World& w = world(state.range(0));
  auto& fft = w.ops.fft();
  std::vector<real_t> x(fft.local_real_size(), 1.0);
  std::vector<complex_t> spec(fft.local_spectral_size());
  for (auto _ : state) {
    fft.forward(x, spec);
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.local_real_size());
}
BENCHMARK(BM_Fft3dForward)->Arg(32)->Arg(64);

void fft3d_round_trip(benchmark::State& state, const Int3& dims) {
  World& w = world(dims);
  auto& fft = w.ops.fft();
  std::vector<real_t> x(fft.local_real_size(), 1.0);
  std::vector<complex_t> spec(fft.local_spectral_size());
  for (auto _ : state) {
    fft.forward(x, spec);
    fft.inverse(spec, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.local_real_size());
}

void BM_Fft3dRoundTrip(benchmark::State& state) {
  const index_t n = state.range(0);
  fft3d_round_trip(state, Int3{n, n, n});
}
BENCHMARK(BM_Fft3dRoundTrip)->Arg(32)->Arg(64);

void BM_Fft3dRoundTripBrainGrid(benchmark::State& state) {
  // brain-48's grid: 48 = 2^4*3 and 56 = 2^3*7, so every axis is mixed
  // radix.
  fft3d_round_trip(state, Int3{48, 56, 48});
}
BENCHMARK(BM_Fft3dRoundTripBrainGrid);

void BM_Fft3dInverseMany(benchmark::State& state) {
  // Batched 3-component inverse (one exchange schedule for the whole vector
  // field) vs. three scalar inverses — the CLAIRE-style batching ablation.
  const bool batched = state.range(1) == 1;
  World& w = world(state.range(0));
  auto& fft = w.ops.fft();
  std::vector<real_t> x(fft.local_real_size(), 1.0);
  std::array<std::vector<complex_t>, 3> spec;
  std::array<std::vector<real_t>, 3> back;
  for (int c = 0; c < 3; ++c) {
    spec[c].resize(fft.local_spectral_size());
    back[c].assign(fft.local_real_size(), 0.0);
    fft.forward(x, spec[c]);
  }
  for (auto _ : state) {
    if (batched) {
      const complex_t* specs[3] = {spec[0].data(), spec[1].data(),
                                   spec[2].data()};
      real_t* reals[3] = {back[0].data(), back[1].data(), back[2].data()};
      fft.inverse_many(std::span<const complex_t* const>(specs),
                       std::span<real_t* const>(reals));
    } else {
      for (int c = 0; c < 3; ++c) fft.inverse(spec[c], back[c]);
    }
    benchmark::DoNotOptimize(back[0].data());
  }
  state.SetLabel(batched ? "batched" : "sequential");
  state.SetItemsProcessed(state.iterations() * 3 * fft.local_real_size());
}
BENCHMARK(BM_Fft3dInverseMany)->Args({32, 0})->Args({32, 1})->Args({64, 0})
    ->Args({64, 1});

void BM_SpectralGradient(benchmark::State& state) {
  World& w = world(state.range(0));
  auto f = imaging::synthetic_template(w.decomp);
  grid::VectorField g(w.decomp.local_real_size());
  for (auto _ : state) {
    w.ops.gradient(f, g);
    benchmark::DoNotOptimize(g[0].data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_SpectralGradient)->Arg(32)->Arg(64);

void BM_TricubicStencilSweep(benchmark::State& state) {
  // The plan's self-point sweep without communication: the stencils of one
  // 64^3 / p = 4 pencil block (32 x 32 x 64 points, ghost width 2),
  // precomputed as at plan build and visited in grid order, each applied to
  // m ghosted fields (arg 0) by interp::cubic_sweep with the body the plan
  // runs on this host (arg 1 = 0) or the portable body (arg 1 = 1). Every
  // departure point sits a smooth sub-cell offset from its grid point, as
  // after a semi-Lagrangian step.
  const int m = static_cast<int>(state.range(0));
  const interp::CubicBody body = state.range(1) == 0
                                     ? interp::cubic_body()
                                     : interp::CubicBody::kPortable;
  const Int3 ld{32, 32, 64};
  const index_t w = interp::kGhostWidth;
  const Int3 gdims{ld[0] + 2 * w, ld[1] + 2 * w, ld[2] + 2 * w};
  const index_t npts = ld.prod();
  std::vector<real_t> ghosted(m * gdims.prod());
  for (size_t i = 0; i < ghosted.size(); ++i)
    ghosted[i] = std::sin(0.01 * static_cast<real_t>(i));
  std::vector<interp::CubicStencil> stencils(npts);
  index_t j = 0;
  for (index_t a = 0; a < ld[0]; ++a)
    for (index_t b = 0; b < ld[1]; ++b)
      for (index_t c = 0; c < ld[2]; ++c, ++j) {
        const real_t s =
            0.4 * std::sin(0.1 * static_cast<real_t>(a + 2 * b + 3 * c));
        interp::make_cubic_stencil(gdims, static_cast<real_t>(a + w) + s,
                                   static_cast<real_t>(b + w) - 0.5 * s,
                                   static_cast<real_t>(c + w) + 0.7 * s,
                                   stencils[j]);
      }
  std::vector<real_t> out(m * npts);
  std::vector<real_t*> outs(m);
  for (int f = 0; f < m; ++f) outs[f] = out.data() + f * npts;
  std::vector<index_t> index(npts);
  for (index_t q = 0; q < npts; ++q) index[q] = q;
  for (auto _ : state) {
    interp::cubic_sweep(body, stencils, ghosted.data(), gdims.prod(), gdims,
                        m, {.index = index.data(), .outs = outs.data()});
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * npts * m);
  state.SetLabel(body == interp::CubicBody::kAvx2 ? "avx2" : "portable");
}
BENCHMARK(BM_TricubicStencilSweep)->Args({1, 0})->Args({3, 0})->Args({1, 1});

void BM_InterpPlanBuild(benchmark::State& state) {
  // The scatter phase the paper amortizes: force a rebuild every iteration
  // by alternating between two velocities (a repeated velocity would hit
  // the plan cache and measure nothing).
  World& w = world(state.range(0));
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  auto va = imaging::synthetic_velocity(w.decomp, 0.5);
  auto vb = imaging::synthetic_velocity(w.decomp, 0.51);
  bool flip = false;
  for (auto _ : state) {
    transport.set_velocity(flip ? va : vb);  // trajectory + two plan builds
    flip = !flip;
    benchmark::DoNotOptimize(&transport);
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_InterpPlanBuild)->Arg(32);

void BM_InterpBatchedVsSequential(benchmark::State& state) {
  // Ablation: 3 fields through one interpolate_many (arg 1) vs three
  // sequential interpolate calls (arg 0) on the same cached plan.
  World& w = world(32);
  const bool batched = state.range(0) == 1;
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  transport.set_velocity(imaging::synthetic_velocity(w.decomp, 0.5));
  const index_t n = w.decomp.local_real_size();
  grid::VectorField f(n), out(n);
  for (index_t i = 0; i < n; ++i)
    for (int d = 0; d < 3; ++d)
      f[d][i] = static_cast<real_t>(((i + d) * 2654435761u) % 1000) / 1000;
  for (auto _ : state) {
    if (batched) {
      transport.interp_vec_at_forward_points(f, out);
    } else {
      for (int d = 0; d < 3; ++d)
        transport.interp_at_forward_points(f[d], out[d]);
    }
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * n);
}
BENCHMARK(BM_InterpBatchedVsSequential)->Arg(0)->Arg(1);

void BM_InterpPlanExecute(benchmark::State& state) {
  // Executing a cached plan (one ghost exchange + eval + return): the fast
  // path taken nt times per transport solve.
  World& w = world(state.range(0));
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  auto v = imaging::synthetic_velocity(w.decomp, 0.5);
  transport.set_velocity(v);
  auto f = imaging::synthetic_template(w.decomp);
  grid::ScalarField out(w.decomp.local_real_size());
  for (auto _ : state) {
    transport.interp_at_forward_points(f, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_InterpPlanExecute)->Arg(32);

void BM_TransportSolveState(benchmark::State& state) {
  // Ablation: tricubic (arg 0) vs trilinear (arg 1) full state solve.
  World& w = world(32);
  semilag::TransportConfig tc;
  tc.method = state.range(0) == 0 ? interp::Method::kTricubic
                                  : interp::Method::kTrilinear;
  semilag::Transport transport(w.ops, tc);
  auto v = imaging::synthetic_velocity(w.decomp, 0.5);
  transport.set_velocity(v);
  auto rho = imaging::synthetic_template(w.decomp);
  for (auto _ : state) {
    transport.solve_state(rho);
    benchmark::DoNotOptimize(&transport);
  }
  state.SetLabel(state.range(0) == 0 ? "tricubic" : "trilinear");
}
BENCHMARK(BM_TransportSolveState)->Arg(0)->Arg(1);

void BM_GhostExchange(benchmark::State& state) {
  World& w = world(state.range(0));
  grid::GhostExchange gx(w.decomp, interp::kGhostWidth);
  auto f = imaging::synthetic_template(w.decomp);
  std::vector<real_t> ghosted;
  for (auto _ : state) {
    gx.exchange(f, ghosted);
    benchmark::DoNotOptimize(ghosted.data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_GhostExchange)->Arg(32)->Arg(64);

void BM_HessianMatvec(benchmark::State& state) {
  // Ablation: Gauss-Newton (arg 0) vs full Newton (arg 1) matvec cost.
  const bool gauss_newton = state.range(0) == 0;
  World& w = world(32);
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  core::Regularization reg(w.ops, core::RegType::kH2Seminorm, 1e-2);
  auto rho_t = imaging::synthetic_template(w.decomp);
  auto v_star = imaging::synthetic_velocity(w.decomp, 0.4);
  auto rho_r = imaging::make_reference(w.ops, rho_t, v_star);
  core::OptimalitySystem system(w.ops, transport, reg, rho_t, rho_r, false,
                                gauss_newton);
  auto v = imaging::synthetic_velocity(w.decomp, 0.2);
  system.evaluate(v);
  grid::VectorField g(w.decomp.local_real_size());
  system.gradient(g);
  auto dir = imaging::synthetic_velocity_divfree(w.decomp, 0.3);
  grid::VectorField out(w.decomp.local_real_size());
  for (auto _ : state) {
    system.hessian_matvec(dir, out);
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetLabel(gauss_newton ? "gauss-newton" : "full-newton");
}
BENCHMARK(BM_HessianMatvec)->Arg(0)->Arg(1);

// Rounds per run_spmd launch in the collectives benchmarks: enough that the
// p-thread spawn/join cost is amortized to noise and the timing isolates the
// collective itself.
constexpr int kCollectiveRounds = 1024;

void BM_AllreduceScalar(benchmark::State& state) {
  // Comm-path regression guard: recursive-doubling scalar allreduce
  // wall-time vs rank count p (the per-iteration norm/dot pattern of PCG).
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      real_t acc = comm.rank() + 1.0;
      for (int round = 0; round < kCollectiveRounds; ++round)
        acc = comm.allreduce_sum(acc);
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(state.iterations() * kCollectiveRounds);
}
BENCHMARK(BM_AllreduceScalar)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_AllreduceVector(benchmark::State& state) {
  // Reduce-then-broadcast vector allreduce on a batch of field norms.
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      std::vector<real_t> norms(8, comm.rank() + 0.5);
      for (int round = 0; round < kCollectiveRounds; ++round)
        comm.allreduce_sum(norms);
      benchmark::DoNotOptimize(norms.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * kCollectiveRounds);
}
BENCHMARK(BM_AllreduceVector)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_BroadcastTree(benchmark::State& state) {
  // Binomial-tree broadcast of a pencil-sized buffer vs rank count p.
  const int p = static_cast<int>(state.range(0));
  const size_t n = 1 << 14;  // 128 KiB of doubles
  const int rounds = 64;     // fewer rounds: each one moves (p-1)*128 KiB
  for (auto _ : state) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      std::vector<real_t> buf;
      if (comm.rank() == 0) buf.assign(n, 1.0);
      for (int round = 0; round < rounds; ++round) comm.broadcast(buf, 0);
      benchmark::DoNotOptimize(buf.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * n);
}
BENCHMARK(BM_BroadcastTree)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_LerayProjection(benchmark::State& state) {
  World& w = world(state.range(0));
  auto v = imaging::synthetic_velocity(w.decomp, 1.0);
  for (auto _ : state) {
    w.ops.leray_project(v);
    benchmark::DoNotOptimize(v[0].data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_LerayProjection)->Arg(32);

}  // namespace

BENCHMARK_MAIN();

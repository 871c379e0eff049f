// Shared harness for the paper-reproduction benchmarks: runs one
// registration case under mpisim and reports the columns of the paper's
// tables (time to solution, FFT comm/exec, interpolation comm/exec).
//
// Scaling note: the container these benches run in reports 4 cores
// (`nproc`) and has no MPI, so rank counts beyond 4 oversubscribe; the
// tables reproduce the paper's *structure* (who wins, comm/exec split,
// trends), not TACC's absolute numbers. Grid sizes are scaled down from the paper's 64^3-1024^3
// to 32^3-96^3 so every binary finishes in seconds to a few minutes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <mutex>
#include <span>

#include "core/diffreg.hpp"
#include "fft/fft3d_distributed.hpp"
#include "imaging/synthetic.hpp"

// Arch flag set the bench binaries were compiled with (see the top-level
// DIFFREG_NATIVE_ARCH option); recorded in every bench JSON so numbers from
// differently-tuned builds are never compared blindly.
#ifndef DIFFREG_ARCH_FLAGS
#define DIFFREG_ARCH_FLAGS "default"
#endif

namespace diffreg::bench {

inline const char* arch_flags() { return DIFFREG_ARCH_FLAGS; }

enum class Workload { kSynthetic, kSyntheticDivFree, kBrain };

// ---------------------------------------------------------------------------
// Shared trajectory cases of the fft/semilag reporters; callers pick which
// wall times / Timings counters to publish.

/// Slowest-rank wall times of one distributed-FFT case plus the summed
/// per-rank Timings of `reps` forward + `reps` inverse transforms.
struct FftCaseResult {
  double forward_ms = 0;
  double inverse_ms = 0;
  Timings agg;  // sum over ranks; normalize by 2 * reps * p for per-rank
};

/// `guard` adds the --guard validate_finite sweep after every transform (the
/// granularity the solver uses), so the "guard" bench leg prices the
/// safeguard on the hottest kernel. The sweep's allreduce self-charges to
/// kOther, so the published kFftComm counters match the unguarded leg.
inline FftCaseResult run_fft_trajectory_case(const Int3& dims, int p,
                                             int reps, bool guard = false) {
  FftCaseResult out;
  double fwd_max = 0, inv_max = 0;
  auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    fft::DistributedFft3d fft(decomp);
    std::vector<real_t> x(fft.local_real_size());
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      x[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 1000.0;
    std::vector<complex_t> spec(fft.local_spectral_size());
    const auto spec_as_real = [&] {
      return std::span<const real_t>(
          reinterpret_cast<const real_t*>(spec.data()), 2 * spec.size());
    };

    fft.forward(x, spec);  // warm-up
    fft.inverse(spec, x);
    comm.timings().clear();

    WallTimer t;
    for (int r = 0; r < reps; ++r) {
      fft.forward(x, spec);
      if (guard) grid::validate_finite(decomp, spec_as_real(), "fft forward");
    }
    const double fwd = t.seconds() / reps;
    t.reset();
    for (int r = 0; r < reps; ++r) {
      fft.inverse(spec, x);
      if (guard) grid::validate_finite(decomp, x, "fft inverse");
    }
    const double inv = t.seconds() / reps;

    static std::mutex mu;
    std::scoped_lock lock(mu);
    fwd_max = std::max(fwd_max, fwd);
    inv_max = std::max(inv_max, inv);
  });
  for (const auto& t : timings) out.agg += t;
  out.forward_ms = fwd_max * 1e3;
  out.inverse_ms = inv_max * 1e3;
  return out;
}

/// Slowest-rank wall times of the semi-Lagrangian trajectory case (plan
/// build, cached-plan state solve, GN matvec transports, batched vec3
/// interpolation) plus the summed per-rank Timings delta of the matvec
/// loop (normalize by reps * p for per-rank per-matvec).
struct SemilagCaseResult {
  double plan_build_ms = 0;
  double state_ms = 0;
  double matvec_ms = 0;
  double interp_vec3_ms = 0;
  Timings matvec_agg;
};

/// `guard` mirrors the solver's --guard sweep cadence on the transport path:
/// one validate_finite per timed solve/matvec/interp result. Its allreduce
/// self-charges to kOther, keeping the kInterpComm counters comparable.
inline SemilagCaseResult run_semilag_trajectory_case(index_t n, int p,
                                                     int reps,
                                                     bool guard = false) {
  SemilagCaseResult out;
  const Int3 dims{n, n, n};
  double build_max = 0, state_max = 0, matvec_max = 0, vec3_max = 0;
  Timings agg;
  std::mutex mu;
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    spectral::SpectralOps ops(decomp);
    semilag::TransportConfig tc;
    tc.nt = 4;
    semilag::Transport transport(ops, tc);

    auto rho0 = imaging::synthetic_template(decomp);
    auto va = imaging::synthetic_velocity(decomp, 0.5);
    auto vb = imaging::synthetic_velocity(decomp, 0.52);
    auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);

    // Warm-up: builds the plans and grows every scratch buffer once.
    grid::ScalarField rho_tilde1;
    grid::VectorField b, vec_out;
    transport.set_velocity(va);
    transport.solve_state(rho0);
    transport.solve_incremental_state(w, rho_tilde1);
    transport.solve_incremental_adjoint_gn(rho_tilde1, b);
    transport.interp_vec_at_forward_points(w, vec_out);

    // Plan build: alternate two velocities so every call rebuilds (a
    // repeated velocity would hit the plan cache).
    WallTimer t;
    for (int r = 0; r < reps; ++r)
      transport.set_velocity(r % 2 == 0 ? vb : va);
    const double build = t.seconds() / reps;

    t.reset();
    for (int r = 0; r < reps; ++r) {
      transport.solve_state(rho0);
      if (guard)
        grid::validate_finite(decomp, transport.final_state(),
                              "transport state");
    }
    const double state = t.seconds() / reps;

    const Timings before = comm.timings();
    t.reset();
    for (int r = 0; r < reps; ++r) {
      transport.solve_incremental_state(w, rho_tilde1);
      transport.solve_incremental_adjoint_gn(rho_tilde1, b);
      if (guard) grid::validate_finite(decomp, b, "gn matvec integrand");
    }
    const double matvec = t.seconds() / reps;
    const Timings matvec_delta = timings_delta(before, comm.timings());

    t.reset();
    for (int r = 0; r < reps; ++r) {
      transport.interp_vec_at_forward_points(w, vec_out);
      if (guard) grid::validate_finite(decomp, vec_out, "vec3 interp");
    }
    const double vec3 = t.seconds() / reps;

    std::scoped_lock lock(mu);
    build_max = std::max(build_max, build);
    state_max = std::max(state_max, state);
    matvec_max = std::max(matvec_max, matvec);
    vec3_max = std::max(vec3_max, vec3);
    agg += matvec_delta;
  });
  out.plan_build_ms = build_max * 1e3;
  out.state_ms = state_max * 1e3;
  out.matvec_ms = matvec_max * 1e3;
  out.interp_vec3_ms = vec3_max * 1e3;
  out.matvec_agg = agg;
  return out;
}

struct CaseConfig {
  Int3 dims{32, 32, 32};
  int ranks = 1;
  Workload workload = Workload::kSynthetic;
  real_t velocity_amplitude = 0.5;
  core::RegistrationOptions options;
};

struct CaseResult {
  double time_to_solution = 0;
  Timings timings;  // max over ranks (slowest-rank reporting, as the paper)
  real_t rel_residual = 1;
  real_t min_det = 0, max_det = 0;
  int newton_iters = 0;
  int matvecs = 0;
  bool converged = false;
};

/// Runs one registration case end to end and aggregates rank timings.
inline CaseResult run_case(const CaseConfig& config) {
  CaseResult out;
  auto rank_timings = mpisim::run_spmd(
      config.ranks, [&](mpisim::Communicator& comm) {
        grid::PencilDecomp decomp(comm, config.dims);
        spectral::SpectralOps ops(decomp);

        grid::ScalarField rho_t, rho_r;
        switch (config.workload) {
          case Workload::kSynthetic: {
            rho_t = imaging::synthetic_template(decomp);
            auto v = imaging::synthetic_velocity(decomp,
                                                 config.velocity_amplitude);
            rho_r = imaging::make_reference(ops, rho_t, v);
            break;
          }
          case Workload::kSyntheticDivFree: {
            rho_t = imaging::synthetic_template(decomp);
            auto v = imaging::synthetic_velocity_divfree(
                decomp, config.velocity_amplitude);
            rho_r = imaging::make_reference(ops, rho_t, v);
            break;
          }
          case Workload::kBrain: {
            rho_r = imaging::brain_phantom(decomp, 1);
            rho_t = imaging::brain_phantom(decomp, 2);
            break;
          }
        }

        core::RegistrationSolver solver(decomp, config.options);
        auto result = solver.run(rho_t, rho_r);
        if (comm.is_root()) {
          out.time_to_solution = result.time_to_solution;
          out.rel_residual = result.rel_residual;
          out.min_det = result.min_det;
          out.max_det = result.max_det;
          out.newton_iters = result.newton.iterations;
          out.matvecs = result.newton.total_matvecs;
          out.converged = result.newton.converged;
        }
      });
  for (const auto& t : rank_timings) out.timings.max_with(t);
  return out;
}

/// Paper-style table header (Tables I-IV share these columns).
inline void print_scaling_header(const char* title) {
  std::printf("%s\n", title);
  std::printf("%4s %12s %6s %16s | %10s %10s | %12s %12s | %8s\n", "#",
              "grid", "tasks", "time to solution", "fft comm", "fft exec",
              "interp comm", "interp exec", "rel res");
}

inline void print_scaling_row(int id, const Int3& dims, int ranks,
                              const CaseResult& r) {
  char grid[32];
  if (dims[0] == dims[1] && dims[1] == dims[2])
    std::snprintf(grid, sizeof grid, "%lld^3",
                  static_cast<long long>(dims[0]));
  else
    std::snprintf(grid, sizeof grid, "%lldx%lldx%lld",
                  static_cast<long long>(dims[0]),
                  static_cast<long long>(dims[1]),
                  static_cast<long long>(dims[2]));
  std::printf(
      "%4d %12s %6d %16.2f | %10.2f %10.2f | %12.2f %12.2f | %8.3f\n", id,
      grid, ranks, r.time_to_solution, r.timings.get(TimeKind::kFftComm),
      r.timings.get(TimeKind::kFftExec),
      r.timings.get(TimeKind::kInterpComm),
      r.timings.get(TimeKind::kInterpExec), r.rel_residual);
}

}  // namespace diffreg::bench

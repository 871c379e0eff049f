// User-facing configuration of the registration solver (paper section IV-A3
// lists the experiment defaults: beta = 1e-2, nt = 4, gtol = 1e-2,
// Gauss-Newton with quadratic forcing).
#pragma once

#include <functional>

#include "common/types.hpp"
#include "core/regularization.hpp"
#include "grid/field_math.hpp"
#include "interp/kernels.hpp"

namespace diffreg::core {

/// Snapshot handed to RegistrationOptions::iterate_hook after every ACCEPTED
/// Newton iterate. Observational only: the hook must not mutate the solve.
/// The velocity pointer is valid only for the duration of the call.
struct NewtonIterateInfo {
  int iterates_done = 0;  ///< Accepted iterates so far in this solve.
  real_t gradient_reference = 0;  ///< ||g(0)|| anchor of the running solve.
  const grid::VectorField* velocity = nullptr;  ///< Current iterate.
};

/// Bound of --max-newton and of a checkpoint's newton_iters_done, so the
/// iterate counts a resume adds up stay far from int overflow.
inline constexpr int kMaxNewtonIters = 1 << 20;

struct RegistrationOptions {
  // Discretization.
  int nt = 4;
  interp::Method interp_method = interp::Method::kTricubic;

  // Formulation.
  real_t beta = 1e-2;
  RegType reg_type = RegType::kH2Seminorm;
  bool incompressible = false;

  /// Has no effect (kept for source compatibility).
  WirePrecision wire() const { return {}; }
  bool overlap = false;  ///< Has no effect (kept for source compatibility).

  // Newton-Krylov solver.
  bool gauss_newton = true;
  real_t gtol = 1e-2;           // relative gradient reduction
  // ||g|| at zero velocity, the reference for gtol in warm-started solves.
  // <= 0 means unknown: the solver computes it (one extra state + adjoint
  // solve) when given a warm start. Continuation drivers cache it across
  // stages on the same grid, where it is independent of beta.
  real_t gradient_reference = 0;
  int max_newton_iters = 50;
  int max_krylov_iters = 100;

  // Two-level coarse-grid Hessian preconditioner (opt-in; see
  // core/precond.hpp). Combines the spectral smoother (beta A)^{-1} with an
  // approximate coarse-grid Gauss-Newton Hessian inverse on the low
  // frequency band — the band where the spectral preconditioner degrades as
  // beta shrinks.
  bool two_level_precond = false;
  /// Inner CG sweeps of the coarse Hessian solve per application.
  int precond_inner_iters = 5;

  // Input preprocessing (paper section III-B1: spectral Gaussian smoothing
  // with bandwidth of about one grid cell to control aliasing).
  bool smooth_inputs = true;
  real_t smoothing_cells = 1.0;

  // Numerical safeguards (CLI --guard on; docs/FAULT_MODEL.md). Adds
  // collective finite sweeps at Newton-iterate granularity and a damped
  // steepest-descent recovery when the line search exhausts. Off by
  // default: with guard off the solve is bitwise identical to the
  // pre-safeguard solver.
  bool guard = false;

  /// Called after every accepted Newton iterate (null: off). The
  /// checkpoint/restart driver installs this to write periodic checkpoints;
  /// tests use it to kill a run mid-level. Exceptions it throws propagate
  /// out of newton_solve — a hook that throws on every rank at the same
  /// iterate terminates the solve cleanly on all ranks.
  std::function<void(const NewtonIterateInfo&)> iterate_hook;

  bool verbose = false;
};

}  // namespace diffreg::core

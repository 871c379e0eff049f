// Inexact (Gauss-)Newton-Krylov driver with Armijo line search
// (paper section III-A; the role PETSc/TAO plays in the original code).
#pragma once

#include <vector>

#include "core/optimality.hpp"
#include "core/options.hpp"

namespace diffreg::core {

struct NewtonIterationLog {
  int iteration = 0;
  real_t objective = 0;
  real_t gradient_norm = 0;
  real_t rel_gradient = 1;
  int krylov_iterations = 0;
  real_t step_length = 0;
  real_t forcing = 0;
};

struct NewtonReport {
  bool converged = false;
  int iterations = 0;
  int total_matvecs = 0;
  /// Interpolation-plan rebuilds (departure-point recomputations) the solve
  /// triggered. Every objective evaluation of a *new* velocity costs one;
  /// all PCG matvecs and the accepted-iterate re-evaluation reuse cached
  /// plans, so this stays far below total_matvecs.
  int plan_builds = 0;
  /// Guard-mode recoveries: exhausted line searches rescued by the damped
  /// steepest-descent retry (0 unless options.guard).
  int line_search_recoveries = 0;
  real_t initial_gradient_norm = 0;
  real_t final_gradient_norm = 0;
  real_t final_objective = 0;
  std::vector<NewtonIterationLog> log;
};

/// Minimizes J over v. `v` carries the initial guess in and the solution
/// out. Collective over the decomposition's communicator.
NewtonReport newton_solve(OptimalitySystem& system, VectorField& v,
                          const RegistrationOptions& options);

}  // namespace diffreg::core

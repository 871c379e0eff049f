// RegistrationSolver: the public facade of the library.
//
// Given pencil-local blocks of a template image rho_T and a reference image
// rho_R it runs the full pipeline of the paper: spectral smoothing of the
// inputs, velocity initialization, inexact Gauss-Newton-Krylov optimization
// of the optimal-control problem (2), and deformation-map diagnostics.
//
// The one entrypoint shape is a SolveRequest: inputs + per-solve options +
// job metadata (id, priority, deadline, checkpoint path). Every solve is a
// pure function of its request — the solver holds no mutable option state,
// so drivers that adapt parameters between solves (beta continuation, the
// batch service) submit a fresh request per stage instead of mutating the
// solver. `run(rho_t, rho_r, v0)` stays as a thin convenience wrapper that
// solves a request built from the constructor options.
//
// Every solver leases its plans from a PlanRegistry: its spectral operators
// once at construction, a pooled transport per solve (returned warm, so a
// second solve builds no transport), and — with two_level_precond — the
// coarse grid's decomposition, operators, transport and both transfer
// plans. There is one construction path; a solver built from a bare
// decomposition makes a private registry that adopts it:
//
//   grid::PencilDecomp decomp(comm, {64, 64, 64});
//   core::RegistrationOptions opt;
//   core::RegistrationSolver solver(decomp, opt);
//   auto result = solver.run(rho_t_local, rho_r_local);
//
// Sharing one registry (the batch service and the grid pyramid) makes B
// same-shape jobs build each plan family exactly once:
//
//   auto registry = std::make_shared<core::PlanRegistry>(comm);
//   core::RegistrationSolver solver(*registry->decomp(dims), opt, registry);
//   auto report = solver.solve(request);
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/deformation.hpp"
#include "core/newton.hpp"
#include "core/optimality.hpp"
#include "core/options.hpp"

namespace diffreg::core {

class PlanRegistry;

/// One registration job: everything a solve needs, in one value. The field
/// pointers must stay valid for the duration of solve(); the request itself
/// is copyable (job queues hold them by value).
struct SolveRequest {
  const ScalarField* rho_t = nullptr;  ///< Template image (pencil-local).
  const ScalarField* rho_r = nullptr;  ///< Reference image (pencil-local).
  const VectorField* v0 = nullptr;     ///< Optional warm-start velocity.
  RegistrationOptions options;

  // Job metadata (service semantics; see docs/SERVICE.md).
  std::uint64_t job_id = 0;  ///< 0: assigned by the batch driver.
  /// Higher runs earlier; FIFO within a priority class.
  int priority = 0;
  /// Wall-clock budget in seconds since batch start (0: none). Advisory by
  /// default — SolveReport::deadline_met records whether the job finished
  /// in time — but BatchSolver cancels late jobs between Newton iterates
  /// when BatchOptions::enforce_deadlines is set (the CLI service does).
  double deadline_seconds = 0;
  /// When non-empty, a restart checkpoint is written after every
  /// `checkpoint_every`-th accepted Newton iterate (core/checkpoint.hpp).
  std::string checkpoint_path;
  int checkpoint_every = 1;
};

struct RegistrationResult {
  VectorField velocity;  // optimal stationary velocity field
  NewtonReport newton;
  /// Coarse-grid Hessian matvecs spent inside the two-level preconditioner
  /// (0 unless options.two_level_precond).
  int coarse_matvecs = 0;

  // Image mismatch, as L2 norms of the residual (paper Figs. 1/6/7).
  real_t initial_residual_norm = 0;  // ||rho_T - rho_R||
  real_t final_residual_norm = 0;    // ||rho_T(y1) - rho_R||
  /// final/initial; < 1 means the registration reduced the mismatch.
  real_t rel_residual = 1;

  // Deformation-map quality (paper Fig. 7: det must stay positive).
  real_t min_det = 0, max_det = 0, mean_det = 0;

  double time_to_solution = 0;  // seconds, this rank's wall clock
  Timings timings;              // this rank's comm/exec split of the solve

  // Job metadata, echoed from the SolveRequest.
  std::uint64_t job_id = 0;
  /// False iff the request carried a deadline and the solve finished after
  /// it (measured against the batch clock when run by BatchSolver, against
  /// this solve's own wall clock otherwise).
  bool deadline_met = true;
};

/// The batch driver's name for the result of one job.
using SolveReport = RegistrationResult;

/// The one per-solve record (paper section IV judges a solve by its Newton
/// iterates, Hessian matvecs, residual and det(grad y)). Every driver
/// reports through it: one per beta-continuation stage, one per pyramid
/// level, one per batch job (BatchJobSummary extends it).
struct SolveSummary {
  Int3 dims{0, 0, 0};  ///< Grid of the solve.
  real_t beta = 0;     ///< Regularization weight of the solve.
  bool converged = false;
  int newton_iters = 0;
  int matvecs = 0;
  real_t rel_residual = 1;
  real_t min_det = 0;
  double solve_seconds = 0;  ///< The solve's time_to_solution.
};

/// The record of `result`, a solve on grid `dims` at weight `beta`.
SolveSummary summarize(const RegistrationResult& result, const Int3& dims,
                       real_t beta);

class RegistrationSolver {
 public:
  /// Solver on a private registry that adopts `decomp` (which must outlive
  /// the solver); delegates to the registry constructor below.
  RegistrationSolver(grid::PencilDecomp& decomp,
                     const RegistrationOptions& options);

  /// Leases spectral operators from `registry` and checks transports out of
  /// its pool, so plan setup is shared across all solvers and jobs on the
  /// registry. `decomp` must be the registry's decomposition for its dims
  /// (a lease, or the one it adopted).
  RegistrationSolver(grid::PencilDecomp& decomp,
                     const RegistrationOptions& options,
                     std::shared_ptr<PlanRegistry> registry);

  ~RegistrationSolver();

  /// Solves one registration job. Collective.
  SolveReport solve(const SolveRequest& request);

  /// Convenience wrapper: solves a request built from the constructor
  /// options. `v0` optionally warm-starts the velocity (used by beta
  /// continuation). Collective.
  RegistrationResult run(const ScalarField& rho_t, const ScalarField& rho_r,
                         const VectorField* v0 = nullptr);

  /// Deformed template rho_T(y1) for the result's velocity: transports the
  /// (unsmoothed) template to t = 1. Collective.
  void deform_template(const ScalarField& rho_t, const VectorField& velocity,
                       ScalarField& deformed);

  /// Pointwise det(grad y1) field for a velocity (paper Fig. 7 map).
  void jacobian_field(const VectorField& velocity, ScalarField& det);

  const RegistrationOptions& options() const { return options_; }
  spectral::SpectralOps& ops() { return *ops_; }

 private:
  void preprocess(const ScalarField& in, ScalarField& out,
                  const RegistrationOptions& opt);

  grid::PencilDecomp* decomp_;
  RegistrationOptions options_;
  std::shared_ptr<PlanRegistry> registry_;
  std::shared_ptr<spectral::SpectralOps> ops_;
};

}  // namespace diffreg::core

// Parameter and grid continuation (paper section III-A: "since the problem
// is highly nonlinear we use parameter continuation on beta"; section I,
// Limitations: "grid continuation and multilevel preconditioning").
//
// Two composable drivers:
//  * run_beta_continuation — solve a heavily regularized problem first, then
//    repeatedly reduce beta, warm-starting the velocity, until either the
//    target beta is reached or the deformation map would leave the
//    admissible set (min det(grad y) below a bound).
//  * run_multilevel_continuation — an N-level coarse-to-fine grid pyramid:
//    the images are spectrally restricted down a hierarchy of grids (odd
//    dims supported), the coarsest level is solved cold (optionally with a
//    full beta continuation to find the smallest admissible beta cheaply),
//    and each finer level is warm-started with the spectrally prolonged
//    velocity of the level below. ||g(0)|| measured on the coarsest level is
//    carried up as the gradient reference, so no finer level pays the extra
//    state+adjoint solves a warm start would otherwise trigger. One level is
//    a plain solve (or a beta continuation) on the fine grid, so the CLI
//    runs every standalone registration through this driver.
//
// Both report each solve as one SolveSummary (core/registration.hpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/registration.hpp"

namespace diffreg::core {

/// Beta schedule: beta_start, beta_start / 10, ... down to beta_target, at
/// most 8 stages.
struct ContinuationOptions {
  real_t beta_start = 1;
  real_t beta_target = 1e-3;
  /// Admissibility bound on det(grad y) (paper: metrics on grad y1 determine
  /// the target beta); below it the previous stage's result is kept.
  real_t min_det_bound = 0.1;
};

struct ContinuationResult {
  /// Last admissible stage — or the first stage when even it violated the
  /// det bound (flagged by `admissible`); never a default-constructed
  /// placeholder, so callers always get a usable velocity field.
  RegistrationResult best;
  /// True when `best` satisfies the min-det admissibility bound.
  bool admissible = false;
  real_t final_beta = 0;  // beta of `best`
  /// ||g(0)|| measured by the cold first stage (beta-independent on a fixed
  /// grid); multilevel drivers carry it across levels.
  real_t gradient_reference = 0;
  std::vector<SolveSummary> stages;  ///< One per stage solved, in order.
};

/// Runs the continuation schedule on `solver`. Per-stage parameters (beta,
/// gradient_reference) are passed explicitly through each stage's
/// SolveRequest — the solver's own options are never mutated, so the
/// caller's beta and gradient_reference are trivially unchanged after
/// return. Collective.
ContinuationResult run_beta_continuation(RegistrationSolver& solver,
                                         const ScalarField& rho_t,
                                         const ScalarField& rho_r,
                                         const ContinuationOptions& copt);

struct MultilevelOptions {
  /// Total pyramid depth including the finest grid; 1 = plain cold solve.
  /// Fewer levels are run when the coarsest-dim floor is reached first.
  int levels = 1;
  /// No axis is coarsened below this many points (it should stay >= the
  /// process-grid extents so every rank keeps a nonempty block).
  index_t coarsest_dim = 8;
  /// When set, the coarsest level runs a full beta continuation instead of a
  /// single solve, and its final (admissible) beta is used on every finer
  /// level — the cheap coarse grid determines how far beta can be pushed.
  /// Otherwise every level solves at the RegistrationOptions beta.
  std::optional<ContinuationOptions> coarse_beta_cont;

  // Checkpoint/restart (core/checkpoint.hpp, docs/FAULT_MODEL.md). With
  // checkpoint_every = N > 0 a checkpoint is written to checkpoint_path
  // after every N-th accepted Newton iterate and at the end of every level
  // (atomically: a crash mid-write keeps the previous one). A coarsest
  // level running a beta continuation checkpoints at level end only — its
  // per-stage warm starts are not restartable mid-stage. resume_path
  // restarts a killed run: completed levels are skipped, the interrupted
  // level is warm-started from the stored velocity, and — because Newton
  // state is fully determined by (velocity, options) — the resumed run
  // replays the remaining iterates of the uninterrupted trajectory.
  std::string checkpoint_path;  ///< Target file (required when writing).
  int checkpoint_every = 0;     ///< Newton-iterate period; 0 disables.
  std::string resume_path;      ///< Checkpoint to restart from; "" = cold.
};

struct MultilevelResult {
  RegistrationResult fine;  // finest-level result
  /// False only when the coarsest-level beta continuation could not find an
  /// admissible stage (see ContinuationResult::admissible).
  bool admissible = true;
  real_t final_beta = 0;          // beta solved at the finest level
  real_t gradient_reference = 0;  // ||g(0)|| carried across the levels
  /// Coarsest first: the coarsest level's beta stages (or its one solve),
  /// then one per finer level. A resumed run lists the levels it solved.
  std::vector<SolveSummary> solves;
};

/// Coarse-to-fine pyramid solve on `fine_decomp`'s communicator. One
/// PlanRegistry serves every plan: the coarser decompositions (same process
/// grid), the image restrictions (one batched 2-component transfer per
/// transition), the velocity prolongations, and every level's solver, so a
/// level's two-level coarse grid reuses the next-coarser level's plans.
/// That registry is `registry` when given (`fine_decomp` must be its
/// decomposition for the fine dims: a caller that also solves on the fine
/// grid shares its plans with the pyramid), else a private one adopting
/// `fine_decomp`. Odd dims are supported via the resample's Nyquist rules.
/// Collective.
MultilevelResult run_multilevel_continuation(
    grid::PencilDecomp& fine_decomp, const RegistrationOptions& opt,
    const ScalarField& rho_t, const ScalarField& rho_r,
    const MultilevelOptions& mopt,
    std::shared_ptr<PlanRegistry> registry = nullptr);

}  // namespace diffreg::core

#include "core/registration.hpp"

#include <utility>

#include "core/plan_registry.hpp"
#include "core/precond.hpp"

namespace diffreg::core {

SolveSummary summarize(const RegistrationResult& result, const Int3& dims,
                       real_t beta) {
  return {dims, beta, result.newton.converged, result.newton.iterations,
          result.newton.total_matvecs, result.rel_residual, result.min_det,
          result.time_to_solution};
}

RegistrationSolver::RegistrationSolver(grid::PencilDecomp& decomp,
                                       const RegistrationOptions& options)
    : RegistrationSolver(decomp, options,
                         std::make_shared<PlanRegistry>(decomp)) {}

RegistrationSolver::RegistrationSolver(grid::PencilDecomp& decomp,
                                       const RegistrationOptions& options,
                                       std::shared_ptr<PlanRegistry> registry)
    : decomp_(&decomp),
      options_(options),
      registry_(std::move(registry)),
      ops_(registry_->spectral(decomp.dims())) {}

RegistrationSolver::~RegistrationSolver() = default;

void RegistrationSolver::preprocess(const ScalarField& in, ScalarField& out,
                                    const RegistrationOptions& opt) {
  if (!opt.smooth_inputs) {
    out = in;
    return;
  }
  const Int3 dims = decomp_->dims();
  const Vec3 sigma{opt.smoothing_cells * kTwoPi / dims[0],
                   opt.smoothing_cells * kTwoPi / dims[1],
                   opt.smoothing_cells * kTwoPi / dims[2]};
  ops_->gaussian_smooth(in, sigma, out);
}

RegistrationResult RegistrationSolver::run(const ScalarField& rho_t,
                                           const ScalarField& rho_r,
                                           const VectorField* v0) {
  SolveRequest req;
  req.rho_t = &rho_t;
  req.rho_r = &rho_r;
  req.v0 = v0;
  req.options = options_;
  return solve(req);
}

SolveReport RegistrationSolver::solve(const SolveRequest& request) {
  const RegistrationOptions& opt = request.options;
  RegistrationResult result;
  result.job_id = request.job_id;
  auto& comm = decomp_->comm();
  const Timings timings_before = comm.timings();
  WallTimer wall;

  ScalarField rho_t_s, rho_r_s;
  preprocess(*request.rho_t, rho_t_s, opt);
  preprocess(*request.rho_r, rho_r_s, opt);

  TransportLease lease(*registry_, decomp_->dims(), transport_config(opt));
  semilag::Transport& transport = lease.get();

  Regularization reg(*ops_, opt.reg_type, opt.beta);
  OptimalitySystem system(*ops_, transport, reg, rho_t_s, rho_r_s,
                          opt.incompressible, opt.gauss_newton);

  // Two-level preconditioner, unless this grid is already at (or below) the
  // coarse floor — on such grids (e.g. the coarsest level of a pyramid) the
  // plain spectral smoother is the right tool and the correction has no
  // coarser band to work with.
  std::unique_ptr<TwoLevelPreconditioner> two_level;
  if (opt.two_level_precond &&
      spectral::coarsen_dims(decomp_->dims(), kPrecondCoarsestDim) !=
          decomp_->dims()) {
    two_level = std::make_unique<TwoLevelPreconditioner>(
        *registry_, decomp_->dims(), opt, rho_t_s, rho_r_s);
    system.set_two_level(two_level.get());
  }

  const index_t n = decomp_->local_real_size();
  VectorField v(n);
  if (request.v0 != nullptr) {
    v = *request.v0;
    if (opt.incompressible) ops_->leray_project(v);
  }

  {
    ScalarField diff(n);
    for (index_t i = 0; i < n; ++i) diff[i] = rho_t_s[i] - rho_r_s[i];
    result.initial_residual_norm = grid::norm_l2(*decomp_, diff);
  }

  result.newton = newton_solve(system, v, opt);

  // The system's last evaluate() is at the final v: reuse its residual.
  {
    ScalarField res(n);
    system.final_residual(res);
    result.final_residual_norm = grid::norm_l2(*decomp_, res);
    // A non-finite norm propagates instead of reading as 0.
    result.rel_residual =
        result.initial_residual_norm == 0
            ? real_t(0)
            : result.final_residual_norm / result.initial_residual_norm;
  }

  const DeformationAnalysis deformation = analyze_deformation(*ops_, transport);
  result.min_det = deformation.min_det;
  result.max_det = deformation.max_det;
  result.mean_det = deformation.mean_det;

  if (two_level) result.coarse_matvecs = two_level->coarse_matvecs();
  result.velocity = std::move(v);
  result.time_to_solution = wall.seconds();
  result.timings = timings_delta(timings_before, comm.timings());
  return result;
}

void RegistrationSolver::deform_template(const ScalarField& rho_t,
                                         const VectorField& velocity,
                                         ScalarField& deformed) {
  TransportLease lease(*registry_, decomp_->dims(),
                       transport_config(options_));
  semilag::Transport& transport = lease.get();
  transport.set_velocity(velocity);
  transport.solve_state(rho_t);
  deformed = transport.final_state();
}

void RegistrationSolver::jacobian_field(const VectorField& velocity,
                                        ScalarField& det) {
  TransportLease lease(*registry_, decomp_->dims(),
                       transport_config(options_));
  semilag::Transport& transport = lease.get();
  transport.set_velocity(velocity);
  VectorField u;
  transport.solve_displacement(u);
  jacobian_determinant(*ops_, u, det);
}

}  // namespace diffreg::core

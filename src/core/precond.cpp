#include "core/precond.hpp"

#include <stdexcept>
#include <utility>

namespace diffreg::core {

namespace {

/// The preconditioner's coarse grid; throws when `fine` cannot be coarsened.
Int3 coarse_dims_of(const Int3& fine) {
  const Int3 coarse = spectral::coarsen_dims(fine, kPrecondCoarsestDim);
  if (coarse == fine)
    throw std::invalid_argument(
        "TwoLevelPreconditioner: grid cannot be coarsened (raise the fine "
        "resolution)");
  return coarse;
}

}  // namespace

TwoLevelPreconditioner::TwoLevelPreconditioner(
    PlanRegistry& registry, const Int3& fine_dims,
    const RegistrationOptions& opt, const ScalarField& rho_t_s,
    const ScalarField& rho_r_s)
    : ops_(registry.spectral(coarse_dims_of(fine_dims))),
      transport_(registry, ops_->decomp().dims(), transport_config(opt)),
      reg_(*ops_, opt.reg_type, opt.beta),
      restrict_plan_(registry.resample(fine_dims, ops_->decomp().dims())),
      prolong_plan_(registry.resample(ops_->decomp().dims(), fine_dims)),
      inner_iters_(opt.precond_inner_iters) {
  const index_t nc = ops_->local_size();
  ScalarField rho_t_c(nc), rho_r_c(nc);
  const real_t* ins[2] = {rho_t_s.data(), rho_r_s.data()};
  real_t* outs[2] = {rho_t_c.data(), rho_r_c.data()};
  restrict_plan_->apply_many(std::span<const real_t* const>(ins, 2),
                             std::span<real_t* const>(outs, 2));
  // Always Gauss-Newton on the coarse level: SPD by construction, which the
  // inner CG (and PCG theory for the outer solve) requires.
  system_ = std::make_unique<OptimalitySystem>(
      *ops_, transport_.get(), reg_, std::move(rho_t_c), std::move(rho_r_c),
      opt.incompressible, /*gauss_newton=*/true);
  v_c_ = VectorField(nc);
  r_c_ = VectorField(nc);
  z_c_ = VectorField(nc);
  smooth_c_ = VectorField(nc);
}

void TwoLevelPreconditioner::sync(const VectorField& v_fine) {
  restrict_plan_->apply(v_fine, v_c_);
  system_->evaluate(v_c_);  // coarse state solve at the restricted iterate
  synced_ = true;
}

bool TwoLevelPreconditioner::correct(const VectorField& r,
                                     VectorField& corr) {
  if (!synced_) return false;
  restrict_plan_->apply(r, r_c_);

  // Approximate coarse Hessian inverse: a fixed number of CG sweeps (rtol 0
  // keeps the application deterministic), spectrally preconditioned. A
  // truncated CG is a (mildly) nonlinear map of r, so the outer PCG's
  // fixed-preconditioner assumption holds only approximately — the standard
  // trade of inexact two-level schemes (CLAIRE runs a tolerance-based PCG
  // here). The outer solve is safeguarded for exactly this: its
  // negative-curvature exit returns the best iterate, and the Newton driver
  // falls back to preconditioned steepest descent on ascent directions.
  const auto apply_d = [&](const VectorField& x, VectorField& y) {
    system_->data_matvec(x, y);
  };
  const auto apply_m = [&](const VectorField& x, VectorField& z,
                           VectorField& az) {
    system_->apply_preconditioner(x, z, &az);
  };
  pcg_solve(ops_->decomp(), apply_d, apply_m, r_c_, z_c_, /*rtol=*/0,
            inner_iters_, ws_);

  // Subtract the smoother's low band: the caller applied (beta A)^{-1} on
  // ALL modes, and on matching wavenumbers (beta A_c)^{-1} restricted is
  // exactly that low band — without this the low modes would be counted by
  // both halves of the preconditioner.
  reg_.invert(r_c_, smooth_c_);
  grid::axpy(real_t(-1), smooth_c_, z_c_);

  prolong_plan_->apply(z_c_, corr);
  return true;
}

}  // namespace diffreg::core

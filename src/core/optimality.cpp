#include "core/optimality.hpp"

#include "core/precond.hpp"

namespace diffreg::core {

real_t OptimalitySystem::evaluate(const VectorField& v) {
  transport_->set_velocity(v);
  transport_->solve_state(rho_t_);
  const ScalarField& rho1 = transport_->final_state();
  const index_t n = decomp().local_real_size();
  if (lambda1_.size() != static_cast<size_t>(n)) lambda1_.resize(n);
  for (index_t i = 0; i < n; ++i) lambda1_[i] = rho1[i] - rho_r_[i];
  const real_t res_norm = grid::norm_l2(decomp(), lambda1_);
  const real_t mismatch = real_t(0.5) * res_norm * res_norm;
  return mismatch + reg_->evaluate(v);
}

void OptimalitySystem::gradient(VectorField& g) {
  const index_t n = decomp().local_real_size();
  // Adjoint terminal condition lam(1) = rho_r - rho(1) = -lambda1_.
  if (lam_scratch_.size() != static_cast<size_t>(n)) lam_scratch_.resize(n);
  for (index_t i = 0; i < n; ++i) lam_scratch_[i] = -lambda1_[i];
  transport_->solve_adjoint(lam_scratch_, b_, /*store_lambda=*/!gauss_newton_);

  if (incompressible_) ops_->leray_project(b_);
  reg_->apply(transport_->velocity(), reg_term_);
  g = b_;
  grid::axpy(real_t(1), reg_term_, g);

  // gradient() runs once per accepted Newton iterate — the natural place to
  // re-linearize the coarse Hessian the preconditioner applies.
  if (two_level_ != nullptr) two_level_->sync(transport_->velocity());
}

void OptimalitySystem::hessian_matvec(const VectorField& vtilde,
                                      VectorField& out) {
  ++matvecs_;
  const index_t n = decomp().local_real_size();
  transport_->solve_incremental_state(vtilde, rho_tilde1_,
                                      /*store_hist=*/!gauss_newton_);
  if (lam_scratch_.size() != static_cast<size_t>(n)) lam_scratch_.resize(n);
  for (index_t i = 0; i < n; ++i) lam_scratch_[i] = -rho_tilde1_[i];

  if (gauss_newton_)
    transport_->solve_incremental_adjoint_gn(lam_scratch_, b_tilde_);
  else
    transport_->solve_incremental_adjoint_full(lam_scratch_, vtilde, b_tilde_);

  if (incompressible_) ops_->leray_project(b_tilde_);
  reg_->apply(vtilde, out);
  grid::axpy(real_t(1), b_tilde_, out);
}

void OptimalitySystem::apply_preconditioner(const VectorField& r,
                                            VectorField& out) {
  reg_->invert(r, out);
  if (two_level_ != nullptr) two_level_->correct(r, out);
  if (incompressible_) ops_->leray_project(out);
}

void OptimalitySystem::final_residual(ScalarField& out) const {
  out = lambda1_;
}

}  // namespace diffreg::core

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
  transport_->solve_adjoint(lam_scratch_, g, /*store_lambda=*/!gauss_newton_);

  if (incompressible_) ops_->leray_project(g);
  reg_->add_gradient(g);

  // gradient() runs once per accepted Newton iterate — the natural place to
  // re-linearize the coarse Hessian the preconditioner applies.
  if (two_level_ != nullptr) two_level_->sync(transport_->velocity());
}

void OptimalitySystem::hessian_matvec(const VectorField& vtilde,
                                      VectorField& out) {
  data_matvec(vtilde, out);
  reg_->apply(vtilde, reg_term_);
  grid::axpy(real_t(1), reg_term_, out);
}

void OptimalitySystem::data_matvec(const VectorField& vtilde,
                                   VectorField& out) {
  ++matvecs_;
  const index_t n = decomp().local_real_size();
  transport_->solve_incremental_state(vtilde, rho_tilde1_,
                                      /*store_hist=*/!gauss_newton_);
  if (lam_scratch_.size() != static_cast<size_t>(n)) lam_scratch_.resize(n);
  for (index_t i = 0; i < n; ++i) lam_scratch_[i] = -rho_tilde1_[i];

  if (gauss_newton_)
    transport_->solve_incremental_adjoint_gn(lam_scratch_, out);
  else
    transport_->solve_incremental_adjoint_full(lam_scratch_, vtilde, out);

  if (incompressible_) ops_->leray_project(out);
}

void OptimalitySystem::apply_preconditioner(const VectorField& r,
                                            VectorField& out,
                                            VectorField* a_out) {
  reg_->invert(r, out, /*project=*/incompressible_);
  // The smoother inverts beta A on every mode but the mean, which A
  // annihilates, so beta A out = r - mean(r) needs no transform.
  if (a_out != nullptr) subtract_mean(r, *a_out);
  if (two_level_ == nullptr || !two_level_->correct(r, corr_)) return;
  if (incompressible_) ops_->leray_project(corr_);
  grid::axpy(real_t(1), corr_, out);
  if (a_out != nullptr) {
    reg_->apply(corr_, reg_term_);
    grid::axpy(real_t(1), reg_term_, *a_out);
  }
}

void OptimalitySystem::subtract_mean(const VectorField& r,
                                     VectorField& out) {
  mean_.assign(3, real_t(0));
  for (int d = 0; d < 3; ++d)
    for (real_t x : r[d]) mean_[d] += x;
  decomp().comm().set_time_kind(TimeKind::kOther);
  decomp().comm().allreduce_sum(mean_);
  const Int3 dims = decomp().dims();
  const real_t points = static_cast<real_t>(dims[0]) * dims[1] * dims[2];
  if (out.local_size() != r.local_size()) out = VectorField(r.local_size());
  for (int d = 0; d < 3; ++d) {
    const real_t m = mean_[d] / points;
    for (size_t i = 0; i < r[d].size(); ++i) out[d][i] = r[d][i] - m;
  }
}

void OptimalitySystem::final_residual(ScalarField& out) const {
  out = lambda1_;
}

}  // namespace diffreg::core

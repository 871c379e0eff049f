// Reduced-space optimality system of the registration problem (paper
// section II-B): objective J(v), reduced gradient g(v) (eq. 4), and the
// (Gauss-)Newton Hessian matvec H(v) vtilde (eq. 5), all matrix free.
//
// The caller drives the order of operations (the Newton solver does):
//   1. evaluate(v)        — state solve, J(v)
//   2. gradient(g)        — adjoint solve at the current iterate
//   3. hessian_matvec(..) — any number of times (PCG), reusing the state and
//      / data_matvec(..)    adjoint fields of the current iterate
// Re-calling evaluate() with a new velocity invalidates 2./3.
//
// The Hessian splits as H = beta A + D, D the data term (the incremental
// state and adjoint solves, plus the Leray projection when incompressible).
// The Newton PCG applies only D per sweep: apply_preconditioner reports
// beta A applied to its output, from which PCG carries beta A p (pcg.hpp).
#pragma once

#include "core/regularization.hpp"
#include "semilag/transport.hpp"

namespace diffreg::core {

class TwoLevelPreconditioner;

class OptimalitySystem {
 public:
  /// `rho_t`/`rho_r` are the (already smoothed) template and reference
  /// images, pencil-local blocks.
  OptimalitySystem(spectral::SpectralOps& ops, semilag::Transport& transport,
                   Regularization& reg, ScalarField rho_t, ScalarField rho_r,
                   bool incompressible, bool gauss_newton)
      : ops_(&ops),
        transport_(&transport),
        reg_(&reg),
        rho_t_(std::move(rho_t)),
        rho_r_(std::move(rho_r)),
        incompressible_(incompressible),
        gauss_newton_(gauss_newton) {}

  grid::PencilDecomp& decomp() { return ops_->decomp(); }
  semilag::Transport& transport() { return *transport_; }

  /// Sets the velocity (state solve) and returns
  /// J(v) = 1/2 ||rho(1) - rho_r||^2 + J_reg(v).
  real_t evaluate(const VectorField& v);

  /// Reduced gradient at the last-evaluated iterate:
  /// g = beta A v + P b, b = Int lam grad rho dt; beta A v comes from the
  /// A v evaluate() computed for J_reg. Collective.
  void gradient(VectorField& g);

  /// (Gauss-)Newton Hessian matvec out = H vtilde = beta A vtilde + D vtilde
  /// at the last-evaluated iterate (`out` must not alias `vtilde`). Full
  /// Newton requires gradient() to have stored the adjoint history.
  void hessian_matvec(const VectorField& vtilde, VectorField& out);

  /// The data term alone: out = D vtilde (no FFT under Gauss-Newton unless
  /// incompressible). Counts as one matvec, like hessian_matvec.
  void data_matvec(const VectorField& vtilde, VectorField& out);

  /// Preconditioner application: the spectral smoother out = (beta A)^{-1} r
  /// plus, when a two-level preconditioner is attached, the coarse-grid
  /// Hessian correction on the low band (all Leray projected in the
  /// incompressible case). With `a_out`, also reports *a_out = beta A out:
  /// r - mean(r) for the smoother (r is divergence free when
  /// incompressible), plus beta A applied to the correction.
  void apply_preconditioner(const VectorField& r, VectorField& out,
                            VectorField* a_out = nullptr);

  /// Attaches the (caller-owned) two-level preconditioner; gradient() keeps
  /// it linearized at the current iterate, apply_preconditioner() applies
  /// its correction. Pass nullptr to detach.
  void set_two_level(TwoLevelPreconditioner* precond) {
    two_level_ = precond;
  }

  /// rho(1) - rho_r of the current iterate.
  void final_residual(ScalarField& out) const;

  int matvec_count() const { return matvecs_; }
  void reset_matvec_count() { matvecs_ = 0; }

 private:
  spectral::SpectralOps* ops_;
  semilag::Transport* transport_;
  Regularization* reg_;
  ScalarField rho_t_, rho_r_;
  bool incompressible_;
  bool gauss_newton_;
  TwoLevelPreconditioner* two_level_ = nullptr;

  int matvecs_ = 0;

  /// out = r minus its per-component grid mean (one 3-value allreduce).
  void subtract_mean(const VectorField& r, VectorField& out);

  // Scratch, persistent across calls so the PCG-hot gradient/matvec paths
  // do not allocate per invocation.
  ScalarField lambda1_, rho_tilde1_, lam_scratch_;
  VectorField reg_term_, corr_;
  std::vector<real_t> mean_;  // per-component sums, then allreduced
};

}  // namespace diffreg::core

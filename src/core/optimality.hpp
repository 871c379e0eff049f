// Reduced-space optimality system of the registration problem (paper
// section II-B): objective J(v), reduced gradient g(v) (eq. 4), and the
// (Gauss-)Newton Hessian matvec H(v) vtilde (eq. 5), all matrix free.
//
// The caller drives the order of operations (the Newton solver does):
//   1. evaluate(v)        — state solve, J(v)
//   2. gradient(g)        — adjoint solve at the current iterate
//   3. hessian_matvec(..) — any number of times (PCG), reusing the state and
//                           adjoint fields of the current iterate
// Re-calling evaluate() with a new velocity invalidates 2./3.
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
  /// g = beta A v + P b, b = Int lam grad rho dt. Collective.
  void gradient(VectorField& g);

  /// (Gauss-)Newton Hessian matvec at the last-evaluated iterate.
  /// Full Newton requires gradient() to have stored the adjoint history.
  void hessian_matvec(const VectorField& vtilde, VectorField& out);

  /// Preconditioner application: the spectral smoother out = (beta A)^{-1} r
  /// plus, when a two-level preconditioner is attached, the coarse-grid
  /// Hessian correction on the low band (+ Leray projection in the
  /// incompressible case).
  void apply_preconditioner(const VectorField& r, VectorField& out);

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

  // Scratch, persistent across calls so the PCG-hot gradient/matvec paths
  // do not allocate per invocation.
  ScalarField lambda1_, rho_tilde1_, lam_scratch_;
  VectorField b_, b_tilde_, reg_term_;
};

}  // namespace diffreg::core

// Regularization functionals for the velocity (paper section II-B and the
// "different regularization functionals" design goal).
//
//   H1 seminorm: J_reg = beta/2 ||grad v||^2,  A = -lap   (eq. 2a)
//   H2 seminorm: J_reg = beta/2 ||lap v||^2,   A = lap^2  (biharmonic; the
//                smoothness LDDR theory asks for, and the operator whose
//                inverse the paper uses as the spectral preconditioner)
//
// Both operators are diagonal in Fourier space, so `apply` and `invert` cost
// one batched forward + one batched inverse FFT for all three velocity
// components (the components share each transpose's alltoallv exchange, so
// an apply is 4 exchanges instead of 12). `invert` acts as the identity
// on the k = 0 mode (the seminorms do not control the mean; passing it
// through unchanged keeps the operator SPD so it is a valid preconditioner).
// Hence beta A invert(r) = r - mean(r), which the PCG recurrence uses in
// place of a transform (pcg.hpp).
#pragma once

#include "grid/field_math.hpp"
#include "spectral/operators.hpp"

namespace diffreg::core {

using grid::ScalarField;
using grid::VectorField;

enum class RegType { kH1Seminorm, kH2Seminorm };

class Regularization {
 public:
  Regularization(spectral::SpectralOps& ops, RegType type, real_t beta)
      : ops_(&ops), type_(type), beta_(beta) {}

  int gamma() const { return type_ == RegType::kH1Seminorm ? 1 : 2; }

  /// J_reg(v) = beta/2 <v, A v>. `av_` is persistent: evaluate() is called
  /// once per line-search step, so the apply must not allocate, and
  /// add_gradient() reads the A v it leaves.
  real_t evaluate(const VectorField& v) {
    if (av_.local_size() != v.local_size()) av_ = VectorField(v.local_size());
    ops_->neg_laplacian_pow(v, gamma(), av_);
    return real_t(0.5) * beta_ * grid::dot(ops_->decomp(), v, av_);
  }

  /// g += beta A v, the gradient of J_reg at the v of the last evaluate(),
  /// from the A v that evaluate() computed: no transform.
  void add_gradient(VectorField& g) const { grid::axpy(beta_, av_, g); }

  /// out = beta A v.
  void apply(const VectorField& v, VectorField& out) {
    ops_->neg_laplacian_pow(v, gamma(), out);
    grid::scale(beta_, out);
  }

  /// out = (beta A)^{-1} v on k != 0 modes, identity on the mean mode
  /// (which the seminorm does not control); this is the paper's spectral
  /// preconditioner, SPD by construction. With `project` the result is
  /// Leray projected in the same spectral pass.
  void invert(const VectorField& v, VectorField& out, bool project = false) {
    ops_->inv_neg_laplacian_pow(v, gamma(), out, real_t(1) / beta_,
                                /*mean_scale=*/real_t(1), project);
  }

 private:
  spectral::SpectralOps* ops_;
  RegType type_;
  real_t beta_;
  VectorField av_;  // A v of the last evaluate()
};

}  // namespace diffreg::core

// Two-level (coarse-grid) Hessian preconditioner (paper section I,
// Limitations: "multilevel preconditioning"; the CLAIRE line of work —
// Mang & Biros 2017, Brunn et al. 2020 — shows this is what keeps the PCG
// iteration count flat when beta gets small).
//
// The spectral preconditioner (beta A)^{-1} is exact on the regularization
// term but ignores the data term of the Hessian H = beta A + H_data, which
// dominates the LOW-frequency end — at small beta the spectrally
// preconditioned system becomes badly conditioned exactly there. The
// remedy: treat the low band with an approximate inverse of the full coarse
// Hessian and keep the spectral smoother for the high band.
//
// Because the grid transfers are spectral truncation / zero padding,
// restrict/prolong are an exact orthogonal frequency-band splitting, and
// (beta A)^{-1} acts identically on matching integer wavenumbers of both
// grids. The application therefore needs no explicit band projector:
//
//   P^{-1} r = (beta A)^{-1} r                              (all modes)
//            + prolong( Hc^{-1}~ r_c  -  (beta A_c)^{-1} r_c ),
//
// with r_c = restrict(r) and Hc^{-1}~ a few inner CG sweeps on the coarse
// Gauss-Newton Hessian (themselves preconditioned by the coarse spectral
// inverse). The subtraction removes the smoother's low band, so low modes
// see exactly the coarse Hessian solve and high modes exactly the smoother.
//
// One application costs two grid transfers (5 alltoallv each, all three
// components batched) plus `inner_iters` coarse-grid Hessian matvecs — the
// coarse grid has ~1/8 the points, so the whole correction is a fraction of
// one fine matvec. The inner CG carries beta A_c p like the outer one
// (pcg.hpp), so each inner sweep costs one coarse FFT pair. The outer PCG
// needs beta A applied to the preconditioner's output: the smoother's part
// is r - mean(r), the correction's costs one fine FFT pair (applied by the
// optimality system). Its plans are LEASED from the solver's PlanRegistry, not
// owned: the coarse decomposition, operators and both transfer plans are
// shared entries (built once per batch of two-level jobs, or by the grid
// pyramid's next-coarser level), and the coarse transport is checked out of
// the pool for one solve. Warm applications perform no heap allocation
// beyond the coarse transport's plan cache.
#pragma once

#include <memory>

#include "core/optimality.hpp"
#include "core/options.hpp"
#include "core/pcg.hpp"
#include "core/plan_registry.hpp"
#include "core/regularization.hpp"

namespace diffreg::core {

/// Coarse-grid floor of the preconditioner level: no axis of the coarse
/// grid falls below this many points.
inline constexpr index_t kPrecondCoarsestDim = 8;

class TwoLevelPreconditioner {
 public:
  /// Leases the coarse grid of `fine_dims` from `registry` (which must
  /// outlive this object). `rho_t_s`/`rho_r_s` are the (already smoothed)
  /// fine-grid images; they are restricted once at construction.
  /// Collective.
  TwoLevelPreconditioner(PlanRegistry& registry, const Int3& fine_dims,
                         const RegistrationOptions& opt,
                         const ScalarField& rho_t_s,
                         const ScalarField& rho_r_s);

  /// Re-linearizes the coarse Hessian at a new iterate: restricts the fine
  /// velocity and runs the coarse state solve. Called by the optimality
  /// system once per accepted Newton iterate (from gradient()). Collective.
  void sync(const VectorField& v_fine);

  /// Writes the coarse-grid correction of `r` (a fine-grid field) to `corr`,
  /// to be added to the fine spectral smoother applied to `r`. Returns
  /// false, writing nothing, until the first sync().
  bool correct(const VectorField& r, VectorField& corr);

  /// Coarse Hessian matvecs performed so far (the inner CG work).
  int coarse_matvecs() const { return system_->matvec_count(); }

 private:
  std::shared_ptr<spectral::SpectralOps> ops_;  // coarse grid
  TransportLease transport_;
  Regularization reg_;
  std::shared_ptr<spectral::ResamplePlan> restrict_plan_;  // fine -> coarse
  std::shared_ptr<spectral::ResamplePlan> prolong_plan_;   // coarse -> fine
  std::unique_ptr<OptimalitySystem> system_;
  int inner_iters_;
  bool synced_ = false;

  // Persistent scratch (coarse blocks).
  VectorField v_c_, r_c_, z_c_, smooth_c_;
  PcgWorkspace ws_;
};

}  // namespace diffreg::core

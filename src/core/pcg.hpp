// Matrix-free preconditioned conjugate gradient for the Newton step
// (paper section III-A: "we use a preconditioned Conjugate-Gradient method
// to compute the Newton step... done inexactly with a tolerance that depends
// on the relative norm of the gradient").
#pragma once

#include <functional>

#include "grid/field_math.hpp"

namespace diffreg::core {

using grid::VectorField;

struct PcgResult {
  int iterations = 0;
  bool converged = false;
  real_t rel_residual = 1;
  /// True when a direction of non-positive curvature was encountered (the
  /// solve returns the best iterate so far, standard in truncated Newton).
  bool negative_curvature = false;
  /// True when the recurrence broke down numerically (a NaN/Inf or negative
  /// inner product): the solve stops with the last finite iterate — or the
  /// preconditioned gradient when it happened on the first sweep — instead
  /// of iterating on garbage. Detection is a scalar isfinite check on inner
  /// products the recurrence computes anyway, so the healthy path is
  /// bitwise unchanged.
  bool breakdown = false;
};

/// Caller-owned scratch of one PCG solve. Reusing a workspace across solves
/// of the same size keeps the hot paths allocation free — the Newton driver
/// holds one across its iterations, and the two-level preconditioner holds
/// one for its inner coarse-grid sweeps.
struct PcgWorkspace {
  VectorField r, z, p, hp, w;
};

using ApplyFn = std::function<void(const VectorField&, VectorField&)>;
/// Preconditioner application: z = M r and az = B z (see pcg_solve).
using PrecondFn =
    std::function<void(const VectorField& r, VectorField& z, VectorField& az)>;

/// Solves H x = b, H = B + D, to a relative (preconditioned) residual
/// `rtol`, starting from x = 0 (pass rtol = 0 to always run `max_iters`
/// sweeps — the fixed iteration count inner solves of a nested
/// preconditioner want). H must be SPD on the subspace explored. `apply_m`
/// is the preconditioner (approximate inverse of H): it writes z = M r and
/// reports az = B z. PCG carries w = B p through the direction recurrence
/// w <- B z + beta_k w and forms H p = w + D p with `apply_d`, so B is never
/// applied to p. The split pays when B z is cheap given r: the registration
/// solver's M inverts B = beta A on every mode but the mean, so
/// B z = r - mean(r) costs no transform. A caller with no split reports
/// az = 0 and passes all of H as `apply_d`. Collective.
PcgResult pcg_solve(grid::PencilDecomp& decomp, const ApplyFn& apply_d,
                    const PrecondFn& apply_m, const VectorField& b,
                    VectorField& x, real_t rtol, int max_iters,
                    PcgWorkspace& ws);

}  // namespace diffreg::core

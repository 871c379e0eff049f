#include "core/pcg.hpp"

#include <cmath>

namespace diffreg::core {

PcgResult pcg_solve(grid::PencilDecomp& decomp, const ApplyFn& apply_d,
                    const PrecondFn& apply_m, const VectorField& b,
                    VectorField& x, real_t rtol, int max_iters,
                    PcgWorkspace& ws) {
  PcgResult result;
  const index_t n = b.local_size();
  // The caller's x doubles as the iterate storage (no extra field, no
  // final copy).
  grid::resize_zero(x, n);
  VectorField& r = ws.r;
  VectorField& z = ws.z;
  VectorField& p = ws.p;
  VectorField& hp = ws.hp;
  VectorField& w = ws.w;  // B p, carried by the direction recurrence
  r = b;  // r = b - H*0 (assignment reuses the workspace's capacity)
  grid::resize_zero(z, n);
  grid::resize_zero(p, n);
  grid::resize_zero(hp, n);
  grid::resize_zero(w, n);
  apply_m(r, z, w);  // p = z, so w = B z = B p
  grid::copy(z, p);

  real_t rz = grid::dot(decomp, r, z);
  if (!std::isfinite(rz)) {
    // The right-hand side (or preconditioner output) is already poisoned;
    // there is nothing to iterate on.
    result.breakdown = true;
    grid::copy(z, x);
    return result;
  }
  const real_t r0 = std::sqrt(std::max(rz, real_t(0)));
  if (r0 == 0) {
    result.converged = true;
    result.rel_residual = 0;
    return result;
  }

  for (int it = 0; it < max_iters; ++it) {
    apply_d(p, hp);
    grid::axpy(real_t(1), w, hp);  // H p = D p + B p
    const real_t pap = grid::dot(decomp, p, hp);
    if (!std::isfinite(pap)) {
      // NaN/Inf curvature would otherwise slip past the pap <= 0 test
      // (NaN compares false) and poison every later iterate.
      result.breakdown = true;
      break;
    }
    if (pap <= 0) {
      // Non-positive curvature: stop with the current iterate (x = 0 on
      // the first iteration, which falls back to z below).
      result.negative_curvature = true;
      break;
    }
    const real_t alpha = rz / pap;
    grid::axpy(alpha, p, x);
    grid::axpy(-alpha, hp, r);
    apply_m(r, z, hp);  // H p is spent: hp holds B z until the next sweep
    const real_t rz_next = grid::dot(decomp, r, z);
    if (!std::isfinite(rz_next)) {
      result.breakdown = true;
      break;
    }
    result.iterations = it + 1;
    result.rel_residual = std::sqrt(std::max(rz_next, real_t(0))) / r0;
    if (result.rel_residual <= rtol) {
      result.converged = true;
      break;
    }
    const real_t beta = rz_next / rz;
    rz = rz_next;
    for (int d = 0; d < 3; ++d)
      for (index_t i = 0; i < n; ++i) {
        p[d][i] = z[d][i] + beta * p[d][i];
        w[d][i] = hp[d][i] + beta * w[d][i];
      }
  }
  if ((result.negative_curvature || result.breakdown) &&
      result.iterations == 0)
    grid::copy(z, x);  // fall back to the preconditioned gradient
  return result;
}

}  // namespace diffreg::core

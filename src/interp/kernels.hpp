// Local interpolation kernels on ghosted pencil blocks.
//
// The semi-Lagrangian scheme needs off-grid evaluations of fields at
// departure points (paper section III-B2). Tricubic (4^3-point Lagrange)
// interpolation is the paper's choice: interpolation errors accumulate over
// time steps without a dt factor, so cubic accuracy is required. A trilinear
// kernel is provided for the accuracy/cost ablation.
//
// Coordinates are in *grid units relative to the ghosted block origin*:
// u = (global grid coordinate) - (block offset) + (ghost width). The caller
// guarantees the full stencil lies inside the ghosted block.
#pragma once

#include <cmath>
#include <span>

#include "common/types.hpp"

namespace diffreg::interp {

enum class Method { kTricubic, kTrilinear };

/// Cubic Lagrange weights for nodes {-1, 0, 1, 2} at fraction t in [0, 1).
// diffreg:zero-alloc
inline void cubic_weights(real_t t, real_t w[4]) {
  const real_t t2 = t * t;
  const real_t t3 = t2 * t;
  w[0] = (-t3 + 3 * t2 - 2 * t) / 6;  // node -1
  w[1] = (t3 - 2 * t2 - t + 2) / 2;   // node  0
  w[2] = (-t3 + t2 + 2 * t) / 2;      // node  1
  w[3] = (t3 - t) / 6;                // node  2
}

/// Precomputed tricubic stencil: the base offset of the 4^3 neighbourhood
/// inside the ghosted block plus the separable Lagrange weights. The paper
/// computes these interpolation coefficients once per Newton iteration (the
/// departure points are fixed by the velocity) and reuses them for every
/// field; InterpPlan stores one per planned point at build time.
struct CubicStencil {
  index_t base = 0;  // offset of the (i1-1, i2-1, i3-1) stencil corner
  real_t w1[4], w2[4], w3[4];
};

/// Truncation equals floor here, without a libm call: the stencil reads
/// node i - 1, so every in-block position has u >= 1.
// diffreg:zero-alloc
inline void make_cubic_stencil(const Int3& gdims, real_t u1, real_t u2,
                               real_t u3, CubicStencil& st) {
  const index_t i1 = static_cast<index_t>(u1);
  const index_t i2 = static_cast<index_t>(u2);
  const index_t i3 = static_cast<index_t>(u3);
  st.base = (i1 - 1) * gdims[1] * gdims[2] + (i2 - 1) * gdims[2] + (i3 - 1);
  cubic_weights(u1 - static_cast<real_t>(i1), st.w1);
  cubic_weights(u2 - static_cast<real_t>(i2), st.w2);
  cubic_weights(u3 - static_cast<real_t>(i3), st.w3);
}

/// The two bodies that evaluate a precomputed stencil. Both sum the same 64
/// products in a different order, so they agree to rounding, not bitwise.
enum class CubicBody { kPortable, kAvx2 };

/// Portable body: applies a precomputed stencil to one ghosted field: each
/// contiguous 4-point i3 line is contracted with w3 first, then the lines
/// with w2 and the planes with w1, every sum taken in pairs. No accumulator
/// waits on more than a few dependent adds, so the 64 products pipeline;
/// ~64 coefficients as in the paper's O(600 N^3 / p) flop estimate.
// diffreg:zero-alloc
inline real_t cubic_stencil_apply(const real_t* g, const Int3& gdims,
                                  const CubicStencil& st) {
  const index_t s1 = gdims[1] * gdims[2];
  const index_t s2 = gdims[2];
  const auto line = [&st](const real_t* l) {
    return (st.w3[0] * l[0] + st.w3[1] * l[1]) +
           (st.w3[2] * l[2] + st.w3[3] * l[3]);
  };
  const auto plane = [&](const real_t* q) {
    return (st.w2[0] * line(q) + st.w2[1] * line(q + s2)) +
           (st.w2[2] * line(q + 2 * s2) + st.w2[3] * line(q + 3 * s2));
  };
  const real_t* base = g + st.base;
  return (st.w1[0] * plane(base) + st.w1[1] * plane(base + s1)) +
         (st.w1[2] * plane(base + 2 * s1) + st.w1[3] * plane(base + 3 * s1));
}

#if defined(__x86_64__) && defined(__GNUC__)
#define DIFFREG_HAVE_AVX2_BODY 1

/// AVX2 body: the same stencil with each contiguous i3 line as one
/// four-lane vector. The 16 lines are weighted by w2 into 4 plane vectors,
/// the planes by w1 into one, and its lanes are dotted with w3: 21 vector
/// multiply-adds and a 4-lane sum instead of 64 scalar products. Compiled
/// for AVX2 + FMA whatever the build's ISA level; run it only where
/// cubic_body() chose it.
// diffreg:zero-alloc
[[gnu::target("avx2,fma")]] inline real_t cubic_stencil_apply_avx2(
    const real_t* g, const Int3& gdims, const CubicStencil& st) {
  // Unaligned and may-alias, like the compiler's own __m256d_u.
  typedef real_t Lanes
      __attribute__((vector_size(32), aligned(alignof(real_t)), may_alias));
  const index_t s1 = gdims[1] * gdims[2];
  const index_t s2 = gdims[2];
  const real_t* base = g + st.base;
  Lanes plane[4];
  for (int a = 0; a < 4; ++a) {
    const real_t* q = base + a * s1;
    const Lanes l0 = *reinterpret_cast<const Lanes*>(q);
    const Lanes l1 = *reinterpret_cast<const Lanes*>(q + s2);
    const Lanes l2 = *reinterpret_cast<const Lanes*>(q + 2 * s2);
    const Lanes l3 = *reinterpret_cast<const Lanes*>(q + 3 * s2);
    plane[a] =
        (st.w2[0] * l0 + st.w2[1] * l1) + (st.w2[2] * l2 + st.w2[3] * l3);
  }
  const Lanes block = (st.w1[0] * plane[0] + st.w1[1] * plane[1]) +
                      (st.w1[2] * plane[2] + st.w1[3] * plane[3]);
  const Lanes terms = block * *reinterpret_cast<const Lanes*>(st.w3);
  return (terms[0] + terms[1]) + (terms[2] + terms[3]);
}
#endif

/// The body every sweep of this process runs: AVX2 on an x86-64 CPU with
/// AVX2 and FMA, portable everywhere else. Decided on the first call and
/// cached, so every rank thread reads one value.
inline CubicBody cubic_body() {
#ifdef DIFFREG_HAVE_AVX2_BODY
  static const CubicBody body = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
               ? CubicBody::kAvx2
               : CubicBody::kPortable;
  }();
  return body;
#else
  return CubicBody::kPortable;
#endif
}

/// Where a stencil sweep stores point k's value of field f (one of m).
/// With `index` set: at outs[f][index[k]], straight into the caller's
/// output (the points a rank asked for itself). Without: at
/// staging[k * m + f], point-major as the value exchange ships the points
/// a rank evaluates for its peers.
struct SweepOut {
  const index_t* index = nullptr;
  real_t* const* outs = nullptr;
  real_t* staging = nullptr;
};

/// Evaluates the stencils `st` on the m ghosted fields g + f * gsize (dims
/// `gdims`) with `body`, storing into `out`. Each value is exactly what
/// the body returns for that stencil and field.
void cubic_sweep(CubicBody body, std::span<const CubicStencil> st,
                 const real_t* g, index_t gsize, const Int3& gdims, int m,
                 const SweepOut& out);

/// Evaluates the tricubic interpolant of the ghosted block `g` (dims
/// `gdims`, i3 fastest) at ghosted-grid-unit position (u1, u2, u3).
// diffreg:zero-alloc
inline real_t tricubic_eval(const real_t* g, const Int3& gdims, real_t u1,
                            real_t u2, real_t u3) {
  CubicStencil st;
  make_cubic_stencil(gdims, u1, u2, u3, st);
  return cubic_stencil_apply(g, gdims, st);
}

/// Trilinear interpolation (ablation baseline; first-order kernel).
// diffreg:zero-alloc
inline real_t trilinear_eval(const real_t* g, const Int3& gdims, real_t u1,
                             real_t u2, real_t u3) {
  const index_t i1 = static_cast<index_t>(std::floor(u1));
  const index_t i2 = static_cast<index_t>(std::floor(u2));
  const index_t i3 = static_cast<index_t>(std::floor(u3));
  const real_t t1 = u1 - static_cast<real_t>(i1);
  const real_t t2 = u2 - static_cast<real_t>(i2);
  const real_t t3 = u3 - static_cast<real_t>(i3);

  const index_t s1 = gdims[1] * gdims[2];
  const index_t s2 = gdims[2];
  const real_t* base = g + i1 * s1 + i2 * s2 + i3;

  auto lerp = [](real_t a, real_t b, real_t t) { return a + t * (b - a); };
  const real_t c00 = lerp(base[0], base[1], t3);
  const real_t c01 = lerp(base[s2], base[s2 + 1], t3);
  const real_t c10 = lerp(base[s1], base[s1 + 1], t3);
  const real_t c11 = lerp(base[s1 + s2], base[s1 + s2 + 1], t3);
  return lerp(lerp(c00, c01, t2), lerp(c10, c11, t2), t1);
}

}  // namespace diffreg::interp

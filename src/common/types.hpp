// Core scalar, index, and small-vector types shared by every diffreg module.
//
// The solver works on the periodic domain [0, 2*pi)^3 discretized with a
// regular grid of N1 x N2 x N3 points (paper section II). All fields are
// double precision.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>

namespace diffreg {

using real_t = double;
using complex_t = std::complex<real_t>;
using index_t = std::int64_t;

inline constexpr real_t kTwoPi = 2.0 * std::numbers::pi_v<real_t>;

/// Has no effect (kept for source compatibility): every payload is fp64.
enum class WirePrecision { kF64 };

/// Integer triple, used for grid sizes and multi-indices (i1, i2, i3).
struct Int3 {
  index_t x[3]{0, 0, 0};

  constexpr index_t& operator[](int d) { return x[d]; }
  constexpr index_t operator[](int d) const { return x[d]; }
  constexpr index_t prod() const { return x[0] * x[1] * x[2]; }
  friend constexpr bool operator==(const Int3&, const Int3&) = default;
};

/// Point / vector in R^3 (velocities, deformation-map values, wavenumbers).
struct Vec3 {
  real_t x[3]{0, 0, 0};

  constexpr real_t& operator[](int d) { return x[d]; }
  constexpr real_t operator[](int d) const { return x[d]; }

  friend constexpr Vec3 operator+(Vec3 a, Vec3 b) {
    return {a[0] + b[0], a[1] + b[1], a[2] + b[2]};
  }
  friend constexpr Vec3 operator-(Vec3 a, Vec3 b) {
    return {a[0] - b[0], a[1] - b[1], a[2] - b[2]};
  }
  friend constexpr Vec3 operator*(real_t s, Vec3 a) {
    return {s * a[0], s * a[1], s * a[2]};
  }
  constexpr real_t dot(Vec3 b) const {
    return x[0] * b[0] + x[1] * b[1] + x[2] * b[2];
  }
  real_t norm() const { return std::sqrt(dot(*this)); }
};

/// Row-major linear index of (i1, i2, i3) in an n1 x n2 x n3 block
/// (i3 fastest, matching the memory layout used throughout the library).
constexpr index_t linear_index(index_t i1, index_t i2, index_t i3,
                               const Int3& n) {
  return (i1 * n[1] + i2) * n[2] + i3;
}

/// Wraps x into the periodic interval [0, period). An x already inside is
/// returned as is — exactly what fmod returns for it — so the common case of
/// a departure point that stays in the domain makes no libm call.
inline real_t periodic_wrap(real_t x, real_t period) {
  if (x >= 0 && x < period) return x;
  x = std::fmod(x, period);
  if (x < 0) x += period;
  // fmod of a slightly negative value can round back up to `period` itself.
  if (x >= period) x -= period;
  return x;
}

/// Wraps an integer index into [0, n).
constexpr index_t periodic_index(index_t i, index_t n) {
  i %= n;
  return i < 0 ? i + n : i;
}

/// Wraps x into [0, 2*pi) and converts to grid units in [0, n) for cell
/// size h (= 2*pi/n as a rounded double). The guard matters: h is rounded,
/// so wrap/h can land on exactly n for points just below the period even
/// though the wrap itself is strictly below 2*pi — callers indexing a
/// 4-point stencil off floor(u) would then read one cell past their block
/// (and ownership classification would pick the wrong rank).
inline real_t periodic_grid_units(real_t x, real_t h, index_t n) {
  const real_t u = periodic_wrap(x, kTwoPi) / h;
  return u >= static_cast<real_t>(n) ? u - static_cast<real_t>(n) : u;
}

/// True when `v` is a value of integer type T: finite, integral and in
/// range, so a cast to T is defined. T's range ends just below
/// 2^digits, which a double holds exactly.
template <typename T>
bool exact_integer(double v) {
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  return v >= lo && v < hi && v == std::trunc(v);
}

/// Determinant of the 3x3 matrix with rows a, b, c.
constexpr real_t det3(const Vec3& a, const Vec3& b, const Vec3& c) {
  return a[0] * (b[1] * c[2] - b[2] * c[1]) -
         a[1] * (b[0] * c[2] - b[2] * c[0]) +
         a[2] * (b[0] * c[1] - b[1] * c[0]);
}

}  // namespace diffreg

// Distributed vector-space operations on pencil-local field blocks.
// Local loops + one allreduce for reductions; the L2 inner products use the
// grid volume element h1*h2*h3 of the [0,2*pi)^3 domain.
#pragma once

#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/decomposition.hpp"

namespace diffreg::grid {

using ScalarField = std::vector<real_t>;

/// Velocity / displacement field: three scalar components on the same
/// block.
struct VectorField {
  std::array<ScalarField, 3> comp;

  VectorField() = default;
  explicit VectorField(index_t local_size) {
    for (auto& c : comp) c.assign(local_size, real_t(0));
  }
  index_t local_size() const { return static_cast<index_t>(comp[0].size()); }
  ScalarField& operator[](int d) { return comp[d]; }
  const ScalarField& operator[](int d) const { return comp[d]; }

  void fill(real_t value) {
    for (auto& c : comp) c.assign(c.size(), value);
  }
};

/// Volume element of one grid cell.
inline real_t cell_volume(const Int3& dims) {
  return (kTwoPi / dims[0]) * (kTwoPi / dims[1]) * (kTwoPi / dims[2]);
}

/// Distributed L2 inner product <a, b> (collective).
inline real_t dot(PencilDecomp& decomp, std::span<const real_t> a,
                  std::span<const real_t> b) {
  real_t local = 0;
  for (size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
  decomp.comm().set_time_kind(TimeKind::kOther);
  return decomp.comm().allreduce_sum(local) * cell_volume(decomp.dims());
}

inline real_t dot(PencilDecomp& decomp, const VectorField& a,
                  const VectorField& b) {
  real_t local = 0;
  for (int d = 0; d < 3; ++d)
    for (size_t i = 0; i < a[d].size(); ++i) local += a[d][i] * b[d][i];
  decomp.comm().set_time_kind(TimeKind::kOther);
  return decomp.comm().allreduce_sum(local) * cell_volume(decomp.dims());
}

inline real_t norm_l2(PencilDecomp& decomp, std::span<const real_t> a) {
  return std::sqrt(dot(decomp, a, a));
}

inline real_t norm_l2(PencilDecomp& decomp, const VectorField& a) {
  return std::sqrt(dot(decomp, a, a));
}

/// Distributed max |a_i| (collective).
inline real_t norm_inf(PencilDecomp& decomp, std::span<const real_t> a) {
  real_t local = 0;
  for (real_t v : a) local = std::max(local, std::abs(v));
  decomp.comm().set_time_kind(TimeKind::kOther);
  return decomp.comm().allreduce_max(local);
}

inline real_t norm_inf(PencilDecomp& decomp, const VectorField& a) {
  real_t local = 0;
  for (int d = 0; d < 3; ++d)
    for (real_t v : a[d]) local = std::max(local, std::abs(v));
  decomp.comm().set_time_kind(TimeKind::kOther);
  return decomp.comm().allreduce_max(local);
}

// Local (no communication) BLAS-1 style helpers.

inline void axpy(real_t alpha, std::span<const real_t> x,
                 std::span<real_t> y) {
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

inline void axpy(real_t alpha, const VectorField& x, VectorField& y) {
  for (int d = 0; d < 3; ++d) axpy(alpha, x[d], y[d]);
}

inline void scale(real_t alpha, std::span<real_t> x) {
  for (auto& v : x) v *= alpha;
}

inline void scale(real_t alpha, VectorField& x) {
  for (int d = 0; d < 3; ++d) scale(alpha, x[d]);
}

/// y = x (sizes must match).
inline void copy(const VectorField& x, VectorField& y) {
  for (int d = 0; d < 3; ++d) y[d] = x[d];
}

/// Sizes x to n and zeroes it, reusing the existing storage when the size
/// already matches (hot-path accumulator reset without reallocation).
inline void resize_zero(VectorField& x, index_t n) {
  if (x.local_size() != n)
    x = VectorField(n);
  else
    x.fill(real_t(0));
}

// Numerical safeguards (the opt-in --guard sweeps of the fault-tolerant
// runtime; docs/FAULT_MODEL.md).

/// Raised by validate_finite. The throw is COLLECTIVE: the non-finite count
/// is allreduced first, so every rank throws together (a one-sided throw
/// would strand its peers mid-communication-schedule).
class NonFiniteFieldError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Local count of NaN/Inf entries (no communication).
inline index_t count_nonfinite(std::span<const real_t> a) {
  index_t bad = 0;
  for (real_t v : a)
    if (!std::isfinite(v)) ++bad;
  return bad;
}

inline index_t count_nonfinite(const VectorField& a) {
  index_t bad = 0;
  for (int d = 0; d < 3; ++d)
    bad += count_nonfinite(std::span<const real_t>(a[d]));
  return bad;
}

/// Collective finite sweep: allreduces the local non-finite count and throws
/// NonFiniteFieldError (on EVERY rank, naming `what` and the global count)
/// when any entry is NaN/Inf. One scalar allreduce — cheap enough for
/// Newton-iterate granularity.
inline void validate_finite(PencilDecomp& decomp, std::span<const real_t> a,
                            const char* what) {
  decomp.comm().set_time_kind(TimeKind::kOther);
  const index_t bad = decomp.comm().allreduce_sum(count_nonfinite(a));
  if (bad > 0)
    throw NonFiniteFieldError(std::string("non-finite values in ") + what +
                              ": " + std::to_string(bad) +
                              " entries across ranks");
}

inline void validate_finite(PencilDecomp& decomp, const VectorField& a,
                            const char* what) {
  decomp.comm().set_time_kind(TimeKind::kOther);
  const index_t bad = decomp.comm().allreduce_sum(count_nonfinite(a));
  if (bad > 0)
    throw NonFiniteFieldError(std::string("non-finite values in ") + what +
                              ": " + std::to_string(bad) +
                              " entries across ranks");
}

}  // namespace diffreg::grid

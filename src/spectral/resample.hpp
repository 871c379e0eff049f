// Distributed spectral resampling between grids (restriction / prolongation).
//
// The paper names "grid continuation and multilevel preconditioning" as the
// remedy for the preconditioner's beta sensitivity (section I, Limitations).
// This module provides the grid-transfer half: a field on one pencil
// decomposition is mapped onto another decomposition with different grid
// dimensions by Fourier truncation (coarsening) or zero padding
// (refinement). Band-limited fields transfer exactly.
//
// Memory contract: no rank ever holds the full field. The transfer runs
// entirely on the distributed half-spectrum:
//
//   1. batched pencil forward FFT on the source decomposition;
//   2. ONE alltoallv remap over the world communicator that moves every
//      surviving mode (signed frequency strictly below the Nyquist limit of
//      BOTH grids — Nyquist modes are dropped, they have no faithful
//      counterpart on the other grid) from its source-layout owner to its
//      destination-layout owner, applying the truncation / zero padding in
//      the process;
//   3. batched pencil inverse FFT on the destination decomposition.
//
// Per-rank memory and work stay O(N/p); the mode routing is precomputed at
// plan-build time, and once the largest batch size in use has been seen a
// warm plan performs no heap allocation. apply_many pushes up to kMaxBatch
// components (a 3-component velocity) through the same 5 alltoallv
// exchanges (2 forward + 1 remap + 2 inverse) that a scalar transfer costs.
//
// A plan owns no FFT plan: it runs the distributed FFTs of the two grids'
// SpectralOps, which must outlive it. Sharing them is safe because every
// FFT call writes its whole output and keeps nothing between calls.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "grid/decomposition.hpp"
#include "grid/field_math.hpp"
#include "spectral/operators.hpp"

namespace diffreg::spectral {

/// Next-coarser grid of the multilevel hierarchy: every axis is halved
/// (rounding up, so odd dims are supported) but never taken below
/// `floor_dim` — and never above the current dim when `floor_dim` exceeds
/// it. Returns `dims` unchanged when no axis can be coarsened further.
inline Int3 coarsen_dims(const Int3& dims, index_t floor_dim) {
  Int3 out;
  for (int d = 0; d < 3; ++d)
    out[d] = std::min(dims[d],
                      std::max<index_t>(floor_dim, (dims[d] + 1) / 2));
  return out;
}

/// Persistent grid-transfer plan between the grids of two spectral operator
/// sets (whose decompositions must wrap the same rank set). Owns the remap
/// routing tables and all stage buffers, so every apply after the first
/// performs zero heap allocations; the FFTs are `src.fft()` and `dst.fft()`.
/// Collective.
class ResamplePlan {
 public:
  /// Components that can share one batched transfer.
  static constexpr int kMaxBatch = fft::DistributedFft3d::kMaxBatch;

  ResamplePlan(SpectralOps& src, SpectralOps& dst);

  /// Resamples one scalar field; `in` is a src-local block, `out` a
  /// dst-local block (resized by the caller). Collective.
  void apply(std::span<const real_t> in, std::span<real_t> out);

  /// Batched transfer of up to kMaxBatch components through ONE exchange
  /// set (5 alltoallv total, independent of the component count). Results
  /// are identical to applying each component separately.
  void apply_many(std::span<const real_t* const> ins,
                  std::span<real_t* const> outs);

  /// Convenience: 3-component batched transfer of a vector field (`out` is
  /// resized to the destination block).
  void apply(const grid::VectorField& in, grid::VectorField& out);

 private:
  /// Grows the stage buffers to hold `m` components; applies stay
  /// allocation free once the largest batch size in use has been seen.
  void ensure_batch_capacity(int m);
  SpectralOps* src_ops_;
  SpectralOps* dst_ops_;
  grid::PencilDecomp* src_;
  grid::PencilDecomp* dst_;
  real_t scale_;

  // Per-component stage spectra ([kMaxBatch][local_spectral_size]).
  std::vector<complex_t> spec_src_, spec_dst_;

  // Remap routing: peer-major lists of local spectral indices, in a
  // canonical global mode order shared by sender and receiver, plus flat
  // exchange buffers and per-peer counts (scaled by the batch size into the
  // scratch arrays at call time).
  std::vector<index_t> send_idx_, recv_idx_;
  std::vector<index_t> send_counts_, recv_counts_;
  std::vector<index_t> scaled_send_counts_, scaled_recv_counts_;
  std::vector<complex_t> send_buf_, recv_buf_;
  index_t send_total_ = 0, recv_total_ = 0;

  static constexpr int kTagRemap = 141;
};

}  // namespace diffreg::spectral

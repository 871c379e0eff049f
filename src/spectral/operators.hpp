// Spectral differential operators on the pencil decomposition
// (paper section III-B1): gradient, divergence, (vector) Laplacian,
// biharmonic, their inverses, the Leray projector that eliminates the
// incompressibility constraint, and Gaussian smoothing.
//
// Everything is a diagonal scaling in Fourier space between one forward and
// one inverse distributed FFT; the gradient shares a single forward
// transform across its three output components (paper's "optimizations for
// the grad and div operators"), and every vector-field transform goes
// through the FFT's batched forward_many/inverse_many, so all three
// components ride the same two alltoallv exchanges per transform (3x fewer
// messages than transforming the components one by one). The diagonal
// scalings are fused into a single pass that reads the cached forward
// spectrum and writes the component spectra directly — no spectrum copy,
// no separate scaling sweep.
//
// Wavenumber conventions on the [0, 2*pi)^3 domain: integer frequencies; for
// odd derivatives the Nyquist mode is zeroed (its derivative is not
// representable and would break the Hermitian symmetry of real fields). The
// same zeroed-Nyquist vector is used inside grad, div, and the Leray
// projector, so `div(leray(v)) == 0` holds in exact arithmetic *discretely*.
#pragma once

#include <functional>
#include <span>

#include "fft/fft3d_distributed.hpp"
#include "grid/field_math.hpp"

namespace diffreg::spectral {

using grid::ScalarField;
using grid::VectorField;

class SpectralOps {
 public:
  /// `wire` is handed to the distributed FFT plan: kF32 halves the bytes of
  /// every transpose exchange behind these operators.
  /// The trailing bool has no effect (kept for source compatibility).
  explicit SpectralOps(grid::PencilDecomp& decomp,
                       WirePrecision wire = WirePrecision::kF64, bool = false);

  grid::PencilDecomp& decomp() { return *decomp_; }
  fft::DistributedFft3d& fft() { return fft_; }
  WirePrecision wire() const { return fft_.wire(); }
  index_t local_size() const { return decomp_->local_real_size(); }

  /// g_d = d f / d x_d for d = 0,1,2 (1 forward + 3 inverse FFTs).
  void gradient(std::span<const real_t> f, VectorField& g);

  /// out = div v (3 forward + 1 inverse FFTs).
  void divergence(const VectorField& v, ScalarField& out);

  /// out = lap f.
  void laplacian(std::span<const real_t> f, ScalarField& out);

  /// out = pseudo-inverse of the Laplacian (zero-mean convention).
  void inv_laplacian(std::span<const real_t> f, ScalarField& out);

  /// out = lap^2 f (biharmonic).
  void biharmonic(std::span<const real_t> f, ScalarField& out);

  /// out = pseudo-inverse of the biharmonic (zero-mean convention).
  void inv_biharmonic(std::span<const real_t> f, ScalarField& out);

  /// Componentwise vector Laplacian (and powers): w = (-lap)^gamma v,
  /// gamma in {1, 2}; used by the H1/H2 regularization operators.
  void neg_laplacian_pow(const VectorField& v, int gamma, VectorField& w);

  /// w = scale * ((-lap)^gamma)^{-1} v on nonzero modes; the k=0 (mean) mode
  /// is multiplied by `mean_scale` instead. With positive factors the
  /// operator is SPD, so it can serve as a preconditioner.
  void inv_neg_laplacian_pow(const VectorField& v, int gamma, VectorField& w,
                             real_t scale = 1, real_t mean_scale = 1);

  /// In-place Leray projection w = (I - grad inv_lap div) v; afterwards the
  /// discrete divergence of v vanishes (paper eq. (4)).
  void leray_project(VectorField& v);

  /// Spectral Gaussian smoothing with per-axis standard deviation sigma
  /// (paper: images are smoothed with bandwidth ~ one grid cell).
  void gaussian_smooth(std::span<const real_t> f, const Vec3& sigma,
                       ScalarField& out);

  /// Wavenumbers of the local spectral index (a, b, c) -> (k1, k2, k3).
  /// `odd` selects the zeroed-Nyquist convention used for odd derivatives.
  Vec3 wavenumber(index_t a, index_t b, index_t c, bool odd) const {
    if (odd) return {k1_odd_[c], k2_odd_[b], k3_odd_[a]};
    return {k1_[c], k2_[b], k3_[a]};
  }

 private:
  /// Applies `factor(mode) * spec[mode]` for every local spectral mode.
  template <typename F>
  void scale_spectrum(std::span<complex_t> spec, F&& factor) const;

  /// Batched forward of the three components of `v` into spec_v_ (one pass,
  /// 2 alltoallv exchanges total).
  void forward_vector(const VectorField& v);
  /// Batched inverse of spec_v_ into the three components of `w` (resizing
  /// them if needed).
  void inverse_vector(VectorField& w);

  grid::PencilDecomp* decomp_;
  fft::DistributedFft3d fft_;

  // Local wavenumber tables; *_odd_ zero the Nyquist mode.
  std::vector<real_t> k1_, k2_, k3_;
  std::vector<real_t> k1_odd_, k2_odd_, k3_odd_;

  // Scratch spectra.
  std::vector<complex_t> spec_, spec_v_[3];
};

// ---------------------------------------------------------------------------

template <typename F>
void SpectralOps::scale_spectrum(std::span<complex_t> spec, F&& factor) const {
  const Int3 sd = decomp_->local_spectral_dims();
  index_t idx = 0;
  for (index_t a = 0; a < sd[0]; ++a)
    for (index_t b = 0; b < sd[1]; ++b)
      for (index_t c = 0; c < sd[2]; ++c, ++idx) spec[idx] *= factor(a, b, c);
}

}  // namespace diffreg::spectral

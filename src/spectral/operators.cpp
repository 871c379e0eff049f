#include "spectral/operators.hpp"

#include <cassert>
#include <cmath>

#include "fft/fft3d_serial.hpp"  // fft_frequency

namespace diffreg::spectral {

using fft::fft_frequency;

SpectralOps::SpectralOps(grid::PencilDecomp& decomp, WirePrecision wire, bool)
    : decomp_(&decomp), fft_(decomp, wire) {
  const Int3 dims = decomp.dims();
  const Int3 sd = decomp.local_spectral_dims();

  // Axis 1: full range, FFT order.
  k1_.resize(sd[2]);
  k1_odd_.resize(sd[2]);
  for (index_t c = 0; c < sd[2]; ++c) {
    k1_[c] = static_cast<real_t>(fft_frequency(c, dims[0]));
    const bool nyquist = (dims[0] % 2 == 0) && (c == dims[0] / 2);
    k1_odd_[c] = nyquist ? real_t(0) : k1_[c];
  }
  // Axis 2: local slice of the full range.
  k2_.resize(sd[1]);
  k2_odd_.resize(sd[1]);
  for (index_t b = 0; b < sd[1]; ++b) {
    const index_t g = decomp.srange2().begin + b;
    k2_[b] = static_cast<real_t>(fft_frequency(g, dims[1]));
    const bool nyquist = (dims[1] % 2 == 0) && (g == dims[1] / 2);
    k2_odd_[b] = nyquist ? real_t(0) : k2_[b];
  }
  // Axis 3: Hermitian half dimension, frequencies 0 .. N3/2.
  k3_.resize(sd[0]);
  k3_odd_.resize(sd[0]);
  for (index_t a = 0; a < sd[0]; ++a) {
    const index_t g = decomp.srange3().begin + a;
    k3_[a] = static_cast<real_t>(g);
    const bool nyquist = (dims[2] % 2 == 0) && (g == dims[2] / 2);
    k3_odd_[a] = nyquist ? real_t(0) : k3_[a];
  }

  const index_t ns = decomp.local_spectral_size();
  spec_.resize(ns);
  for (auto& s : spec_v_) s.resize(ns);
}

void SpectralOps::forward_vector(const VectorField& v) {
  const real_t* reals[3] = {v[0].data(), v[1].data(), v[2].data()};
  complex_t* specs[3] = {spec_v_[0].data(), spec_v_[1].data(),
                         spec_v_[2].data()};
  fft_.forward_many(std::span<const real_t* const>(reals),
                    std::span<complex_t* const>(specs));
}

void SpectralOps::inverse_vector(VectorField& w) {
  for (int d = 0; d < 3; ++d)
    if (w[d].size() != static_cast<size_t>(local_size()))
      w[d].resize(local_size());
  const complex_t* specs[3] = {spec_v_[0].data(), spec_v_[1].data(),
                               spec_v_[2].data()};
  real_t* reals[3] = {w[0].data(), w[1].data(), w[2].data()};
  fft_.inverse_many(std::span<const complex_t* const>(specs),
                    std::span<real_t* const>(reals));
}

void SpectralOps::gradient(std::span<const real_t> f, VectorField& g) {
  // 1 forward + 1 batched inverse (2 + 2 alltoallv exchanges). The i*k_d
  // scaling is fused into a single sweep that writes all three component
  // spectra straight from the cached forward spectrum.
  fft_.forward(f, spec_);
  const Int3 sd = decomp_->local_spectral_dims();
  index_t idx = 0;
  for (index_t a = 0; a < sd[0]; ++a)
    for (index_t b = 0; b < sd[1]; ++b)
      for (index_t c = 0; c < sd[2]; ++c, ++idx) {
        const Vec3 k = wavenumber(a, b, c, /*odd=*/true);
        const complex_t iv(-spec_[idx].imag(), spec_[idx].real());  // i * spec
        spec_v_[0][idx] = k[0] * iv;
        spec_v_[1][idx] = k[1] * iv;
        spec_v_[2][idx] = k[2] * iv;
      }
  inverse_vector(g);
}

void SpectralOps::divergence(const VectorField& v, ScalarField& out) {
  // 1 batched forward + 1 inverse; the i*k dot-product accumulation runs in
  // one fused sweep over the three component spectra.
  forward_vector(v);
  const Int3 sd = decomp_->local_spectral_dims();
  index_t idx = 0;
  for (index_t a = 0; a < sd[0]; ++a)
    for (index_t b = 0; b < sd[1]; ++b)
      for (index_t c = 0; c < sd[2]; ++c, ++idx) {
        const Vec3 k = wavenumber(a, b, c, /*odd=*/true);
        const complex_t kv = k[0] * spec_v_[0][idx] + k[1] * spec_v_[1][idx] +
                             k[2] * spec_v_[2][idx];
        spec_[idx] = complex_t(-kv.imag(), kv.real());  // i * (k . v_hat)
      }
  if (out.size() != static_cast<size_t>(local_size()))
    out.resize(local_size());
  fft_.inverse(spec_, out);
}

void SpectralOps::laplacian(std::span<const real_t> f, ScalarField& out) {
  fft_.forward(f, spec_);
  scale_spectrum(std::span<complex_t>(spec_),
                 [&](index_t a, index_t b, index_t c) {
                   const Vec3 k = wavenumber(a, b, c, false);
                   return -k.dot(k);
                 });
  if (out.size() != static_cast<size_t>(local_size()))
    out.resize(local_size());
  fft_.inverse(spec_, out);
}

void SpectralOps::inv_laplacian(std::span<const real_t> f, ScalarField& out) {
  fft_.forward(f, spec_);
  scale_spectrum(std::span<complex_t>(spec_),
                 [&](index_t a, index_t b, index_t c) {
                   const Vec3 k = wavenumber(a, b, c, false);
                   const real_t k2 = k.dot(k);
                   return k2 == 0 ? real_t(0) : real_t(-1) / k2;
                 });
  if (out.size() != static_cast<size_t>(local_size()))
    out.resize(local_size());
  fft_.inverse(spec_, out);
}

void SpectralOps::biharmonic(std::span<const real_t> f, ScalarField& out) {
  fft_.forward(f, spec_);
  scale_spectrum(std::span<complex_t>(spec_),
                 [&](index_t a, index_t b, index_t c) {
                   const Vec3 k = wavenumber(a, b, c, false);
                   const real_t k2 = k.dot(k);
                   return k2 * k2;
                 });
  if (out.size() != static_cast<size_t>(local_size()))
    out.resize(local_size());
  fft_.inverse(spec_, out);
}

void SpectralOps::inv_biharmonic(std::span<const real_t> f, ScalarField& out) {
  fft_.forward(f, spec_);
  scale_spectrum(std::span<complex_t>(spec_),
                 [&](index_t a, index_t b, index_t c) {
                   const Vec3 k = wavenumber(a, b, c, false);
                   const real_t k2 = k.dot(k);
                   return k2 == 0 ? real_t(0) : real_t(1) / (k2 * k2);
                 });
  if (out.size() != static_cast<size_t>(local_size()))
    out.resize(local_size());
  fft_.inverse(spec_, out);
}

void SpectralOps::neg_laplacian_pow(const VectorField& v, int gamma,
                                    VectorField& w) {
  assert(gamma == 1 || gamma == 2);
  // One batched forward + one batched inverse for all three components
  // (4 alltoallv exchanges instead of 12); the |k|^(2 gamma) scaling is a
  // single fused sweep sharing one wavenumber evaluation per mode.
  forward_vector(v);
  const Int3 sd = decomp_->local_spectral_dims();
  index_t idx = 0;
  for (index_t a = 0; a < sd[0]; ++a)
    for (index_t b = 0; b < sd[1]; ++b)
      for (index_t c = 0; c < sd[2]; ++c, ++idx) {
        const Vec3 k = wavenumber(a, b, c, false);
        const real_t k2 = k.dot(k);
        const real_t factor = gamma == 1 ? k2 : k2 * k2;
        for (int d = 0; d < 3; ++d) spec_v_[d][idx] *= factor;
      }
  inverse_vector(w);
}

void SpectralOps::inv_neg_laplacian_pow(const VectorField& v, int gamma,
                                        VectorField& w, real_t scale,
                                        real_t mean_scale) {
  assert(gamma == 1 || gamma == 2);
  forward_vector(v);
  const Int3 sd = decomp_->local_spectral_dims();
  index_t idx = 0;
  for (index_t a = 0; a < sd[0]; ++a)
    for (index_t b = 0; b < sd[1]; ++b)
      for (index_t c = 0; c < sd[2]; ++c, ++idx) {
        const Vec3 k = wavenumber(a, b, c, false);
        const real_t k2 = k.dot(k);
        const real_t factor =
            k2 == 0 ? mean_scale
                    : (gamma == 1 ? scale / k2 : scale / (k2 * k2));
        for (int d = 0; d < 3; ++d) spec_v_[d][idx] *= factor;
      }
  inverse_vector(w);
}

void SpectralOps::leray_project(VectorField& v) {
  // v_hat <- v_hat - k (k . v_hat) / |k|^2 with the odd-derivative k vector,
  // so the projected field is discretely divergence free. Both transforms
  // are batched over the three components.
  forward_vector(v);
  const Int3 sd = decomp_->local_spectral_dims();
  index_t idx = 0;
  for (index_t a = 0; a < sd[0]; ++a)
    for (index_t b = 0; b < sd[1]; ++b)
      for (index_t c = 0; c < sd[2]; ++c, ++idx) {
        const Vec3 k = wavenumber(a, b, c, true);
        const real_t k2 = k.dot(k);
        if (k2 == 0) continue;
        const complex_t kv =
            k[0] * spec_v_[0][idx] + k[1] * spec_v_[1][idx] +
            k[2] * spec_v_[2][idx];
        const complex_t s = kv / k2;
        for (int d = 0; d < 3; ++d) spec_v_[d][idx] -= k[d] * s;
      }
  inverse_vector(v);
}

void SpectralOps::gaussian_smooth(std::span<const real_t> f, const Vec3& sigma,
                                  ScalarField& out) {
  fft_.forward(f, spec_);
  scale_spectrum(std::span<complex_t>(spec_),
                 [&](index_t a, index_t b, index_t c) {
                   const Vec3 k = wavenumber(a, b, c, false);
                   const real_t e = sigma[0] * sigma[0] * k[0] * k[0] +
                                    sigma[1] * sigma[1] * k[1] * k[1] +
                                    sigma[2] * sigma[2] * k[2] * k[2];
                   return std::exp(real_t(-0.5) * e);
                 });
  if (out.size() != static_cast<size_t>(local_size()))
    out.resize(local_size());
  fft_.inverse(spec_, out);
}

}  // namespace diffreg::spectral

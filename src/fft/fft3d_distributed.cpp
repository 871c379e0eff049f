#include "fft/fft3d_distributed.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/timer.hpp"

namespace diffreg::fft {

using grid::PencilDecomp;

DistributedFft3d::DistributedFft3d(PencilDecomp& decomp)
    : decomp_(&decomp),
      fft1_(decomp.dims()[0]),
      fft2_(decomp.dims()[1]),
      fft3_(decomp.dims()[2]) {
  const Int3 rl = decomp.local_real_dims();
  const index_t n1l = rl[0], n2l = rl[1];
  const index_t n3c = decomp.n3c();
  const index_t n3cl = decomp.srange3().size();
  const index_t n2kl = decomp.srange2().size();
  const index_t n1 = decomp.dims()[0];
  const index_t n2 = decomp.dims()[1];

  a_stride_ = n1l * n2l * n3c;
  b_stride_ = n1l * n3cl * n2;
  s_stride_ = decomp.local_spectral_size();

  stage_a_.resize(kMaxBatch * a_stride_);
  stage_b_.resize(kMaxBatch * b_stride_);
  stage_e_.resize(kMaxBatch * s_stride_);
  row_.resize(std::max(decomp.dims()[2], n1));

  const index_t n3 = decomp.dims()[2];
  ablock_rows_ = std::max<index_t>(
      1, (index_t{1} << 15) / (n3 * static_cast<index_t>(sizeof(complex_t))));
  arow_block_.resize(ablock_rows_ * n3);

  // Row pair, o = i1: [i1][i2][k3] with k3 split <-> [i1][k3][i2] with i2
  // split. Col pair, o = k3: [i1][k3][k2] with k2 split <-> [k3][k2][i1]
  // with i1 split.
  row_pair_.lo = {{n2l * n3c, 1, n3c}, false, n3c, n2l};
  row_pair_.hi = {{n3cl * n2, n2, 1}, true, n2, n3cl};
  row_pair_.no = n1l;
  col_pair_.lo = {{n2, 1, n3cl * n2}, false, n2, n1l};
  col_pair_.hi = {{n2kl * n1, n1, 1}, true, n1, n2kl};
  col_pair_.no = n3cl;

  const index_t max_total = std::max({a_stride_, b_stride_, s_stride_});
  send_buf_.resize(kMaxBatch * max_total);
  recv_buf_.resize(kMaxBatch * max_total);
  const int max_p = std::max(decomp.p1(), decomp.p2());
  send_counts_.resize(max_p);
  recv_counts_.resize(max_p);
}

// ---------------------------------------------------------------------------
// Stage A: real <-> Hermitian half-spectrum along axis 3, two rows per
// complex transform.

void DistributedFft3d::stage_a_forward(const real_t* real_in,
                                       complex_t* half_out) {
  const Int3 rl = decomp_->local_real_dims();
  const index_t rows = rl[0] * rl[1];
  const index_t n3 = decomp_->dims()[2];
  const index_t n3c = decomp_->n3c();

  // z = x0 + i*x1: one c2c FFT per row *pair* yields both half-spectra via
  // the split X0[k] = (Z[k] + conj(Z[n-k]))/2, X1[k] = -i*(Z[k] -
  // conj(Z[n-k]))/2. Pairs are packed into cache-sized blocks so the 1D
  // transforms run through the stage-major batch path.
  const index_t npairs = rows / 2;
  index_t pair = 0;
  while (pair < npairs) {
    const index_t g = std::min(ablock_rows_, npairs - pair);
    for (index_t t = 0; t < g; ++t) {
      const real_t* s0 = real_in + 2 * (pair + t) * n3;
      const real_t* s1 = s0 + n3;
      complex_t* z = arow_block_.data() + t * n3;
      for (index_t i3 = 0; i3 < n3; ++i3) z[i3] = complex_t(s0[i3], s1[i3]);
    }
    fft3_.forward_batch(arow_block_.data(), g);
    for (index_t t = 0; t < g; ++t) {
      const complex_t* z = arow_block_.data() + t * n3;
      complex_t* d0 = half_out + 2 * (pair + t) * n3c;
      complex_t* d1 = d0 + n3c;
      d0[0] = complex_t(z[0].real(), 0);
      d1[0] = complex_t(z[0].imag(), 0);
      for (index_t k = 1; k < n3c; ++k) {
        const complex_t zk = z[k];
        const complex_t zc = std::conj(z[n3 - k]);
        d0[k] = real_t(0.5) * (zk + zc);
        const complex_t diff = zk - zc;  // == 2i * X1[k]
        d1[k] = complex_t(real_t(0.5) * diff.imag(),
                          real_t(-0.5) * diff.real());
      }
    }
    pair += g;
  }
  const index_t row = 2 * npairs;
  if (row < rows) {  // odd row count: pad the last row to a full c2c FFT
    const real_t* src = real_in + row * n3;
    for (index_t i3 = 0; i3 < n3; ++i3) row_[i3] = complex_t(src[i3], 0);
    fft3_.forward(row_.data());
    std::copy_n(row_.data(), n3c, half_out + row * n3c);
  }
}

void DistributedFft3d::stage_a_inverse(const complex_t* half_in,
                                       real_t* real_out) {
  const Int3 rl = decomp_->local_real_dims();
  const index_t rows = rl[0] * rl[1];
  const index_t n3 = decomp_->dims()[2];
  const index_t n3c = decomp_->n3c();

  // Rebuild z = x0 + i*x1 in the spectral domain: Z[k] = S0[k] + i*S1[k]
  // on the stored half, Hermitian continuation on the mirrored half; one
  // inverse c2c FFT per row pair, blocked through the batch path. The
  // stages upstream ran unnormalized, so the scatter applies the whole
  // 1/(N1 N2 N3) in one pass.
  const real_t inv_n = real_t(1) / static_cast<real_t>(decomp_->dims().prod());
  const index_t npairs = rows / 2;
  index_t pair = 0;
  while (pair < npairs) {
    const index_t g = std::min(ablock_rows_, npairs - pair);
    for (index_t t = 0; t < g; ++t) {
      const complex_t* s0 = half_in + 2 * (pair + t) * n3c;
      const complex_t* s1 = s0 + n3c;
      complex_t* z = arow_block_.data() + t * n3;
      for (index_t k = 0; k < n3c; ++k)
        z[k] = complex_t(s0[k].real() - s1[k].imag(),
                         s0[k].imag() + s1[k].real());
      for (index_t k = n3c; k < n3; ++k) {
        const complex_t a = s0[n3 - k];
        const complex_t b = s1[n3 - k];
        // conj(a) + i*conj(b)
        z[k] = complex_t(a.real() + b.imag(), b.real() - a.imag());
      }
    }
    fft3_.inverse_batch_noscale(arow_block_.data(), g);
    for (index_t t = 0; t < g; ++t) {
      const complex_t* z = arow_block_.data() + t * n3;
      real_t* d0 = real_out + 2 * (pair + t) * n3;
      real_t* d1 = d0 + n3;
      for (index_t i3 = 0; i3 < n3; ++i3) {
        d0[i3] = z[i3].real() * inv_n;
        d1[i3] = z[i3].imag() * inv_n;
      }
    }
    pair += g;
  }
  const index_t row = 2 * npairs;
  if (row < rows) {  // odd row count: Hermitian completion, c2c inverse
    const complex_t* src = half_in + row * n3c;
    for (index_t k3 = 0; k3 < n3c; ++k3) row_[k3] = src[k3];
    for (index_t k3 = n3c; k3 < n3; ++k3) row_[k3] = std::conj(src[n3 - k3]);
    fft3_.inverse_batch_noscale(row_.data(), 1);
    real_t* dst = real_out + row * n3;
    for (index_t i3 = 0; i3 < n3; ++i3) dst[i3] = row_[i3].real() * inv_n;
  }
}

// ---------------------------------------------------------------------------
// Public transforms.

void DistributedFft3d::forward(std::span<const real_t> local_real,
                               std::span<complex_t> local_spectral) {
  const real_t* reals[1] = {local_real.data()};
  complex_t* specs[1] = {local_spectral.data()};
  assert(static_cast<index_t>(local_real.size()) == local_real_size());
  assert(static_cast<index_t>(local_spectral.size()) == local_spectral_size());
  forward_many(std::span<const real_t* const>(reals),
               std::span<complex_t* const>(specs));
}

void DistributedFft3d::inverse(std::span<const complex_t> local_spectral,
                               std::span<real_t> local_real) {
  const complex_t* specs[1] = {local_spectral.data()};
  real_t* reals[1] = {local_real.data()};
  assert(static_cast<index_t>(local_real.size()) == local_real_size());
  assert(static_cast<index_t>(local_spectral.size()) == local_spectral_size());
  inverse_many(std::span<const complex_t* const>(specs),
               std::span<real_t* const>(reals));
}

void DistributedFft3d::forward_many(std::span<const real_t* const> reals,
                                    std::span<complex_t* const> specs) {
  const int ncomp = static_cast<int>(reals.size());
  if (ncomp < 1 || ncomp > kMaxBatch ||
      specs.size() != static_cast<size_t>(ncomp))
    throw std::invalid_argument("DistributedFft3d: bad batch size");
  Timings& timings = decomp_->comm().timings();
  const Int3 rl = decomp_->local_real_dims();
  const index_t n3cl = decomp_->srange3().size();
  const index_t n2kl = decomp_->srange2().size();
  complex_t* a[kMaxBatch];
  complex_t* b[kMaxBatch];
  for (int c = 0; c < ncomp; ++c) {
    a[c] = stage_a_.data() + c * a_stride_;
    b[c] = stage_b_.data() + c * b_stride_;
  }
  const std::span<complex_t* const> as(a, ncomp), bs(b, ncomp);

  {  // Stage A: r2c along axis 3.
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c) stage_a_forward(reals[c], a[c]);
  }

  transpose(row_pair_, /*forward=*/true, decomp_->row_comm(), as, bs,
            kTagRowFwd);

  {  // Stage C: c2c along axis 2 — components are contiguous in stage_b_,
     // so one batch call covers all of them.
    ScopedTimer t(timings, TimeKind::kFftExec);
    fft2_.forward_batch(stage_b_.data(), ncomp * rl[0] * n3cl);
  }

  transpose(col_pair_, /*forward=*/true, decomp_->col_comm(), bs, specs,
            kTagColFwd);

  {  // Stage E: c2c along axis 1 (contiguous rows of the spectral layout).
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c)
      fft1_.forward_batch(specs[c], n3cl * n2kl);
  }
}

void DistributedFft3d::inverse_many(std::span<const complex_t* const> specs,
                                    std::span<real_t* const> reals) {
  const int ncomp = static_cast<int>(specs.size());
  if (ncomp < 1 || ncomp > kMaxBatch ||
      reals.size() != static_cast<size_t>(ncomp))
    throw std::invalid_argument("DistributedFft3d: bad batch size");
  Timings& timings = decomp_->comm().timings();
  const Int3 rl = decomp_->local_real_dims();
  const index_t n3cl = decomp_->srange3().size();
  const index_t n2kl = decomp_->srange2().size();
  complex_t* e[kMaxBatch];
  complex_t* b[kMaxBatch];
  complex_t* a[kMaxBatch];
  for (int c = 0; c < ncomp; ++c) {
    e[c] = stage_e_.data() + c * s_stride_;
    b[c] = stage_b_.data() + c * b_stride_;
    a[c] = stage_a_.data() + c * a_stride_;
  }
  const std::span<complex_t* const> es(e, ncomp), bs(b, ncomp), as(a, ncomp);

  {  // Stage E inverse, out-of-place into stage_e_ (the caller's spectrum
     // stays const; no copy pass — the first 1D stage reads it).
     // Unnormalized: the whole 1/(N1 N2 N3) is folded into stage A's
     // scatter, saving two full scaling sweeps.
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c)
      fft1_.inverse_batch_noscale(specs[c], e[c], n3cl * n2kl);
  }

  transpose(col_pair_, /*forward=*/false, decomp_->col_comm(), es, bs,
            kTagColInv);

  {  // Stage C inverse (unnormalized, see stage E).
    ScopedTimer t(timings, TimeKind::kFftExec);
    fft2_.inverse_batch_noscale(stage_b_.data(), ncomp * rl[0] * n3cl);
  }

  transpose(row_pair_, /*forward=*/false, decomp_->row_comm(), bs, as,
            kTagRowInv);

  {  // Stage A inverse: c2r along axis 3.
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c) stage_a_inverse(a[c], reals[c]);
  }
}

// ---------------------------------------------------------------------------
// The transpose.

// diffreg:zero-alloc
void DistributedFft3d::copy_box(const complex_t* src, Strides ss,
                                complex_t* dst, Strides ds, index_t no,
                                index_t na, index_t nb) {
  constexpr index_t kTile = 8;
  for (index_t o = 0; o < no; ++o) {
    const complex_t* s = src + o * ss.o;
    complex_t* d = dst + o * ds.o;
    for (index_t a0 = 0; a0 < na; a0 += kTile) {
      const index_t a1 = std::min(na, a0 + kTile);
      for (index_t b0 = 0; b0 < nb; b0 += kTile) {
        const index_t b1 = std::min(nb, b0 + kTile);
        for (index_t a = a0; a < a1; ++a)
          for (index_t b = b0; b < b1; ++b)
            d[a * ds.a + b * ds.b] = s[a * ss.a + b * ss.b];
      }
    }
  }
}

// diffreg:zero-alloc
void DistributedFft3d::transpose(const TransposePair& pair, bool forward,
                                 mpisim::Communicator& comm,
                                 std::span<const complex_t* const> src,
                                 std::span<complex_t* const> dst, int tag) {
  const Layout& from = forward ? pair.lo : pair.hi;
  const Layout& to = forward ? pair.hi : pair.lo;
  const auto ncomp = static_cast<index_t>(src.size());
  const int p = comm.size(), self = comm.rank();
  Timings& timings = comm.timings();

  // 1. Pack the peer chunks in peer order, each [component][o][a][b].
  index_t send_total = 0, recv_total = 0;
  {
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int q = 0; q < p; ++q) {
      send_counts_[q] = recv_counts_[q] = 0;
      if (q == self) continue;
      const Chunk s = from.chunk(p, q), r = to.chunk(p, q);
      for (index_t c = 0; c < ncomp; ++c) {
        copy_box(src[c] + s.offset, from.stride, send_buf_.data() + send_total,
                 s.wire(), pair.no, s.na, s.nb);
        send_total += pair.no * s.size();
      }
      send_counts_[q] = ncomp * pair.no * s.size();
      recv_counts_[q] = ncomp * pair.no * r.size();
      recv_total += recv_counts_[q];
    }
  }

  // 2. Post them; the self chunk never enters the buffers.
  comm.set_time_kind(TimeKind::kFftComm);
  const auto np = static_cast<size_t>(p);
  auto req = comm.ialltoallv(
      std::span<const complex_t>(send_buf_.data(),
                                 static_cast<size_t>(send_total)),
      std::span<const index_t>(send_counts_.data(), np),
      std::span<complex_t>(recv_buf_.data(), static_cast<size_t>(recv_total)),
      std::span<const index_t>(recv_counts_.data(), np), tag);

  // 3. Copy the self chunk straight across under the peer chunks' flight.
  {
    ScopedTimer t(timings, TimeKind::kFftExec);
    const Chunk s = from.chunk(p, self), r = to.chunk(p, self);
    for (index_t c = 0; c < ncomp; ++c)
      copy_box(src[c] + s.offset, from.stride, dst[c] + r.offset, to.stride,
               pair.no, s.na, s.nb);
  }

  // 4. Wait, then unpack the peer chunks.
  req.wait();
  ScopedTimer t(timings, TimeKind::kFftExec);
  index_t pos = 0;
  for (int q = 0; q < p; ++q) {
    if (q == self) continue;
    const Chunk r = to.chunk(p, q);
    for (index_t c = 0; c < ncomp; ++c) {
      copy_box(recv_buf_.data() + pos, r.wire(), dst[c] + r.offset,
               to.stride, pair.no, r.na, r.nb);
      pos += pair.no * r.size();
    }
  }
}

}  // namespace diffreg::fft

#include "fft/fft1d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace diffreg::fft {

namespace {

/// Largest prime the engine runs as a radix; sizes with a larger prime
/// factor go through Bluestein.
constexpr int kMaxPrime = 61;

index_t largest_prime_factor(index_t n) {
  index_t largest = 1;
  for (index_t f = 2; f * f <= n; ++f)
    while (n % f == 0) {
      largest = f;
      n /= f;
    }
  return std::max(largest, n);
}

/// a * b without std::complex's NaN-recovery branch.
inline complex_t mul(complex_t a, complex_t b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// a * -i on the forward transform, a * +i on the inverse.
template <bool Inv>
inline complex_t rot(complex_t a) {
  return Inv ? complex_t(-a.imag(), a.real()) : complex_t(a.imag(), -a.real());
}

// Butterflies: each replaces a[0..r-1] by its length-r DFT in the direction
// Inv. kSlots sizes run_stage's stack arrays.

struct Radix2 {
  static constexpr int kSlots = 2;
  int radix() const { return 2; }
  void operator()(complex_t* a) const {
    const complex_t t = a[1];
    a[1] = a[0] - t;
    a[0] += t;
  }
};

template <bool Inv>
struct Radix4 {
  static constexpr int kSlots = 4;
  int radix() const { return 4; }
  void operator()(complex_t* a) const {
    const complex_t t0 = a[0] + a[2], t1 = a[0] - a[2];
    const complex_t t2 = a[1] + a[3], t3 = rot<Inv>(a[1] - a[3]);
    a[0] = t0 + t2;
    a[1] = t1 + t3;
    a[2] = t0 - t2;
    a[3] = t1 - t3;
  }
};

/// Any odd prime r <= kMaxPrime. With s_j = a_j + a_(r-j) and
/// d_j = a_j - a_(r-j) for j = 1..h, h = (r-1)/2, output k and r-k share
/// A_k = a_0 + sum_j s_j cos(2 pi jk/r) and B_k = sum_j d_j sin(2 pi jk/r):
/// b_k = A_k + rot(B_k), b_(r-k) = A_k - rot(B_k).
template <bool Inv>
struct OddPrime {
  static constexpr int kSlots = kMaxPrime;
  int r;
  const real_t* cos;  // cos[(k-1)*h + j-1] = cos(2 pi jk / r)
  const real_t* sin;  // sin[(k-1)*h + j-1] = sin(2 pi jk / r)
  int radix() const { return r; }
  void operator()(complex_t* a) const {
    const int h = (r - 1) / 2;
    // Real arrays: a complex_t array would be zero-filled on every call.
    real_t sr[kMaxPrime / 2], si[kMaxPrime / 2];
    real_t dr[kMaxPrime / 2], di[kMaxPrime / 2];
    const complex_t a0 = a[0];
    for (int j = 0; j < h; ++j) {
      const complex_t sj = a[j + 1] + a[r - 1 - j];
      const complex_t dj = a[j + 1] - a[r - 1 - j];
      sr[j] = sj.real(), si[j] = sj.imag();
      dr[j] = dj.real(), di[j] = dj.imag();
      a[0] += sj;
    }
    for (int k = 1; k <= h; ++k) {
      const real_t* ck = cos + (k - 1) * h;
      const real_t* sk = sin + (k - 1) * h;
      real_t re_r = a0.real(), re_i = a0.imag(), im_r = 0, im_i = 0;
      for (int j = 0; j < h; ++j) {
        re_r += ck[j] * sr[j];
        re_i += ck[j] * si[j];
        im_r += sk[j] * dr[j];
        im_i += sk[j] * di[j];
      }
      const complex_t re(re_r, re_i);
      const complex_t b = rot<Inv>(complex_t(im_r, im_i));
      a[k] = re + b;
      a[r - k] = re - b;
    }
  }
};

/// One Stockham stage over `rows` rows of length n = s*r*m: for p < m and
/// q < s, the r inputs x[q + s*(p + j*m)] are transformed and written to
/// y[q + s*(r*p + k)] times the twiddle w_(r*m)^(p*k), conjugated on the
/// inverse. The p = 0 block is twiddle-free; in the last stage (m == 1) it
/// is the whole stage, carries `scale`, and may run in place (x == y), since
/// every butterfly loads its inputs before it stores.
// diffreg:zero-alloc
template <bool Inv, class Bfly>
void run_stage(const Bfly& bfly, const complex_t* x, complex_t* y,
               index_t rows, index_t n, index_t s, index_t m,
               const complex_t* tw, real_t scale) {
  const int r = bfly.radix();
  const index_t sm = s * m;
  complex_t a[Bfly::kSlots], w[Bfly::kSlots];
  for (index_t row = 0; row < rows; ++row, x += n, y += n) {
    for (index_t q = 0; q < s; ++q) {
      for (int j = 0; j < r; ++j) a[j] = x[q + j * sm];
      bfly(a);
      if (scale != 1)
        for (int k = 0; k < r; ++k) a[k] *= scale;
      for (int k = 0; k < r; ++k) y[q + k * s] = a[k];
    }
    for (index_t p = 1; p < m; ++p) {
      for (int k = 1; k < r; ++k) {
        const complex_t t = tw[(p - 1) * (r - 1) + k - 1];
        w[k] = Inv ? std::conj(t) : t;
      }
      const complex_t* xp = x + p * s;
      complex_t* yp = y + p * r * s;
      for (index_t q = 0; q < s; ++q) {
        for (int j = 0; j < r; ++j) a[j] = xp[q + j * sm];
        bfly(a);
        yp[q] = a[0];
        for (int k = 1; k < r; ++k) yp[q + k * s] = mul(a[k], w[k]);
      }
    }
  }
}

template <bool Inv>
void run_radix(int radix, const real_t* cos, const real_t* sin,
               const complex_t* x, complex_t* y, index_t rows, index_t n,
               index_t s, index_t m, const complex_t* tw, real_t scale) {
  switch (radix) {
    case 2:
      run_stage<Inv>(Radix2{}, x, y, rows, n, s, m, tw, scale);
      break;
    case 4:
      run_stage<Inv>(Radix4<Inv>{}, x, y, rows, n, s, m, tw, scale);
      break;
    default:
      run_stage<Inv>(OddPrime<Inv>{radix, cos, sin}, x, y, rows, n, s, m,
                     tw, scale);
      break;
  }
}

}  // namespace

Fft1d::Fft1d(index_t n) : n_(n) {
  if (n <= 0) throw std::invalid_argument("Fft1d: size must be positive");
  if (largest_prime_factor(n) <= kMaxPrime) {
    build_engine(n);
    return;
  }
  // Bluestein: a length-m circular convolution, m a power of two >= 2n-1.
  index_t m = 1;
  while (m < 2 * n - 1) m <<= 1;
  build_engine(m);
  chirp_.resize(n_);
  for (index_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the phase argument small for large n.
    const index_t k2 = (k * k) % (2 * n_);
    const real_t phase = -kTwoPi / 2 * static_cast<real_t>(k2) /
                         static_cast<real_t>(n_);
    chirp_[k] = complex_t(std::cos(phase), std::sin(phase));
  }
  // Filter v[t] = conj(chirp(|t|)) on the circularly wrapped support; the
  // engine's inverse runs unnormalized, so its 1/m is folded in here.
  std::vector<complex_t> filter(m, complex_t(0, 0));
  for (index_t k = 0; k < n_; ++k) {
    filter[k] = std::conj(chirp_[k]);
    if (k > 0) filter[m - k] = filter[k];
  }
  stockham(filter.data(), filter.data(), 1, /*inverse=*/false, 1);
  for (complex_t& v : filter) v /= static_cast<real_t>(m);
  chirp_filter_fft_ = std::move(filter);
  conv_.resize(m);
}

void Fft1d::build_engine(index_t len) {
  len_ = len;
  std::vector<int> radices;
  index_t rest = len;
  for (; rest % 4 == 0; rest /= 4) radices.push_back(4);
  for (; rest % 2 == 0; rest /= 2) radices.push_back(2);
  for (int p = 3; rest > 1; p += 2)
    for (; rest % p == 0; rest /= p) radices.push_back(p);

  // root[t] = exp(-2 pi i t / len); the upper half mirrors the lower, so
  // the table costs about len trig calls.
  std::vector<complex_t> root(len);
  for (index_t t = 0; 2 * t <= len; ++t) {
    const real_t phase =
        -kTwoPi * static_cast<real_t>(t) / static_cast<real_t>(len);
    root[t] = complex_t(std::cos(phase), std::sin(phase));
    if (t > 0 && 2 * t < len) root[len - t] = std::conj(root[t]);
  }

  index_t s = 1;
  for (const int r : radices) {
    const index_t m = len / (s * r);
    stages_.push_back({r, m, s, static_cast<index_t>(twiddles_.size()),
                       static_cast<index_t>(cos_.size())});
    for (index_t p = 1; p < m; ++p)
      for (int k = 1; k < r; ++k) twiddles_.push_back(root[p * k * s]);
    if (r % 2 == 1) {
      const int h = (r - 1) / 2;
      for (int k = 1; k <= h; ++k)
        for (int j = 1; j <= h; ++j) {
          const complex_t w = root[(j * k % r) * (len / r)];
          cos_.push_back(w.real());
          sin_.push_back(-w.imag());
        }
    }
    s *= r;
  }

  block_rows_ = std::max<index_t>(
      1, kBatchBlockBytes / (len * static_cast<index_t>(sizeof(complex_t))));
  if (stages_.size() > 1) work_.resize(block_rows_ * len);
}

// diffreg:zero-alloc
void Fft1d::stockham(const complex_t* src, complex_t* dst, index_t rows,
                     bool inverse, real_t scale) {
  const size_t nstages = stages_.size();
  const complex_t* from = src;
  for (size_t i = 0; i < nstages; ++i) {
    // Stages alternate work block, dst, work block, ..., and the last one
    // writes dst: with an odd stage count it runs in place on dst, which its
    // twiddle-free butterflies allow.
    complex_t* to = i + 1 < nstages && (i & 1) == 0 ? work_.data() : dst;
    const Stage& st = stages_[i];
    const real_t sc = i + 1 == nstages ? scale : real_t(1);
    const real_t* c = cos_.data() + st.cos_sin;
    const real_t* sn = sin_.data() + st.cos_sin;
    const complex_t* tw = twiddles_.data() + st.twiddles;
    if (inverse)
      run_radix<true>(st.radix, c, sn, from, to, rows, len_, st.s, st.m, tw,
                      sc);
    else
      run_radix<false>(st.radix, c, sn, from, to, rows, len_, st.s, st.m, tw,
                       sc);
    from = to;
  }
}

// diffreg:zero-alloc
void Fft1d::bluestein(const complex_t* src, complex_t* dst, bool inverse,
                      real_t scale) {
  // Forward: X_j = c_j * (u conv v)_j with u_k = x_k c_k, v = conj-chirp.
  // Inverse: IDFT(x) = conj(DFT(conj(x))), the conjugations fused into the
  // chirp products.
  complex_t* u = conv_.data();
  for (index_t k = 0; k < n_; ++k)
    u[k] = mul(inverse ? std::conj(src[k]) : src[k], chirp_[k]);
  std::fill(u + n_, u + len_, complex_t(0, 0));
  stockham(u, u, 1, /*inverse=*/false, 1);
  for (index_t k = 0; k < len_; ++k) u[k] = mul(u[k], chirp_filter_fft_[k]);
  stockham(u, u, 1, /*inverse=*/true, 1);
  for (index_t k = 0; k < n_; ++k) {
    const complex_t y = mul(u[k], chirp_[k]);
    dst[k] = inverse ? std::conj(y) * scale : y;
  }
}

// diffreg:zero-alloc
void Fft1d::transform(const complex_t* src, complex_t* dst, index_t count,
                      bool inverse, real_t scale) {
  if (!chirp_.empty()) {
    for (index_t r = 0; r < count; ++r)
      bluestein(src + r * n_, dst + r * n_, inverse, scale);
    return;
  }
  if (stages_.empty()) {  // n == 1: the identity
    if (src != dst) std::copy(src, src + count, dst);
    return;
  }
  for (index_t r0 = 0; r0 < count; r0 += block_rows_) {
    const index_t rows = std::min(block_rows_, count - r0);
    stockham(src + r0 * n_, dst + r0 * n_, rows, inverse, scale);
  }
}

}  // namespace diffreg::fft

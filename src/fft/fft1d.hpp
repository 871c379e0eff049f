// Plan-based 1D complex FFT.
//
// Two execution paths, chosen from n at plan time:
//  * smooth sizes (every prime factor <= 61: the powers of two, the 48 and
//    56 of the brain-48 grid, the 300 of the paper's 256x300x256 brain
//    grid): an iterative, self-sorting (Stockham) engine. n is factored into
//    radices, 4 first, then 2, then odd primes up to 61. Each stage reads
//    one buffer and writes the other, and the output lands in natural
//    order, so there is no bit-reversal pass. Radix 2 and 4 are written
//    out; every odd prime runs one table-driven butterfly that pairs a_j
//    with a_(r-j);
//  * sizes with a prime factor above 61: Bluestein's algorithm, whose
//    power-of-two convolution runs on the same engine.
//
// The per-stage twiddles and each prime stage's cos/sin table are built at
// plan time, so no trig call and no integer division runs per transform. A
// flag picks the +-i direction of the butterflies and conjugates each
// twiddle as it is loaded; the data is never conjugated. Batched transforms
// run the stages over blocks of rows (stage-major within a cache-sized
// block), ping-ponging between the rows and one work block the plan owns.
// The last stage is twiddle-free, writes the destination and carries any
// scaling.
//
// Forward transforms are unnormalized; inverse transforms scale by 1/N, so
// inverse(forward(x)) == x.
//
// A plan owns scratch buffers, so a single plan must not be used from two
// threads concurrently; in SPMD runs each rank creates its own plans.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace diffreg::fft {

class Fft1d {
 public:
  explicit Fft1d(index_t n);

  index_t size() const { return n_; }

  /// In-place transform of one length-n row.
  void forward(complex_t* data) { transform(data, data, 1, false, 1); }
  void inverse(complex_t* data) {
    transform(data, data, 1, true, real_t(1) / static_cast<real_t>(n_));
  }

  /// In-place forward transform of `count` contiguous rows of length n.
  void forward_batch(complex_t* data, index_t count) {
    transform(data, data, count, false, 1);
  }

  /// In-place inverse without the 1/N normalization, for pipelines that fold
  /// the overall scale of a multi-dimensional inverse into one final pass.
  void inverse_batch_noscale(complex_t* data, index_t count) {
    transform(data, data, count, true, 1);
  }

  /// Out-of-place unnormalized inverse of `count` contiguous rows: reads
  /// `src`, writes `dst` (must not alias). The first stage reads `src`
  /// directly, so no separate copy pass is needed.
  void inverse_batch_noscale(const complex_t* src, complex_t* dst,
                             index_t count) {
    transform(src, dst, count, true, 1);
  }

 private:
  /// One Stockham stage: radix-r butterflies over sub-transforms of length
  /// r*m whose elements sit s apart (s is the product of the earlier
  /// radices, so n == s * r * m).
  struct Stage {
    int radix;
    index_t m, s;
    index_t twiddles;  // offset of the (m-1)*(radix-1) twiddles
    index_t cos_sin;   // table-driven primes: offset of the h*h cos/sin tables
  };

  /// Rows per engine block: a block and the work block stay around L1 size.
  static constexpr index_t kBatchBlockBytes = 1 << 15;

  /// Factors `len` into stages and builds their tables and the work block.
  void build_engine(index_t len);
  /// `scale` multiplies the result (1/n for `inverse`, 1 otherwise); `src`
  /// either equals `dst` or does not overlap it.
  void transform(const complex_t* src, complex_t* dst, index_t count,
                 bool inverse, real_t scale);
  /// Runs the engine's stages on `rows` contiguous rows of length len_.
  void stockham(const complex_t* src, complex_t* dst, index_t rows,
                bool inverse, real_t scale);
  void bluestein(const complex_t* src, complex_t* dst, bool inverse,
                 real_t scale);

  index_t n_;

  // Stockham engine of length len_: n itself, or Bluestein's padded m.
  index_t len_ = 1;
  index_t block_rows_ = 1;
  std::vector<Stage> stages_;
  std::vector<complex_t> twiddles_;
  std::vector<real_t> cos_, sin_;
  std::vector<complex_t> work_;

  // Bluestein path: chirp c_k = exp(-i pi k^2 / n), the spectrum of the
  // chirp filter (with the engine inverse's 1/m folded in), and the padded
  // length-m convolution row.
  std::vector<complex_t> chirp_;
  std::vector<complex_t> chirp_filter_fft_;
  std::vector<complex_t> conv_;
};

}  // namespace diffreg::fft

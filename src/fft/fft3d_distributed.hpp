// Distributed 3D real-to-complex FFT on the pencil decomposition
// (AccFFT-style, paper section III-C1 and Fig. 4).
//
// Forward pipeline (inverse runs the same stages backwards):
//   A. r2c 1D FFTs along the locally-contiguous axis 3 — two real rows are
//      packed into one complex FFT (z = x0 + i*x1) and the half-spectra are
//      recovered from the Hermitian split, halving the axis-3 transform
//      count relative to padding each row to a full complex FFT;
//   B. "row" transpose: alltoallv inside the row communicator exchanges the
//      k3 half-spectrum against axis 2, giving every rank full axis-2 rows;
//   C. c2c 1D FFTs along axis 2;
//   D. "col" transpose: alltoallv inside the column communicator exchanges
//      k2 against axis 1, giving every rank full axis-1 rows;
//   E. c2c 1D FFTs along axis 1.
//
// Both transposes are one operation: each side is a component's block
// viewed as [o][a][b] with its own strides, one of a or b split over the
// peers of the row (or column) communicator. Peer chunks travel as
// [component][o][a][b] through flat send/recv buffers and per-peer count
// tables owned by the plan, so forward/inverse perform no heap allocation
// after construction (the thread-backed mpisim transport still copies
// message payloads — that is the simulated wire).
//
// `forward_many`/`inverse_many` transform up to kMaxBatch components (the
// three components of a velocity field) in one pass: every component rides
// the same two alltoallv exchanges per transform, cutting the message count
// of vector-field transforms by the batch factor (the CLAIRE-style batching
// of Mang et al. 2019 / Brunn et al. 2020).
//
// Cost model (paper): O(7.5 N^3/p log N) flops and two sqrt(p)-wide
// alltoall rounds per transform. Time spent inside the exchanges is charged
// to TimeKind::kFftComm, local 1D FFTs and pack/copy/unpack to kFftExec;
// the exchange/message/byte counters of Timings track comm volume.
//
// Comm/compute overlap: a transpose packs its peer chunks, posts them
// nonblocking with a self count of 0, and copies the SELF chunk — the part
// of the block that stays on this rank — straight from source to
// destination while the peer chunks are in flight; it waits only before
// unpacking the peer chunks. (The downstream 1D FFT stages each need FULL
// rows spanning every peer, so the self copy is exactly the independent
// work available under the exchange.) The overlapped wire time lands in
// the Timings hidden-comm counter. When a communicator has one rank
// (p1 = 1 or p2 = 1) the same code runs with nothing to pack or unpack.
#pragma once

#include <span>
#include <vector>

#include "fft/fft1d.hpp"
#include "grid/decomposition.hpp"

namespace diffreg::fft {

class DistributedFft3d {
 public:
  /// Components that can share one batched transform (a 3-vector field).
  static constexpr int kMaxBatch = 3;

  explicit DistributedFft3d(grid::PencilDecomp& decomp);

  const grid::PencilDecomp& decomp() const { return *decomp_; }
  index_t local_real_size() const { return decomp_->local_real_size(); }
  index_t local_spectral_size() const {
    return decomp_->local_spectral_size();
  }

  /// Unnormalized forward transform of the locally owned real block
  /// [n1loc][n2loc][N3] into the local spectral block [n3c_loc][n2k_loc][N1].
  void forward(std::span<const real_t> local_real,
               std::span<complex_t> local_spectral);

  /// Inverse transform with full 1/(N1 N2 N3) normalization.
  void inverse(std::span<const complex_t> local_spectral,
               std::span<real_t> local_real);

  /// Batched forward: transforms reals[c] into specs[c] for every component,
  /// aggregating all components into the same two alltoallv exchanges.
  /// Results are bitwise identical to calling forward() per component.
  void forward_many(std::span<const real_t* const> reals,
                    std::span<complex_t* const> specs);

  /// Batched inverse, the mirror of forward_many (2 exchanges total instead
  /// of 2 per component).
  void inverse_many(std::span<const complex_t* const> specs,
                    std::span<real_t* const> reals);

 private:
  // Stage A helpers: r2c of all [n1l*n2l] axis-3 rows of one component
  // (paired two-in-one-complex-FFT), and the c2r mirror.
  void stage_a_forward(const real_t* real_in, complex_t* half_out);
  void stage_a_inverse(const complex_t* half_in, real_t* real_out);

  /// Element strides of an [o][a][b] view.
  struct Strides {
    index_t o = 0, a = 0, b = 0;
  };
  /// The part of a layout exchanged with one peer: its first element and
  /// its [a][b] extents.
  struct Chunk {
    index_t offset = 0, na = 0, nb = 0;
    index_t size() const { return na * nb; }
    /// Strides of the chunk on the wire: [o][a][b], b fastest.
    Strides wire() const { return {size(), nb, 1}; }
  };
  /// One side of a transpose. Exactly one of a and b is split over the
  /// peers (peer q owns block_range(split_n, p, q) of it); the other has
  /// `local_n` entries on every peer.
  struct Layout {
    Strides stride;
    bool split_b = false;
    index_t split_n = 0;
    index_t local_n = 0;

    Chunk chunk(int p, int q) const {
      const BlockRange r = block_range(split_n, p, q);
      if (split_b) return {r.begin * stride.b, local_n, r.size()};
      return {r.begin * stride.a, r.size(), local_n};
    }
  };
  /// The two layouts a transpose moves between (forward: lo -> hi) and
  /// the outer extent they share.
  struct TransposePair {
    Layout lo, hi;
    index_t no = 0;
  };

  /// dst[o, a, b] = src[o, a, b] over a [no][na][nb] box, each side with
  /// its own strides: the pack, the unpack and the self copy of every
  /// transpose. 8x8 (a, b) tiles keep both the strided reads and the writes
  /// inside a few cache lines per tile.
  static void copy_box(const complex_t* src, Strides ss, complex_t* dst,
                       Strides ds, index_t no, index_t na, index_t nb);

  /// Moves `src[c]` (one layout of `pair`) into `dst[c]` (the other) for
  /// every component over `comm`: pack the peer chunks, post them, copy
  /// the self chunk under their flight, wait, unpack.
  void transpose(const TransposePair& pair, bool forward,
                 mpisim::Communicator& comm,
                 std::span<const complex_t* const> src,
                 std::span<complex_t* const> dst, int tag);

  grid::PencilDecomp* decomp_;
  Fft1d fft1_, fft2_, fft3_;

  // Per-component strides of the stage buffers (see layouts above).
  index_t a_stride_ = 0;  // [n1l][n2l][n3c]
  index_t b_stride_ = 0;  // [n1l][n3c_l][N2]
  index_t s_stride_ = 0;  // [n3c_l][n2k_l][N1]

  // Stage buffers, sized eagerly for kMaxBatch components: the plan's
  // zero-allocation guarantee covers the *first* batched call too, and every
  // solver plan does vector-field transforms (gradient, Leray projection,
  // regularization applies). A scalar-only plan pays ~3x the stage-buffer
  // footprint it strictly needs.
  std::vector<complex_t> stage_a_;
  std::vector<complex_t> stage_b_;
  std::vector<complex_t> stage_e_;  // inverse stage E output (out-of-place)
  std::vector<complex_t> row_;      // length max(N3, N1) scratch

  // Stage A runs its axis-3 transforms over blocks of packed rows so the
  // 1D batch path (stage-major butterflies) applies there too.
  index_t ablock_rows_ = 1;
  std::vector<complex_t> arow_block_;  // [ablock_rows_][N3]

  // [n1l][n2l][n3c] <-> [n1l][n3c_l][N2] over the row communicator, and
  // [n1l][n3c_l][N2] <-> [n3c_l][n2k_l][N1] over the column communicator.
  TransposePair row_pair_, col_pair_;

  // Persistent flat buffers for the peer chunks and the per-peer element
  // counts of one call, so no transpose allocates.
  std::vector<complex_t> send_buf_, recv_buf_;
  std::vector<index_t> send_counts_, recv_counts_;

  static constexpr int kTagRowFwd = 101;
  static constexpr int kTagColFwd = 102;
  static constexpr int kTagColInv = 103;
  static constexpr int kTagRowInv = 104;
};

}  // namespace diffreg::fft

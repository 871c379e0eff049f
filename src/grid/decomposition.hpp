// 2D pencil decomposition of the N1 x N2 x N3 grid over p = p1 x p2 ranks
// (paper Fig. 4, the AccFFT data layout).
//
// Real space:     dim 1 split over p1, dim 2 split over p2, dim 3 local.
//                 Local layout [n1loc][n2loc][N3], i3 fastest.
// Spectral space: after the 3D r2c transform the local layout is
//                 [n3c_loc][n2k_loc][N1], k1 fastest, where the Hermitian
//                 half-dimension k3 (size N3/2+1) is split over p2 and k2
//                 over p1. Both splits allow non-divisible sizes.
#pragma once

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/partition.hpp"
#include "common/types.hpp"
#include "mpisim/communicator.hpp"

namespace diffreg::grid {

/// Chooses a near-square process grid p1 x p2 = p (p1 <= p2).
inline std::pair<int, int> choose_process_grid(int p) {
  int p1 = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (p1 > 1 && p % p1 != 0) --p1;
  return {p1, p / p1};
}

class PencilDecomp {
 public:
  /// Collective over `comm`: builds row/col sub-communicators.
  PencilDecomp(mpisim::Communicator comm, const Int3& dims, int p1, int p2)
      : comm_(comm), dims_(dims), p1_(p1), p2_(p2) {
    if (p1_ * p2_ != comm_.size())
      throw std::invalid_argument("PencilDecomp: p1 * p2 != communicator size");
    rank_ = comm_.rank();
    r1_ = rank_ / p2_;
    r2_ = rank_ % p2_;
    row_comm_ = comm_.split(/*color=*/r1_);  // varies r2, size p2
    col_comm_ = comm_.split(/*color=*/r2_);  // varies r1, size p1
    range1_ = block_range(dims_[0], p1_, r1_);
    range2_ = block_range(dims_[1], p2_, r2_);
    n3c_ = dims_[2] / 2 + 1;
    srange3_ = block_range(n3c_, p2_, r2_);
    srange2_ = block_range(dims_[1], p1_, r1_);
    // Per-axis owner tables: owner_of runs once per departure point at
    // every plan build, and a lookup replaces block_owner's divisions.
    owner1_.resize(dims_[0]);
    owner2_.resize(dims_[1]);
    for (index_t i = 0; i < dims_[0]; ++i)
      owner1_[i] = block_owner(i, dims_[0], p1_) * p2_;
    for (index_t i = 0; i < dims_[1]; ++i)
      owner2_[i] = block_owner(i, dims_[1], p2_);
  }

  PencilDecomp(mpisim::Communicator comm, const Int3& dims)
      : PencilDecomp(comm, dims,
                     choose_process_grid(comm.size()).first,
                     choose_process_grid(comm.size()).second) {}

  mpisim::Communicator& comm() { return comm_; }
  mpisim::Communicator& row_comm() { return row_comm_; }
  mpisim::Communicator& col_comm() { return col_comm_; }

  /// Collective fault recovery across every communicator this decomposition
  /// exchanges on (parent, then row, then col — the same order on all
  /// ranks): each is quiesced and its stale in-flight messages drained (see
  /// mpisim::Communicator::recover_after_fault). Returns false when any of
  /// them is unrecoverable (a rank is truly down). Never throws.
  bool recover_after_fault(double timeout_ms) {
    bool ok = comm_.recover_after_fault(timeout_ms);
    ok = row_comm_.recover_after_fault(timeout_ms) && ok;
    ok = col_comm_.recover_after_fault(timeout_ms) && ok;
    return ok;
  }

  const Int3& dims() const { return dims_; }
  int p1() const { return p1_; }
  int p2() const { return p2_; }
  int rank() const { return rank_; }
  int r1() const { return r1_; }
  int r2() const { return r2_; }

  /// Owned real-space ranges (dim 3 is always fully local).
  const BlockRange& range1() const { return range1_; }
  const BlockRange& range2() const { return range2_; }
  Int3 local_real_dims() const {
    return {range1_.size(), range2_.size(), dims_[2]};
  }
  index_t local_real_size() const { return local_real_dims().prod(); }

  /// Owned spectral ranges: k3 in [srange3), k2 in [srange2), k1 full.
  index_t n3c() const { return n3c_; }
  const BlockRange& srange3() const { return srange3_; }
  const BlockRange& srange2() const { return srange2_; }
  Int3 local_spectral_dims() const {
    return {srange3_.size(), srange2_.size(), dims_[0]};
  }
  index_t local_spectral_size() const { return local_spectral_dims().prod(); }

  /// Rank owning real-space point (i1, i2) (dim 3 irrelevant).
  int owner_of(index_t i1, index_t i2) const {
    assert(i1 >= 0 && i1 < dims_[0] && i2 >= 0 && i2 < dims_[1]);
    return owner1_[i1] + owner2_[i2];
  }

  /// Rank at process-grid coordinates (c1, c2).
  int rank_of(int c1, int c2) const { return c1 * p2_ + c2; }

 private:
  mpisim::Communicator comm_, row_comm_, col_comm_;
  Int3 dims_;
  int p1_, p2_;
  int rank_ = 0, r1_ = 0, r2_ = 0;
  BlockRange range1_, range2_;
  index_t n3c_ = 0;
  BlockRange srange3_, srange2_;
  std::vector<int> owner1_;  // [N1]: block_owner(i1, N1, p1) * p2
  std::vector<int> owner2_;  // [N2]: block_owner(i2, N2, p2)
};

}  // namespace diffreg::grid

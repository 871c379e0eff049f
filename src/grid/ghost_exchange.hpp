// Periodic ghost-layer exchange for pencil-decomposed scalar fields
// (paper section III-C2: "every processor maintains a layer of ghost
// points... values must be synchronized before interpolation takes place").
//
// The tricubic stencil needs `width` extra points on each side. Dims 1 and 2
// are distributed, so their halos come from the four edge neighbours of the
// process grid; corner values are picked up by exchanging dimension 1 first
// and then dimension 2 over the already-widened slabs (two-phase trick).
// Dimension 3 is fully local, so its halo is a periodic wrap in memory.
//
// The exchanger owns persistent pack/unpack buffers, so a steady-state
// exchange performs no heap allocation, and `exchange_many` widens several
// fields through the SAME four neighbour messages (one packed slab per
// direction instead of one per field) — the halo analogue of the batched
// interpolation exchange.
//
// Comm/compute overlap: the FIRST halo receive of each dimension is posted
// nonblocking before either slab is packed, and both slabs are packed +
// sent while it is in flight (buffered sends copy the payload at post, so
// reusing the pack buffer is safe, and plain sends are legal while a
// receive is pending). Two sends, two receives, and two tags per
// dimension; the overlapped wire time lands in the Timings hidden-comm
// counter.
#pragma once

#include <span>
#include <vector>

#include "grid/decomposition.hpp"

namespace diffreg::grid {

class GhostExchange {
 public:
  /// `width` ghost points on every side. Requires width <= the smallest
  /// local block extent in dims 1 and 2 (single-neighbour halos).
  /// The trailing arguments have no effect (kept for source compatibility).
  GhostExchange(PencilDecomp& decomp, index_t width,
                TimeKind comm_kind = TimeKind::kInterpComm, WirePrecision = {},
                bool = false);

  index_t width() const { return width_; }
  /// Dimensions of the ghosted block: (n1l + 2w, n2l + 2w, N3 + 2w).
  const Int3& ghost_dims() const { return gdims_; }
  index_t ghost_size() const { return gdims_.prod(); }

  /// Fills `ghosted` (resized to ghost_size()) from the owned block.
  void exchange(std::span<const real_t> local, std::vector<real_t>& ghosted);

  /// Batched exchange: widens `locals.size()` fields into consecutive
  /// ghost_size() blocks of `ghosted` (which must hold exactly
  /// locals.size() * ghost_size() elements). All fields share the four
  /// neighbour messages, so the message count is independent of the batch.
  void exchange_many(std::span<const real_t* const> locals,
                     std::span<real_t> ghosted);

 private:
  /// Both halos of distributed dimension `dim` (1 or 2).
  void exchange_dim(int dim, std::span<real_t> ghosted, int nfields);
  /// Grows the two slab buffers to fit `nfields` packed slabs.
  void ensure_slab_capacity(int nfields);

  /// Copies the box [i1_begin, +n1) x [i2_begin, +n2) x (all of dim 3) of
  /// every field's ghosted block into (`pack`) or out of the flat slab
  /// buffer, fields back to back.
  void copy_slab(std::span<real_t> ghosted, int nfields, index_t i1_begin,
                 index_t n1, index_t i2_begin, index_t n2,
                 std::span<real_t> buf, bool pack) const;

  PencilDecomp* decomp_;
  index_t width_;
  Int3 ldims_;   // local owned block
  Int3 gdims_;   // ghosted block
  TimeKind comm_kind_;

  // Persistent slab buffers (grow-only): sized for the larger of the dim-1
  // and dim-2 slabs times the widest batch seen so far.
  std::vector<real_t> pack_buf_, recv_buf_;

  static constexpr int kTagLow = 201;   // data travelling toward lower index
  static constexpr int kTagHigh = 202;  // data travelling toward higher index
};

}  // namespace diffreg::grid

#include "grid/ghost_exchange.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace diffreg::grid {

GhostExchange::GhostExchange(PencilDecomp& decomp, index_t width,
                             TimeKind comm_kind, WirePrecision, bool)
    : decomp_(&decomp),
      width_(width),
      ldims_(decomp.local_real_dims()),
      comm_kind_(comm_kind) {
  // Single-neighbour halos: every rank's block must be at least as wide as
  // the halo, on every rank (uneven blocks differ by one).
  const index_t min1 = decomp.dims()[0] / decomp.p1();
  const index_t min2 = decomp.dims()[1] / decomp.p2();
  if (width_ > min1 || width_ > min2 || width_ > decomp.dims()[2])
    throw std::invalid_argument(
        "GhostExchange: halo width exceeds smallest local block");
  gdims_ = {ldims_[0] + 2 * width_, ldims_[1] + 2 * width_,
            ldims_[2] + 2 * width_};
}

void GhostExchange::ensure_slab_capacity(int nfields) {
  const index_t slab1 = width_ * ldims_[1] * gdims_[2];
  const index_t slab2 = gdims_[0] * width_ * gdims_[2];
  const size_t need =
      static_cast<size_t>(std::max(slab1, slab2)) * nfields;
  if (pack_buf_.size() < need) pack_buf_.resize(need);
  if (recv_buf_.size() < need) recv_buf_.resize(need);
}

void GhostExchange::copy_slab(std::span<real_t> ghosted, int nfields,
                              index_t i1_begin, index_t n1, index_t i2_begin,
                              index_t n2, std::span<real_t> buf,
                              bool pack) const {
  const index_t n3 = gdims_[2];
  index_t pos = 0;
  for (int f = 0; f < nfields; ++f) {
    real_t* gblock = ghosted.data() + f * ghost_size();
    for (index_t i1 = i1_begin; i1 < i1_begin + n1; ++i1)
      for (index_t i2 = i2_begin; i2 < i2_begin + n2; ++i2, pos += n3) {
        real_t* row = gblock + linear_index(i1, i2, 0, gdims_);
        if (pack)
          std::copy_n(row, n3, buf.data() + pos);
        else
          std::copy_n(buf.data() + pos, n3, row);
      }
  }
}

void GhostExchange::exchange(std::span<const real_t> local,
                             std::vector<real_t>& ghosted) {
  assert(static_cast<index_t>(local.size()) == ldims_.prod());
  if (ghosted.size() != static_cast<size_t>(ghost_size()))
    ghosted.resize(ghost_size());
  const real_t* locals[1] = {local.data()};
  exchange_into(std::span<const real_t* const>(locals, 1), ghosted);
}

std::span<const real_t> GhostExchange::exchange_many(
    std::span<const real_t* const> locals) {
  const size_t need = locals.size() * static_cast<size_t>(ghost_size());
  if (ghosted_.size() < need) ghosted_.resize(need);
  const std::span<real_t> blocks(ghosted_.data(), need);
  exchange_into(locals, blocks);
  return blocks;
}

void GhostExchange::exchange_into(std::span<const real_t* const> locals,
                                  std::span<real_t> ghosted) {
  const int m = static_cast<int>(locals.size());
  assert(static_cast<index_t>(ghosted.size()) == m * ghost_size());
  ensure_slab_capacity(m);
  const index_t w = width_;
  const index_t n3 = ldims_[2];
  const index_t gsize = ghost_size();

  // Interior copy + local periodic wrap along dim 3, one block per field.
  for (int f = 0; f < m; ++f) {
    const real_t* local = locals[f];
    real_t* gblock = ghosted.data() + f * gsize;
    for (index_t i1 = 0; i1 < ldims_[0]; ++i1) {
      for (index_t i2 = 0; i2 < ldims_[1]; ++i2) {
        const real_t* src = local + (i1 * ldims_[1] + i2) * n3;
        real_t* dst = gblock + linear_index(i1 + w, i2 + w, 0, gdims_);
        for (index_t i3 = 0; i3 < n3; ++i3) dst[w + i3] = src[i3];
        for (index_t i3 = 0; i3 < w; ++i3) {
          dst[i3] = src[n3 - w + i3];          // low halo <- high interior
          dst[w + n3 + i3] = src[i3];          // high halo <- low interior
        }
      }
    }
  }

  exchange_dim(1, ghosted, m);
  exchange_dim(2, ghosted, m);
}

void GhostExchange::exchange_dim(int dim, std::span<real_t> ghosted,
                                 int nfields) {
  // Dim-1 slabs cover interior dim 2 and the already-wrapped dim 3; dim-2
  // slabs cover the FULL ghosted dim 1 (so corners come along) and dim 3.
  // All fields of the batch are packed back to back into the same message.
  const index_t w = width_;
  const index_t nloc = ldims_[dim - 1];
  const auto slab = [&](index_t begin, std::span<real_t> buf, bool pack) {
    if (dim == 1)
      copy_slab(ghosted, nfields, begin, w, w, ldims_[1], buf, pack);
    else
      copy_slab(ghosted, nfields, 0, gdims_[0], begin, w, buf, pack);
  };

  const index_t msg =
      (dim == 1 ? ldims_[1] : gdims_[0]) * w * gdims_[2] * nfields;
  const std::span<real_t> pack_buf(pack_buf_.data(), msg);
  const std::span<const real_t> send_buf(pack_buf);
  const std::span<real_t> halo_buf(recv_buf_.data(), msg);
  const int np = dim == 1 ? decomp_->p1() : decomp_->p2();
  if (np == 1) {
    // Local periodic wrap: low halo <- own high interior, then high halo <-
    // own low interior.
    slab(nloc, pack_buf, true);
    slab(0, pack_buf, false);
    slab(w, pack_buf, true);
    slab(w + nloc, pack_buf, false);
    return;
  }
  auto& comm = decomp_->comm();
  comm.set_time_kind(comm_kind_);
  // The halo exchange is point-to-point (the verifier cannot observe it
  // through a collective), but every rank of the pencil grid enters it in
  // lockstep — so mark the phase in the schedule hash, labelled by the
  // distributed dimension. A rank skipping a halo pass is then caught at
  // the next checkpoint instead of corrupting an unrelated exchange.
  comm.verify_mark(dim);
  const int r = dim == 1 ? decomp_->r1() : decomp_->r2();
  const auto neighbour = [&](int q) {
    return dim == 1 ? decomp_->rank_of(q, decomp_->r2())
                    : decomp_->rank_of(decomp_->r1(), q);
  };
  const int lo_nbr = neighbour((r - 1 + np) % np);
  const int hi_nbr = neighbour((r + 1) % np);
  // My high interior goes to hi_nbr's low halo (travels "high", kTagHigh);
  // I receive my low halo from lo_nbr. That receive is posted before either
  // slab is packed, so both packs and sends run under its flight: the
  // buffered send copied pack_buf_ at post, so repacking it is safe, and
  // plain sends are legal while a receive is pending. Since every rank
  // posts before it sends, the first halos of a ring cannot all land before
  // their receives are posted: some rank always hides wire time.
  auto req = comm.irecv_into(halo_buf, lo_nbr, kTagHigh);
  slab(nloc, pack_buf, true);
  comm.send(send_buf, hi_nbr, kTagHigh);
  slab(w, pack_buf, true);
  comm.send(send_buf, lo_nbr, kTagLow);
  req.wait();
  slab(0, halo_buf, false);
  comm.irecv_into(halo_buf, hi_nbr, kTagLow).wait();
  slab(w + nloc, halo_buf, false);
}

}  // namespace diffreg::grid

/// @file checkpoint.hpp
/// Solver-state checkpointing: warm restarts for killed continuation runs.
///
/// A checkpoint captures everything `run_multilevel_continuation` needs to
/// resume a solve mid-level: the current velocity iterate, which pyramid
/// level it lives on, the regularization state (beta, the coarse-grid beta
/// override), the outer convergence anchor (gradient_reference), the
/// admissibility flag, and how many Newton iterates the level had already
/// accepted. Newton state is fully determined by (velocity, options), so
/// replaying the remaining iterates from a checkpoint reproduces the
/// uninterrupted trajectory bitwise — the resume acceptance test asserts
/// exactly that.
///
/// On-disk format (version 1, native endianness, fp64 payload):
///
///     magic "DRCK" | u32 version
///     i64 fine_dims[3] | i64 level_dims[3]
///     f64 beta | f64 beta_override | f64 gradient_reference
///     i32 admissible | i32 newton_iters_done
///     payload: 3 * prod(level_dims) f64 — the velocity components x/y/z,
///              each a full row-major [N1][N2][N3] array
///
/// The payload moves through grid::field_io's gather/scatter, so the file
/// layout is decomposition-independent: a run may resume on a different
/// rank count. All file access is imaging/io's: the one reader, and the
/// one writer, which writes `path + ".tmp"` and renames it into place, so a
/// crash mid-write never corrupts the previous checkpoint. All three entry
/// points are COLLECTIVE and converge on errors: rank 0's verdict is
/// broadcast (imaging::root_io), so a missing, corrupt or unusable file
/// throws CheckpointError on every rank instead of hanging the others.
///
/// read_checkpoint_header rejects a header no solve can use: beta must be
/// finite and > 0, beta_override finite, gradient_reference finite and
/// >= 0, admissible 0 or 1, and newton_iters_done in [0, kMaxNewtonIters]
/// (2^20, core/options.hpp), so the iterate counts a resume adds stay far
/// from int overflow.
/// read_checkpoint_velocity checks the format and the grid only, and
/// rejects a payload holding a non-finite value.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "core/options.hpp"
#include "grid/decomposition.hpp"
#include "grid/field_math.hpp"

namespace diffreg::core {

/// Raised (collectively) on unreadable, corrupt, or mismatched checkpoints.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The scalar solver state stored alongside the velocity payload.
struct CheckpointHeader {
  Int3 fine_dims{0, 0, 0};   ///< Finest-grid dims (run identity check).
  Int3 level_dims{0, 0, 0};  ///< Grid the stored velocity lives on.
  real_t beta = 0;           ///< Regularization weight of the level solve.
  real_t beta_override = -1;  ///< Coarse-continuation result (-1: none).
  real_t gradient_reference = 0;  ///< Outer gtol anchor (0: not yet set).
  bool admissible = true;    ///< min-det(J) admissibility so far.
  int newton_iters_done = 0;  ///< Accepted Newton iterates on this level.
};

/// Gathers `velocity` (on `level_decomp`'s grid) to rank 0 and writes
/// header + payload atomically. Collective over the decomposition's
/// communicator.
void write_checkpoint(grid::PencilDecomp& level_decomp,
                      const CheckpointHeader& header,
                      const grid::VectorField& velocity,
                      const std::string& path);

/// Rank 0 reads and validates the header; the result is broadcast.
/// Collective.
CheckpointHeader read_checkpoint_header(mpisim::Communicator& comm,
                                        const std::string& path);

/// Rank 0 reads the velocity payload and scatters it onto `level_decomp`,
/// whose dims must equal the header's level_dims. Collective.
grid::VectorField read_checkpoint_velocity(grid::PencilDecomp& level_decomp,
                                           const std::string& path);

/// The one per-iterate checkpoint writer, as an iterate hook: it runs
/// `caller` (when set) first, so a kill fired from it leaves the previous
/// checkpoint in place, then writes `base` with newton_iters_done =
/// base.newton_iters_done + info.iterates_done and info's
/// gradient_reference to `path` whenever that count is a multiple of
/// `every` (> 0).
std::function<void(const NewtonIterateInfo&)> checkpoint_hook(
    grid::PencilDecomp& decomp, const CheckpointHeader& base,
    const std::string& path, int every,
    std::function<void(const NewtonIterateInfo&)> caller);

}  // namespace diffreg::core

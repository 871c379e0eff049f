// Distributed off-grid interpolation with a cached communication plan
// (paper Algorithm 1 and section III-C2).
//
// A plan is *built* once per set of departure points ("scatter" phase): every
// query point is assigned to the rank whose pencil contains it, the per-rank
// point counts are exchanged with one unit-count alltoallv, the coordinates
// with another, and flat dest-ordered send/recv tables are kept.
// Interpolating a field then costs one ghost-layer exchange, a local
// (tri)cubic evaluation sweep, and one alltoallv to return values — exactly
// the paper's "communicate points, interpolate, communicate back".
//
// Caching contract: departure points only change when the velocity changes,
// so the owner (semilag::Transport) rebuilds the plan in set_velocity and
// every state/adjoint solve and PCG Hessian matvec of the Newton iteration
// reuses it. The plan owns its buffers (flat send/recv arrays, per-peer
// count tables mirroring the mpisim alltoallv style, value staging); the
// ghosted blocks belong to the ghost exchanger, so every plan sharing one
// exchanger reads the same blocks. `interpolate`/`interpolate_many` perform
// no heap allocation once the buffers are warm; `build` reuses them across
// velocity updates. `interpolate_many` evaluates a batch of fields through
// ONE ghost exchange and ONE value alltoallv, so e.g. the three components
// of a vector field cost one exchange instead of three. Points the owner
// rank itself asked for — the vast majority: a semi-Lagrangian step moves
// departure points by a fraction of a cell, so most stay inside their own
// pencil — are evaluated straight into the caller's output, skipping the
// value staging, the alltoallv self copy, and the scatter pass; the value
// exchange ships only the true cross-rank points, and the value staging
// holds only those.
//
// Comm/compute overlap: interpolate_many runs peer-points-first /
// SELF-points-under-flight: the cross-rank points are evaluated and their
// value alltoallv is POSTED (nonblocking), then the SELF-owned majority is
// evaluated while the exchange is in the air, and only then does the plan
// wait for the returned values. The wire time that elapses under the self
// sweep is accounted as Timings hidden comm time.
#pragma once

#include <span>
#include <vector>

#include "grid/decomposition.hpp"
#include "grid/field_math.hpp"
#include "grid/ghost_exchange.hpp"
#include "interp/kernels.hpp"

namespace diffreg::interp {

/// Ghost width required by the tricubic stencil.
inline constexpr index_t kGhostWidth = 2;

class InterpPlan {
 public:
  /// Creates an empty plan bound to `decomp`; call build() before use.
  /// The trailing arguments have no effect (kept for source compatibility).
  explicit InterpPlan(grid::PencilDecomp& decomp, WirePrecision = {},
                      bool = false);

  /// Convenience: creates and immediately builds. Collective.
  InterpPlan(grid::PencilDecomp& decomp, std::span<const Vec3> points);

  /// (Re)builds the plan for a new set of departure points. `points` are
  /// physical coordinates in [0, 2*pi)^3 (wrapped internally), one value
  /// produced per point by the interpolate calls. Collective (one alltoallv
  /// for the counts + one for the coordinates); reuses all previously grown
  /// buffers.
  void build(std::span<const Vec3> points);

  /// Number of build() calls this plan has served (plan-reuse accounting).
  int build_count() const { return builds_; }
  index_t num_points() const { return num_points_; }

  /// Interpolates `field` (owned local block) at the planned points.
  /// `out` must have num_points() entries, ordered like the input points,
  /// and must not alias `field`. Collective; uses `gx` (shared ghost
  /// exchanger, width exactly kGhostWidth — the precomputed stencil
  /// offsets are expressed in blocks ghosted by kGhostWidth).
  void interpolate(grid::GhostExchange& gx, std::span<const real_t> field,
                   std::span<real_t> out, Method method = Method::kTricubic);

  /// Batched interpolation: fields[f] is evaluated into outs[f] for all f,
  /// sharing ONE ghost exchange and ONE value alltoallv across the whole
  /// batch. Outputs must not alias inputs.
  void interpolate_many(grid::GhostExchange& gx,
                        std::span<const real_t* const> fields,
                        std::span<real_t* const> outs,
                        Method method = Method::kTricubic);

  /// Interpolates the three components of a vector field (one batched
  /// exchange); `out` is resized to num_points(). Stages the components in
  /// a buffer of its own, which only this call allocates.
  void interpolate_vec(grid::GhostExchange& gx,
                       const grid::VectorField& field, std::vector<Vec3>& out,
                       Method method = Method::kTricubic);

 private:
  /// Grows the value staging to `m` fields of the cross-rank points.
  void grow_staging(int m);

  grid::PencilDecomp* decomp_;
  index_t num_points_ = 0;
  index_t recv_total_ = 0;
  bool built_ = false;
  int builds_ = 0;

  // Scatter side: my points grouped by destination (owner) rank.
  std::vector<index_t> send_counts_;   // points owed to each rank [p]
  std::vector<index_t> send_index_;    // dest-ordered slot -> original index
  std::vector<real_t> send_coords_;    // dest-ordered, 3 reals per point
  // Gather side: points I evaluate on behalf of every rank, in
  // ghosted-block grid units (3 reals per point, rank-major).
  std::vector<index_t> recv_counts_;   // points received from each rank [p]
  std::vector<real_t> recv_coords_;
  // Interpolation coefficients, precomputed once per build (paper: "once
  // per Newton iteration") and reused by every tricubic interpolate.
  std::vector<CubicStencil> stencils_;

  // Build scratch (reused across rebuilds).
  std::vector<int> owner_;             // per-point owner rank
  std::vector<index_t> cursor_;        // per-rank pack cursor [p]

  // Interpolate scratch: count tables scaled to the current payload and the
  // flat cross-rank value buffers (grow-only, shared by all batch sizes).
  std::vector<index_t> val_send_counts_, val_recv_counts_;  // [p]
  std::vector<real_t> eval_vals_;  // batch * points evaluated for peers
  std::vector<real_t> ret_vals_;   // batch * own points peers evaluate
  std::vector<real_t> comp_out_;   // interpolate_vec staging (3 comps)

  static constexpr int kTagCounts = 400;
  static constexpr int kTagCoords = 401;
  static constexpr int kTagValues = 402;
};

}  // namespace diffreg::interp

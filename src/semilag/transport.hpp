// Semi-Lagrangian solvers for the transport equations of the optimality
// system (paper sections III-B2 and III-C3):
//
//   state              dt rho + v . grad rho = 0                  (2b)
//   adjoint           -dt lam - div(v lam) = 0                    (3)
//   incremental state  dt rto + v . grad rto = -vt . grad rho     (5a)
//   incr. adjoint GN  -dt lto - div(v lto) = 0                    (5c, GN)
//   incr. adjoint full -dt lto - div(lto v + lam vt) = 0          (5c)
//   displacement       dt u + v . grad u = -v   =>  y = x + u     (1)
//
// All solvers use the unconditionally stable RK2 scheme of eq. (6)/(7): the
// departure points X are computed once per velocity (they are shared by all
// time steps because v is stationary), the interpolation communication plans
// are cached (paper: "the scatter phase needs to be done once per field per
// Newton iteration"), and each step costs one plan execution. It evaluates
// one field for the state, adjoint and incremental state and adjoint (the
// incremental state's nu(X) + dt/2 f0(X) is the one field (nu + dt/2 f0)(X),
// interpolation being linear), a batched pair for the full-Newton
// incremental adjoint (its nu div v(X) term is not linear in the
// interpolated field), and three components for the displacement.
//
// Plan caching contract: set_velocity() rebuilds the forward/backward plans
// ONLY when the velocity actually changed (bitwise comparison against the
// cached iterate); a repeated set_velocity with the same field — e.g. the
// Newton driver restoring the accepted iterate after a line search — is a
// no-op. Every state/adjoint solve and every PCG Hessian matvec in between
// reuses the cached plans; plan_build_count() exposes the rebuild count so
// tests can assert the reuse. The transport holds two plans: each RK2
// predictor is built in the plan it precedes, which set_velocity then
// rebuilds at the corrected points. Both plans read their ghosted blocks
// from the transport's one ghost exchanger. All interpolation scratch is
// owned by the plans, the exchanger or this class, so once warm a new
// velocity, the state and adjoint solves and the solves of a Gauss-Newton
// or full-Newton matvec allocate nothing.
//
// The state history rho(t_j) (nt+1 slices) is stored, as are — lazily — the
// spectral gradients grad rho(t_j), which the gradient/Hessian integrands
// reuse across all PCG iterations of a Newton step. A new velocity or state
// marks the gradients stale but keeps their buffers; a new velocity does the
// same to the full-Newton lam and rho_tilde histories. grad rho(t_0) is
// stale only when rho_0 changes bits (or the pool re-issues the transport):
// it survives a new velocity, so Newton iterates after the first skip its
// transform.
#pragma once

#include <span>
#include <vector>

#include "grid/ghost_exchange.hpp"
#include "interp/interp_plan.hpp"
#include "spectral/operators.hpp"

namespace diffreg::semilag {

using grid::ScalarField;
using grid::VectorField;

struct TransportConfig {
  int nt = 4;  // number of time steps (paper uses 4)
  interp::Method method = interp::Method::kTricubic;
  /// When true, div v = 0 is assumed and all div-v source terms vanish.
  bool incompressible = false;
  WirePrecision wire{};   ///< Has no effect (kept for source compatibility).
  bool overlap = false;  ///< Has no effect (kept for source compatibility).
};

class Transport {
 public:
  Transport(spectral::SpectralOps& ops, const TransportConfig& config);

  real_t dt() const { return real_t(1) / static_cast<real_t>(config_.nt); }

  /// Computes RK2 departure points for +v and -v, rebuilds both cached
  /// interpolation plans, and caches div v at the backward departure points
  /// (compressible only). v at the forward points is not cached: its one
  /// reader, solve_displacement, interpolates it. A velocity bitwise equal
  /// to the cached one is a no-op (the plans stay valid). Collective.
  void set_velocity(const VectorField& v);
  const VectorField& velocity() const { return v_; }

  /// Number of times the departure points + plans were (re)built. Grows by
  /// one per *distinct* set_velocity; all solves in between reuse the plans.
  int plan_build_count() const { return plan_builds_; }

  /// Drops the cached velocity/plan state so the next set_velocity always
  /// rebuilds, while keeping every buffer allocation warm. Pool hygiene for
  /// the PlanRegistry transport pool: a transport checked out for a new job
  /// must not inherit the previous job's plans or lazily-computed histories.
  void invalidate_plans() {
    plans_built_ = false;
    drop_histories();
    grad_rho_hist_[0].valid = false;
  }

  /// Forward solve of (2b); stores rho(t_j) for j = 0..nt.
  void solve_state(const ScalarField& rho0);
  const ScalarField& state(int j) const { return rho_hist_[j]; }
  const ScalarField& final_state() const { return rho_hist_[config_.nt]; }

  /// Spectral gradients of the stored state slices (computed on first use,
  /// reused by every gradient evaluation and Hessian matvec).
  const VectorField& state_gradient(int j);

  /// Backward solve of (3) from lam(1) = lambda1; accumulates the gradient
  /// integrand b = Int lam grad rho dt (trapezoidal in time). When
  /// `store_lambda` is set the history lam(t_j) is kept for full Newton.
  void solve_adjoint(const ScalarField& lambda1, VectorField& b,
                     bool store_lambda = false);
  const ScalarField& adjoint(int j) const { return lambda_hist_[j]; }

  /// Forward solve of (5a) with rto(0) = 0; returns rto(1). When
  /// `store_hist` is set the history (and its gradients) are kept for the
  /// full-Newton matvec.
  void solve_incremental_state(const VectorField& vtilde,
                               ScalarField& rho_tilde1,
                               bool store_hist = false);

  /// Gauss-Newton incremental adjoint: backward solve of (5c) without the
  /// lam terms, from lto(1) = lambda_tilde1; accumulates
  /// bt = Int lto grad rho dt.
  void solve_incremental_adjoint_gn(const ScalarField& lambda_tilde1,
                                    VectorField& b_tilde);

  /// Full-Newton incremental adjoint: keeps the div(lam vt) source and the
  /// lam grad rto integrand term. Requires solve_adjoint(store_lambda=true)
  /// and solve_incremental_state(store_hist=true) first.
  void solve_incremental_adjoint_full(const ScalarField& lambda_tilde1,
                                      const VectorField& vtilde,
                                      VectorField& b_tilde);

  /// Solves (1) for the displacement u = y - x; y1(x) = x + u(x, 1). Costs
  /// nt batched 3-component interpolations: v(X) once, then u per step
  /// after the first.
  void solve_displacement(VectorField& u1);

  /// Interpolates an arbitrary scalar field at the forward departure points
  /// (diagnostics / image warping by one step).
  void interp_at_forward_points(const ScalarField& f, ScalarField& out);

  /// Batched variant: all three components of `f` share one exchange.
  void interp_vec_at_forward_points(const VectorField& f, VectorField& out);

 private:
  /// A lazily computed gradient whose buffer outlives its value: `valid`
  /// is cleared when its input changes, the storage stays allocated.
  struct LazyGradient {
    VectorField field;
    bool valid = false;
    const VectorField& of(spectral::SpectralOps& ops, const ScalarField& f) {
      if (!valid) ops.gradient(f, field);
      valid = true;
      return field;
    }
  };

  /// RK2 departure points (eq. 6) for velocity sign * v, into points_. The
  /// predictor points are built into `plan`, the plan the corrected points
  /// are built into next.
  void compute_departure_points(int sign, interp::InterpPlan& plan);

  /// Marks every lazily computed history stale (velocity or state changed).
  void drop_histories();

  /// All three components of `f` at `plan`'s points through one batched
  /// exchange; `out` must already be sized.
  void interp_vec(interp::InterpPlan& plan, const VectorField& f,
                  VectorField& out);

  spectral::SpectralOps* ops_;
  grid::PencilDecomp* decomp_;
  TransportConfig config_;
  grid::GhostExchange gx_;

  VectorField v_;
  ScalarField div_v_;  // empty when incompressible
  bool plans_built_ = false;
  int plan_builds_ = 0;
  interp::InterpPlan plan_fwd_;  // departure points of +v
  interp::InterpPlan plan_bwd_;  // departure points of -v
  ScalarField div_v_at_bwd_;

  std::vector<ScalarField> rho_hist_;
  std::vector<LazyGradient> grad_rho_hist_;
  std::vector<ScalarField> lambda_hist_;
  std::vector<ScalarField> rho_tilde_hist_;
  std::vector<LazyGradient> grad_rho_tilde_hist_;
  bool lambda_stored_ = false;     // lambda_hist_ holds this velocity's lam
  bool rho_tilde_stored_ = false;  // rho_tilde_hist_ likewise

  // Scratch buffers reused across steps (no per-call heap churn).
  std::vector<Vec3> points_;   // departure points of the current build
  VectorField v_star_;         // RK2 predictor velocities
  ScalarField lam_cur_, lam_next_, nu_at_x_, f_at_x_, f0_grid_, f1_grid_;
  VectorField u_at_x_;         // displacement components at X (batched)
  VectorField disp_source_;    // -dt/2 (v(X) + v(x)) of solve_displacement
  VectorField lam_vt_;         // lam vtilde (full Newton only; sized on use)
};

}  // namespace diffreg::semilag

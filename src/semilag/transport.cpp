#include "semilag/transport.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace diffreg::semilag {

namespace {

/// Bitwise equality of two fields (plan-invalidation check: identical bits
/// guarantee identical departure points, so the cached plans stay valid).
bool same_bits(const ScalarField& a, const ScalarField& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

}  // namespace

Transport::Transport(spectral::SpectralOps& ops, const TransportConfig& config)
    : ops_(&ops),
      decomp_(&ops.decomp()),
      config_(config),
      gx_(*decomp_, interp::kGhostWidth, TimeKind::kInterpComm),
      plan_fwd_(*decomp_),
      plan_bwd_(*decomp_) {
  if (config_.nt < 1)
    throw std::invalid_argument("Transport: nt must be >= 1");
  const index_t n = decomp_->local_real_size();
  nu_at_x_.resize(n);
  f_at_x_.resize(n);
  f0_grid_.resize(n);
  f1_grid_.resize(n);
  lam_cur_.resize(n);
  lam_next_.resize(n);
  v_star_ = VectorField(n);
  rho_hist_.assign(config_.nt + 1, ScalarField(n, 0));
  grad_rho_hist_.resize(config_.nt + 1);
}

void Transport::drop_histories() {
  for (auto& g : grad_rho_hist_) g.valid = false;
  for (auto& g : grad_rho_tilde_hist_) g.valid = false;
  lambda_hist_.clear();
  rho_tilde_hist_.clear();
}

void Transport::compute_departure_points(int sign, interp::InterpPlan& plan) {
  const Int3 dims = decomp_->dims();
  const Int3 ld = decomp_->local_real_dims();
  const real_t h1 = kTwoPi / static_cast<real_t>(dims[0]);
  const real_t h2 = kTwoPi / static_cast<real_t>(dims[1]);
  const real_t h3 = kTwoPi / static_cast<real_t>(dims[2]);
  const index_t lo1 = decomp_->range1().begin;
  const index_t lo2 = decomp_->range2().begin;
  const real_t s = static_cast<real_t>(sign) * dt();

  points_.resize(decomp_->local_real_size());
  index_t idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1) {
    const real_t x1 = static_cast<real_t>(lo1 + i1) * h1;
    for (index_t i2 = 0; i2 < ld[1]; ++i2) {
      const real_t x2 = static_cast<real_t>(lo2 + i2) * h2;
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx) {
        const real_t x3 = static_cast<real_t>(i3) * h3;
        points_[idx] = Vec3{x1 - s * v_[0][idx], x2 - s * v_[1][idx],
                            x3 - s * v_[2][idx]};
      }
    }
  }

  // RK2 correction (eq. 6): X = x - s/2 (v(x) + v(X*)). The predictor
  // points X* are built into the plan the corrected points go to next, so
  // no third plan holds them.
  plan.build(points_);
  interp_vec(plan, v_, v_star_);
  idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1) {
    const real_t x1 = static_cast<real_t>(lo1 + i1) * h1;
    for (index_t i2 = 0; i2 < ld[1]; ++i2) {
      const real_t x2 = static_cast<real_t>(lo2 + i2) * h2;
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx) {
        const real_t x3 = static_cast<real_t>(i3) * h3;
        const real_t half = real_t(0.5) * s;
        points_[idx] =
            Vec3{x1 - half * (v_[0][idx] + v_star_[0][idx]),
                 x2 - half * (v_[1][idx] + v_star_[1][idx]),
                 x3 - half * (v_[2][idx] + v_star_[2][idx])};
      }
    }
  }
}

void Transport::set_velocity(const VectorField& v) {
  assert(v.local_size() == decomp_->local_real_size());
  // Plan cache: identical velocity bits => identical departure points =>
  // the cached plans (and v/div v at the departure points) stay valid.
  if (plans_built_ && same_bits(v_[0], v[0]) && same_bits(v_[1], v[1]) &&
      same_bits(v_[2], v[2]))
    return;
  v_ = v;
  drop_histories();

  compute_departure_points(+1, plan_fwd_);
  plan_fwd_.build(points_);

  compute_departure_points(-1, plan_bwd_);
  plan_bwd_.build(points_);

  if (!config_.incompressible) {
    ops_->divergence(v_, div_v_);
    div_v_at_bwd_.resize(decomp_->local_real_size());
    plan_bwd_.interpolate(gx_, div_v_, div_v_at_bwd_, config_.method);
  } else {
    div_v_.clear();
    div_v_at_bwd_.clear();
  }
  plans_built_ = true;
  ++plan_builds_;
}

void Transport::solve_state(const ScalarField& rho0) {
  if (!plans_built_)
    throw std::logic_error("Transport: set_velocity before solve_state");
  rho_hist_[0] = rho0;
  for (auto& g : grad_rho_hist_) g.valid = false;
  for (int j = 0; j < config_.nt; ++j)
    plan_fwd_.interpolate(gx_, rho_hist_[j], rho_hist_[j + 1],
                          config_.method);
}

const VectorField& Transport::state_gradient(int j) {
  return grad_rho_hist_[j].of(*ops_, rho_hist_[j]);
}

void Transport::solve_adjoint(const ScalarField& lambda1, VectorField& b,
                              bool store_lambda) {
  if (!plans_built_)
    throw std::logic_error("Transport: set_velocity before solve_adjoint");
  const index_t n = decomp_->local_real_size();
  const int nt = config_.nt;
  if (store_lambda) lambda_hist_.assign(nt + 1, ScalarField(n, 0));

  ScalarField& cur = lam_cur_;
  ScalarField& next = lam_next_;
  cur = lambda1;
  grid::resize_zero(b, n);

  auto accumulate = [&](int j, const ScalarField& lam) {
    const real_t w = dt() * ((j == 0 || j == nt) ? real_t(0.5) : real_t(1));
    const VectorField& grad_rho = state_gradient(j);
    for (int d = 0; d < 3; ++d)
      for (index_t i = 0; i < n; ++i) b[d][i] += w * lam[i] * grad_rho[d][i];
  };

  if (store_lambda) lambda_hist_[nt] = cur;
  accumulate(nt, cur);
  for (int j = nt; j >= 1; --j) {
    if (config_.incompressible) {
      plan_bwd_.interpolate(gx_, cur, next, config_.method);
    } else {
      // f = lam * div v is linear in lam: f0(X) = lam(X) div_v(X) comes from
      // the cached div v at the departure points, the corrector uses the
      // predictor value (eq. 7).
      plan_bwd_.interpolate(gx_, cur, nu_at_x_, config_.method);
      const real_t step = dt();
      for (index_t i = 0; i < n; ++i) {
        const real_t f0 = nu_at_x_[i] * div_v_at_bwd_[i];
        const real_t predictor = nu_at_x_[i] + step * f0;
        const real_t f1 = predictor * div_v_[i];
        next[i] = nu_at_x_[i] + real_t(0.5) * step * (f0 + f1);
      }
    }
    std::swap(cur, next);
    if (store_lambda) lambda_hist_[j - 1] = cur;
    accumulate(j - 1, cur);
  }
}

void Transport::solve_incremental_state(const VectorField& vtilde,
                                        ScalarField& rho_tilde1,
                                        bool store_hist) {
  if (!plans_built_)
    throw std::logic_error(
        "Transport: set_velocity/solve_state before incremental state");
  const index_t n = decomp_->local_real_size();
  const int nt = config_.nt;
  if (store_hist) {
    rho_tilde_hist_.assign(nt + 1, ScalarField(n, 0));
    grad_rho_tilde_hist_.resize(nt + 1);
    for (auto& g : grad_rho_tilde_hist_) g.valid = false;
  }

  auto source = [&](int j, ScalarField& f) {
    const VectorField& grad_rho = state_gradient(j);
    for (index_t i = 0; i < n; ++i)
      f[i] = -(vtilde[0][i] * grad_rho[0][i] + vtilde[1][i] * grad_rho[1][i] +
               vtilde[2][i] * grad_rho[2][i]);
  };

  // Interpolation is linear, so the RK2 step nu(X) + dt/2 (f0(X) + f1(x))
  // interpolates ONE field per step: (nu + dt/2 f0)(X). f0_grid_ holds that
  // field until the interpolation has read it, then the next step's f0.
  const real_t half_dt = real_t(0.5) * dt();
  ScalarField& cur = rho_tilde1;
  cur.assign(n, 0);  // rho_tilde(0) = 0
  source(0, f0_grid_);
  for (int j = 0; j < nt; ++j) {
    for (index_t i = 0; i < n; ++i)
      f0_grid_[i] = cur[i] + half_dt * f0_grid_[i];
    plan_fwd_.interpolate(gx_, f0_grid_, nu_at_x_, config_.method);
    source(j + 1, f0_grid_);
    for (index_t i = 0; i < n; ++i)
      cur[i] = nu_at_x_[i] + half_dt * f0_grid_[i];
    if (store_hist) rho_tilde_hist_[j + 1] = cur;
  }
}

void Transport::solve_incremental_adjoint_gn(const ScalarField& lambda_tilde1,
                                             VectorField& b_tilde) {
  // Same operator as the adjoint solve, applied to lambda_tilde.
  solve_adjoint(lambda_tilde1, b_tilde, /*store_lambda=*/false);
}

void Transport::solve_incremental_adjoint_full(
    const ScalarField& lambda_tilde1, const VectorField& vtilde,
    VectorField& b_tilde) {
  if (lambda_hist_.empty() || rho_tilde_hist_.empty())
    throw std::logic_error(
        "Transport: full-Newton matvec needs stored lambda and rho_tilde "
        "histories");
  const index_t n = decomp_->local_real_size();
  const int nt = config_.nt;

  // div(lam_j vtilde) on the grid, per time level.
  VectorField lam_vt(n);
  auto extra_source = [&](int j, ScalarField& s) {
    const ScalarField& lam = lambda_hist_[j];
    for (int d = 0; d < 3; ++d)
      for (index_t i = 0; i < n; ++i) lam_vt[d][i] = lam[i] * vtilde[d][i];
    ops_->divergence(lam_vt, s);
  };

  ScalarField& cur = lam_cur_;
  ScalarField& next = lam_next_;
  cur = lambda_tilde1;
  grid::resize_zero(b_tilde, n);

  auto accumulate = [&](int j, const ScalarField& lam_tilde) {
    const real_t w = dt() * ((j == 0 || j == nt) ? real_t(0.5) : real_t(1));
    const VectorField& grad_rho = state_gradient(j);
    const VectorField& grad_rto =
        grad_rho_tilde_hist_[j].of(*ops_, rho_tilde_hist_[j]);
    const ScalarField& lam = lambda_hist_[j];
    for (int d = 0; d < 3; ++d)
      for (index_t i = 0; i < n; ++i)
        b_tilde[d][i] +=
            w * (lam_tilde[i] * grad_rho[d][i] + lam[i] * grad_rto[d][i]);
  };

  accumulate(nt, cur);
  extra_source(nt, f0_grid_);
  for (int j = nt; j >= 1; --j) {
    // f = lam_tilde div v + div(lam vtilde); the first part is linear in
    // lam_tilde, the second is an explicit per-level field. Both fields
    // ride the same batched exchange.
    const real_t* fields[2] = {cur.data(), f0_grid_.data()};
    real_t* outs[2] = {nu_at_x_.data(), f_at_x_.data()};
    plan_bwd_.interpolate_many(gx_,
                               std::span<const real_t* const>(fields, 2),
                               std::span<real_t* const>(outs, 2),
                               config_.method);
    extra_source(j - 1, f1_grid_);
    const real_t step = dt();
    const bool compressible = !config_.incompressible;
    for (index_t i = 0; i < n; ++i) {
      const real_t divv_X = compressible ? div_v_at_bwd_[i] : real_t(0);
      const real_t divv_x = compressible ? div_v_[i] : real_t(0);
      const real_t f0 = nu_at_x_[i] * divv_X + f_at_x_[i];
      const real_t predictor = nu_at_x_[i] + step * f0;
      const real_t f1 = predictor * divv_x + f1_grid_[i];
      next[i] = nu_at_x_[i] + real_t(0.5) * step * (f0 + f1);
    }
    std::swap(cur, next);
    std::swap(f0_grid_, f1_grid_);
    accumulate(j - 1, cur);
  }
}

void Transport::solve_displacement(VectorField& u1) {
  if (!plans_built_)
    throw std::logic_error("Transport: set_velocity before displacement");
  const index_t n = decomp_->local_real_size();
  const int nt = config_.nt;
  const real_t half_dt = real_t(0.5) * dt();

  // The source -v is stationary, so the RK2 source term
  // -dt/2 (v(X) + v(x)) is the same in every step: v(X) costs one batched
  // interpolation per solve, and u(t_1) is that term alone (u(0) = 0).
  interp_vec_at_forward_points(v_, disp_source_);
  for (int d = 0; d < 3; ++d)
    for (index_t i = 0; i < n; ++i)
      disp_source_[d][i] = -half_dt * (disp_source_[d][i] + v_[d][i]);
  u1 = disp_source_;
  for (int j = 1; j < nt; ++j) {
    // All three components share one batched exchange per time step.
    interp_vec_at_forward_points(u1, u_at_x_);
    for (int d = 0; d < 3; ++d)
      for (index_t i = 0; i < n; ++i)
        u1[d][i] = u_at_x_[d][i] + disp_source_[d][i];
  }
}

void Transport::interp_at_forward_points(const ScalarField& f,
                                         ScalarField& out) {
  if (!plans_built_)
    throw std::logic_error("Transport: set_velocity before interpolation");
  if (out.size() != f.size()) out.resize(f.size());
  plan_fwd_.interpolate(gx_, f, out, config_.method);
}

void Transport::interp_vec_at_forward_points(const VectorField& f,
                                             VectorField& out) {
  if (!plans_built_)
    throw std::logic_error("Transport: set_velocity before interpolation");
  const index_t n = f.local_size();
  if (out.local_size() != n) out = VectorField(n);
  interp_vec(plan_fwd_, f, out);
}

void Transport::interp_vec(interp::InterpPlan& plan, const VectorField& f,
                           VectorField& out) {
  const real_t* fields[3] = {f[0].data(), f[1].data(), f[2].data()};
  real_t* outs[3] = {out[0].data(), out[1].data(), out[2].data()};
  plan.interpolate_many(gx_, std::span<const real_t* const>(fields, 3),
                        std::span<real_t* const>(outs, 3), config_.method);
}

}  // namespace diffreg::semilag

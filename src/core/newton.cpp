#include "core/newton.hpp"

#include <cmath>
#include <cstdio>

#include "core/pcg.hpp"

namespace diffreg::core {

namespace {

real_t forcing_term(const RegistrationOptions& opt, real_t rel_gradient) {
  switch (opt.forcing) {
    case Forcing::kQuadratic:
      return std::min(opt.forcing_max, rel_gradient);
    case Forcing::kSuperlinear:
      return std::min(opt.forcing_max, std::sqrt(rel_gradient));
    case Forcing::kConstant:
      break;
  }
  return opt.forcing_max;
}

}  // namespace

NewtonReport newton_solve(OptimalitySystem& system, VectorField& v,
                          const RegistrationOptions& options) {
  NewtonReport report;
  auto& decomp = system.decomp();
  const bool root = decomp.comm().is_root();
  const index_t n = decomp.local_real_size();

  system.reset_matvec_count();
  const int plan_builds_before = system.transport().plan_build_count();

  VectorField g(n), rhs(n), step(n), v_trial(n);
  // Workspace shared across the Newton iterations.
  PcgWorkspace pcg_ws;

  // Convergence is measured relative to the gradient at zero velocity, so a
  // warm-started solve targets the same absolute gradient norm as a cold one
  // (otherwise a good initial guess shrinks g0 and *tightens* the stopping
  // criterion, making warm starts do more work than cold starts). Callers
  // that know ||g(0)|| pass it via options to skip the extra solves here.
  real_t g_ref = options.gradient_reference;
  if (g_ref <= 0 && grid::norm_l2(decomp, v) > 0) {
    VectorField zero(n);
    system.evaluate(zero);
    system.gradient(g);
    g_ref = grid::norm_l2(decomp, g);
  }

  real_t objective = system.evaluate(v);
  real_t g0_norm = 0;

  for (int iter = 0; iter <= options.max_newton_iters; ++iter) {
    system.gradient(g);
    // Collective finite sweep under the guard (every rank throws together
    // and the message counts the bad values; see grid::validate_finite).
    if (options.guard) grid::validate_finite(decomp, g, "newton gradient");
    const real_t g_norm = grid::norm_l2(decomp, g);
    // With or without the guard: the objective and the gradient norm are
    // already reduced, so this scalar test throws on every rank without
    // another collective. A NaN norm would otherwise read as rel_g = 0,
    // i.e. "converged".
    if (!std::isfinite(objective) || !std::isfinite(g_norm))
      throw grid::NonFiniteFieldError(
          "non-finite objective or gradient norm in newton_solve");
    if (iter == 0) {
      g0_norm = g_ref > 0 ? g_ref : g_norm;
      report.initial_gradient_norm = g_norm;
    }
    const real_t rel_g = g0_norm > 0 ? g_norm / g0_norm : real_t(0);

    NewtonIterationLog entry;
    entry.iteration = iter;
    entry.objective = objective;
    entry.gradient_norm = g_norm;
    entry.rel_gradient = rel_g;

    if (options.verbose && root)
      std::fprintf(stderr,
                   "[newton] it %2d  J %.6e  |g| %.6e  rel %.3e\n", iter,
                   objective, g_norm, rel_g);

    if (g_norm == 0 || rel_g <= options.gtol) {
      report.converged = true;
      report.log.push_back(entry);
      break;
    }
    if (iter == options.max_newton_iters) {
      report.log.push_back(entry);
      break;
    }

    // Newton step: H s = -g, solved inexactly (Eisenstat-Walker forcing).
    const real_t eta = forcing_term(options, rel_g);
    entry.forcing = eta;
    rhs = g;
    grid::scale(real_t(-1), rhs);
    const auto apply_a = [&](const VectorField& x, VectorField& y) {
      system.hessian_matvec(x, y);
    };
    const auto apply_m = [&](const VectorField& x, VectorField& y) {
      system.apply_preconditioner(x, y);
    };
    const PcgResult pcg = pcg_solve(decomp, apply_a, apply_m, rhs, step, eta,
                                    options.max_krylov_iters, pcg_ws);
    if (options.guard) grid::validate_finite(decomp, step, "newton step");
    entry.krylov_iterations = pcg.iterations;

    // Descent safeguard: fall back to the preconditioned steepest-descent
    // direction if PCG returned an ascent direction.
    real_t gs = grid::dot(decomp, g, step);
    if (gs >= 0) {
      system.apply_preconditioner(rhs, step);
      gs = grid::dot(decomp, g, step);
    }

    // Armijo backtracking line search.
    real_t alpha = 1;
    bool accepted = false;
    real_t trial_objective = objective;
    for (int ls = 0; ls < options.max_line_search; ++ls) {
      grid::copy(v, v_trial);
      grid::axpy(alpha, step, v_trial);
      trial_objective = system.evaluate(v_trial);
      if (trial_objective <= objective + options.armijo_c1 * alpha * gs) {
        accepted = true;
        break;
      }
      alpha *= real_t(0.5);
    }
    if (!accepted && options.guard) {
      // Guard-mode line-search recovery: retry along the preconditioned
      // steepest-descent direction with a damped initial step. The damping
      // both skips the step lengths a Newton direction would want and
      // extends the halving ladder past where the first search gave up.
      system.apply_preconditioner(rhs, step);
      gs = grid::dot(decomp, g, step);
      if (gs < 0) {
        alpha = real_t(0.25);
        for (int ls = 0; ls < options.max_line_search; ++ls) {
          grid::copy(v, v_trial);
          grid::axpy(alpha, step, v_trial);
          trial_objective = system.evaluate(v_trial);
          if (trial_objective <=
              objective + options.armijo_c1 * alpha * gs) {
            accepted = true;
            ++report.line_search_recoveries;
            break;
          }
          alpha *= real_t(0.5);
        }
      }
    }
    if (!accepted) {
      // Restore the state fields of the current iterate and stop.
      objective = system.evaluate(v);
      entry.step_length = 0;
      report.log.push_back(entry);
      if (options.verbose && root)
        std::fprintf(stderr, "[newton] line search failed at it %d\n", iter);
      break;
    }

    grid::copy(v_trial, v);
    objective = trial_objective;
    entry.step_length = alpha;
    report.log.push_back(entry);
    report.iterations = iter + 1;

    if (options.iterate_hook) {
      NewtonIterateInfo info;
      info.iterates_done = iter + 1;
      info.gradient_reference = g0_norm;
      info.velocity = &v;
      options.iterate_hook(info);
    }
  }

  report.final_objective = objective;
  report.final_gradient_norm =
      report.log.empty() ? real_t(0) : report.log.back().gradient_norm;
  report.total_matvecs = system.matvec_count();
  report.plan_builds =
      system.transport().plan_build_count() - plan_builds_before;
  return report;
}

}  // namespace diffreg::core

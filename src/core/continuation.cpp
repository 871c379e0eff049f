#include "core/continuation.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/plan_registry.hpp"

namespace diffreg::core {

namespace {

// The beta continuation divides beta by this factor per stage and runs at
// most kMaxStages stages.
constexpr real_t kBetaReduction = 10;
constexpr int kMaxStages = 8;

/// Grid hierarchy, finest first: repeated halving (odd dims round up) until
/// the level budget or the coarsest-dim floor is exhausted.
std::vector<Int3> build_level_dims(const Int3& fine, int levels,
                                   index_t coarsest_dim) {
  std::vector<Int3> dims{fine};
  while (static_cast<int>(dims.size()) < levels) {
    const Int3 next = spectral::coarsen_dims(dims.back(), coarsest_dim);
    if (next == dims.back()) break;
    dims.push_back(next);
  }
  return dims;
}

}  // namespace

ContinuationResult run_beta_continuation(RegistrationSolver& solver,
                                         const ScalarField& rho_t,
                                         const ScalarField& rho_r,
                                         const ContinuationOptions& copt) {
  ContinuationResult out;
  // Per-stage parameters ride the request; the solver's own options are
  // never touched (no restore guard needed on any exit path).
  RegistrationOptions stage_opt = solver.options();
  real_t beta = copt.beta_start;
  const VectorField* warm_start = nullptr;

  for (int stage = 0; stage < kMaxStages; ++stage) {
    stage_opt.beta = beta;
    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.v0 = warm_start;
    req.options = stage_opt;
    RegistrationResult result = solver.solve(req);
    // ||g(0)|| is beta-independent (the quadratic regularizer's gradient
    // vanishes at v = 0): the cold first stage measures it, later
    // warm-started stages reuse it instead of re-solving state + adjoint.
    if (warm_start == nullptr) {
      out.gradient_reference = result.newton.initial_gradient_norm;
      stage_opt.gradient_reference = out.gradient_reference;
    }

    out.stages.push_back(
        summarize(result, solver.ops().decomp().dims(), beta));

    const bool admissible = result.min_det > copt.min_det_bound;
    // The first stage is kept even when inadmissible (flagged below), so
    // callers never receive a default-constructed result with an empty
    // velocity and final_beta = 0.
    if (admissible || stage == 0) {
      out.best = std::move(result);
      out.admissible = admissible;
      out.final_beta = beta;
      warm_start = admissible ? &out.best.velocity : nullptr;
    }
    if (!admissible || beta <= copt.beta_target) break;
    beta = std::max(copt.beta_target, beta / kBetaReduction);
  }
  return out;
}

MultilevelResult run_multilevel_continuation(
    grid::PencilDecomp& fine_decomp, const RegistrationOptions& opt,
    const ScalarField& rho_t, const ScalarField& rho_r,
    const MultilevelOptions& mopt, std::shared_ptr<PlanRegistry> registry) {
  if (mopt.levels < 1)
    throw std::invalid_argument(
        "run_multilevel_continuation: levels must be >= 1");
  if (mopt.checkpoint_every > 0 && mopt.checkpoint_path.empty())
    throw std::invalid_argument(
        "run_multilevel_continuation: checkpoint_every > 0 needs a "
        "checkpoint_path");
  const std::vector<Int3> level_dims =
      build_level_dims(fine_decomp.dims(), mopt.levels, mopt.coarsest_dim);
  const int nlevels = static_cast<int>(level_dims.size());

  MultilevelResult out;

  // One registry serves every plan of the pyramid: the caller's, or one
  // adopting the caller's decomposition as level 0. It builds the coarser
  // decompositions on the same process grid, so every transfer is a pure
  // layout remap.
  if (!registry) registry = std::make_shared<PlanRegistry>(fine_decomp);
  std::vector<std::shared_ptr<grid::PencilDecomp>> decomps;
  for (int k = 0; k < nlevels; ++k)
    decomps.push_back(registry->decomp(level_dims[k]));

  // Smooth once on the fine grid (exactly what RegistrationSolver would do)
  // and restrict the smoothed images: spectral truncation keeps the coarser
  // levels alias free on its own, and solving the SAME band-truncated
  // problem on every level is what makes carrying ||g(0)|| across levels
  // valid — re-smoothing per level at that level's cell size would shrink
  // the coarse gradient and corrupt the carried reference.
  RegistrationOptions base = opt;
  std::vector<ScalarField> rho_ts(nlevels), rho_rs(nlevels);
  if (opt.smooth_inputs && nlevels > 1) {
    spectral::SpectralOps& fine_ops = *registry->spectral(level_dims[0]);
    const Int3 fd = fine_decomp.dims();
    const Vec3 sigma{opt.smoothing_cells * kTwoPi / fd[0],
                     opt.smoothing_cells * kTwoPi / fd[1],
                     opt.smoothing_cells * kTwoPi / fd[2]};
    fine_ops.gaussian_smooth(rho_t, sigma, rho_ts[0]);
    fine_ops.gaussian_smooth(rho_r, sigma, rho_rs[0]);
    base.smooth_inputs = false;
  } else {
    rho_ts[0] = rho_t;
    rho_rs[0] = rho_r;
  }

  // Cascade image restriction: both images of a transition share one
  // batched 2-component transfer (5 exchanges per level).
  for (int k = 1; k < nlevels; ++k) {
    const index_t n = decomps[k]->local_real_size();
    rho_ts[k].resize(n);
    rho_rs[k].resize(n);
    const real_t* ins[2] = {rho_ts[k - 1].data(), rho_rs[k - 1].data()};
    real_t* outs[2] = {rho_ts[k].data(), rho_rs[k].data()};
    registry->resample(level_dims[k - 1], level_dims[k])
        ->apply_many(std::span<const real_t* const>(ins, 2),
                     std::span<real_t* const>(outs, 2));
  }

  real_t beta_override = -1;  // set by the coarse beta continuation

  // Resume: locate the checkpoint's pyramid level and restore the carried
  // solver state. All checkpoint reads are collective and converge on
  // errors, so a bad file throws CheckpointError on every rank.
  int resume_level = -1;
  CheckpointHeader resume;  // the checkpoint's solver state
  VectorField resume_v;
  if (!mopt.resume_path.empty()) {
    resume = read_checkpoint_header(fine_decomp.comm(), mopt.resume_path);
    if (resume.fine_dims != fine_decomp.dims())
      throw CheckpointError(
          "checkpoint fine grid does not match this run: " +
          mopt.resume_path);
    resume_level = static_cast<int>(
        std::find(level_dims.begin(), level_dims.end(), resume.level_dims) -
        level_dims.begin());
    if (resume_level == nlevels)
      throw CheckpointError(
          "checkpoint level matches no level of this pyramid: " +
          mopt.resume_path);
    out.gradient_reference = resume.gradient_reference;
    out.admissible = resume.admissible;
    if (resume.beta_override > 0) beta_override = resume.beta_override;
    resume_v =
        read_checkpoint_velocity(*decomps[resume_level], mopt.resume_path);
  }

  // The checkpoint of level k at `beta` after `iters` accepted iterates.
  const auto level_header = [&](int k, real_t beta, int iters) {
    CheckpointHeader hdr;
    hdr.fine_dims = fine_decomp.dims();
    hdr.level_dims = level_dims[k];
    hdr.beta = beta;
    hdr.beta_override = beta_override;
    hdr.gradient_reference = out.gradient_reference;
    hdr.admissible = out.admissible;
    hdr.newton_iters_done = iters;
    return hdr;
  };

  for (int k = nlevels - 1; k >= 0; --k) {
    // Levels coarser than the checkpoint already ran before the kill.
    if (resume_level >= 0 && k > resume_level) continue;
    const bool resuming_here = resume_level == k;

    RegistrationOptions lopt = base;
    lopt.beta = resuming_here
                    ? resume.beta
                    : (beta_override > 0 ? beta_override : opt.beta);
    lopt.gradient_reference = out.gradient_reference;

    // Periodic in-level checkpoints ride the accepted-iterate hook (chained
    // with any caller-installed hook, which runs first — a kill that fires
    // from the user hook leaves the previous checkpoint in place). A
    // coarsest level running the beta continuation only checkpoints at
    // level end: its intermediate stages are warm starts, not resumable
    // Newton state.
    const bool coarse_cont = k == nlevels - 1 &&
                             mopt.coarse_beta_cont.has_value() &&
                             !resuming_here;
    const int base_iters = resuming_here ? resume.newton_iters_done : 0;
    if (mopt.checkpoint_every > 0 && !coarse_cont)
      lopt.iterate_hook = checkpoint_hook(
          *decomps[k], level_header(k, lopt.beta, base_iters),
          mopt.checkpoint_path, mopt.checkpoint_every, base.iterate_hook);
    RegistrationSolver solver(*decomps[k], lopt, registry);

    RegistrationResult result;
    if (coarse_cont) {
      ContinuationResult cont = run_beta_continuation(
          solver, rho_ts[k], rho_rs[k], *mopt.coarse_beta_cont);
      out.admissible = cont.admissible;
      out.gradient_reference = cont.gradient_reference;
      beta_override = cont.final_beta;
      lopt.beta = cont.final_beta;  // for the level-end checkpoint below
      out.solves = std::move(cont.stages);  // the first level solved
      result = std::move(cont.best);
    } else {
      if (resuming_here) {
        // Warm-restart the interrupted level from the stored iterate. The
        // carried gradient_reference keeps the stopping target identical,
        // so this replays exactly the iterates the killed run never
        // finished (level-end checkpoints replay zero: the warm start is
        // already converged).
        result = solver.run(rho_ts[k], rho_rs[k], &resume_v);
      } else if (k == nlevels - 1) {
        result = solver.run(rho_ts[k], rho_rs[k]);
        out.gradient_reference = result.newton.initial_gradient_norm;
      } else {
        VectorField v0;  // prolonged from the level below, held in out.fine
        registry->resample(level_dims[k + 1], level_dims[k])
            ->apply(out.fine.velocity, v0);
        result = solver.run(rho_ts[k], rho_rs[k], &v0);
      }
      out.solves.push_back(summarize(result, level_dims[k], lopt.beta));
    }
    out.final_beta = lopt.beta;

    // Level-end checkpoint: marks the level complete (a resume from it
    // replays nothing here) and counts the level's iterates across runs.
    if (mopt.checkpoint_every > 0)
      write_checkpoint(
          *decomps[k],
          level_header(k, lopt.beta, base_iters + result.newton.iterations),
          result.velocity, mopt.checkpoint_path);

    out.fine = std::move(result);
  }
  return out;
}

}  // namespace diffreg::core

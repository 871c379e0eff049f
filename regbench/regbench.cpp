// Registration benchmark program: time to solution and batch throughput of
// libdiffreg on three seeded workloads, with a traced per-layer split.
//
//   regbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//            [--spans FILE]
//   regbench --record --workload NAME --out FILE
//
// The program calls only public entry points (RegistrationSolver::solve,
// BatchSolver::run_all, OptimalitySystem, semilag::Transport,
// interp::InterpPlan, grid::GhostExchange, fft::DistributedFft3d,
// spectral::SpectralOps) from one process that spawns kRanks rank threads
// through mpisim::run_spmd, and generates every input from the seed through
// imaging::. Every workload is a closed loop with one client: the next solve
// (or batch) starts when the previous one returned.
//
// It writes one JSON record of raw samples (per-solve times, Timings
// categories and counters, solver outcomes, self-test verdicts, the
// environment); run.py turns the record into the metrics, checks the
// outputs against reference.json and prints the result. `--record` solves
// every input variant of a workload once and writes the reference values.
//
// Workloads (see README.md for why each exists):
//   synthetic-64  paper Sec. IV-A1 synthetic problem at 64^3, p = 4;
//   brain-48      two brain phantoms on a 48x56x48 grid, p = 4;
//   batch-32      16 synthetic 32^3 pairs per batch through one BatchSolver
//                 on p = 4 with automatic sharding.
// The seed picks one of kVariants inputs per solve (per job for batch-32).
// The variants are chosen to cost the same work (identical iteration and
// matvec counts), so results of different seeds stay comparable.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"
#include "trace.hpp"

namespace {

using namespace diffreg;
using grid::ScalarField;
using grid::VectorField;
using regbench::now_s;
using regbench::ScopedSpan;
using regbench::SpanLog;

constexpr int kRanks = 4;
constexpr int kVariants = 8;
constexpr int kBatchJobs = 16;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Timed calls per layer in the replay (after one untimed warm-up call).
constexpr int kReplayReps = 5;

enum class Kind { kSynthetic, kBrain, kBatch };

struct WorkloadDef {
  const char* name;
  Kind kind;
  Int3 dims;
};

const WorkloadDef kWorkloads[] = {
    {"synthetic-64", Kind::kSynthetic, Int3{{64, 64, 64}}},
    {"brain-48", Kind::kBrain, Int3{{48, 56, 48}}},
    {"batch-32", Kind::kBatch, Int3{{32, 32, 32}}},
};

// --- Seeded inputs ---------------------------------------------------------

int solve_variant(std::uint64_t seed) {
  return static_cast<int>(seed % kVariants);
}
/// Job j of a batch: the variants rotate with the seed, so every batch holds
/// each variant twice and the four shards' loads are a permutation of the
/// same set whatever the seed.
int batch_job_variant(std::uint64_t seed, int j) {
  return static_cast<int>((seed + static_cast<std::uint64_t>(j)) % kVariants);
}
/// Amplitudes near the paper's 0.5, close enough that every variant takes
/// the same Newton iterates and matvecs.
real_t synthetic_amplitude(int k) { return 0.49 + 0.0025 * k; }
real_t batch_amplitude(int k) { return 0.30 + 0.02 * k; }
/// Periodic shift of both brain phantoms: a different input per variant for
/// the same registration problem (the solver is translation invariant on
/// the periodic grid up to rounding).
Int3 brain_shift(const Int3& dims, int k) {
  return Int3{{(11 * k) % dims[0], (13 * k) % dims[1], (7 * k) % dims[2]}};
}

/// Copies this rank's pencil of the full-grid volume `vol`, shifted
/// periodically by `s` grid points.
void cut_shifted(grid::PencilDecomp& d, const ScalarField& vol, const Int3& s,
                 ScalarField& out) {
  const Int3 n = d.dims();
  const Int3 ld = d.local_real_dims();
  const index_t lo1 = d.range1().begin, lo2 = d.range2().begin;
  out.resize(static_cast<std::size_t>(ld.prod()));
  index_t idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1)
    for (index_t i2 = 0; i2 < ld[1]; ++i2)
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
        out[idx] = vol[linear_index((lo1 + i1 + s[0]) % n[0],
                                    (lo2 + i2 + s[1]) % n[1],
                                    (i3 + s[2]) % n[2], n)];
}

void make_inputs(Kind kind, int variant, grid::PencilDecomp& d,
                 ScalarField& rho_t, ScalarField& rho_r) {
  if (kind == Kind::kBrain) {
    // Both subjects on a one-rank decomposition of the full grid, then each
    // rank cuts its pencil out of the shifted volumes.
    Timings scratch;
    grid::PencilDecomp full(mpisim::single_rank(scratch), d.dims());
    const Int3 s = brain_shift(d.dims(), variant);
    cut_shifted(d, imaging::brain_phantom(full, 2), s, rho_t);
    cut_shifted(d, imaging::brain_phantom(full, 1), s, rho_r);
    return;
  }
  const real_t amplitude = kind == Kind::kSynthetic ? synthetic_amplitude(variant)
                                                    : batch_amplitude(variant);
  spectral::SpectralOps ops(d);
  rho_t = imaging::synthetic_template(d);
  rho_r = imaging::make_reference(ops, rho_t,
                                  imaging::synthetic_velocity(d, amplitude));
}

// --- Per-rank observations -------------------------------------------------

/// One rank's view of one solve (a standalone solve, or a batch job on the
/// rank of the shard that ran it).
struct SolveObs {
  std::uint64_t id = 0;  ///< Solve index, or batch job id.
  int batch = -1;        ///< Measured batch index (batch-32 only).
  int variant = 0;
  int rank = 0;
  bool traced = false;
  bool threw = false;
  bool finite = true;
  double tts = 0;  ///< This rank's time_to_solution.
  Timings timings;  ///< The solve's own Timings delta.
  bool converged = false;
  int newton_iters = 0, matvecs = 0, krylov_iters = 0, plan_builds = 0;
  double rel_residual = 0, min_det = 0;
  // Traced solves: process-clock stamps and Timings snapshots at every
  // accepted iterate; bracketed solves also have them at entry and return.
  std::vector<double> hook_t;
  std::vector<Timings> hook_timings;
  bool bracketed = false;
  Timings start_timings, end_timings;
};

/// Plans built and leases served by one shard registry, cumulative.
struct RegistryCount {
  int builds = 0;
  int leases = 0;
};

RegistryCount registry_count(const core::PlanRegistry::Stats& s) {
  return {s.decomp_builds + s.spectral_builds + s.resample_builds +
              s.transport_builds,
          s.leases};
}

/// Everything one rank thread records; written only by that thread and read
/// after run_spmd joined it.
struct RankOut {
  std::vector<SolveObs> solves;
  SpanLog spans;
  std::map<std::string, std::vector<double>> calls_ms;  // layer replay
  RegistryCount registry_cold;          // after the cold batch
  std::vector<RegistryCount> registry;  // after each measured batch
  std::vector<Timings> run_all_timings;  // this rank, per measured batch
  std::map<std::uint64_t, std::vector<std::pair<double, Timings>>> job_hooks;
};

/// Run-level samples, written by rank 0.
struct RunOut {
  std::vector<double> setup_s, inputs_ms;
  std::vector<double> batch_wall_s;
  std::vector<int> batch_traced;
  std::vector<core::BatchJobSummary> batch_summary;  // all measured batches
  std::vector<int> batch_summary_index;
};

int total_krylov(const core::NewtonReport& r) {
  int k = 0;
  for (const auto& e : r.log) k += e.krylov_iterations;
  return k;
}

void fill_outcome(const core::SolveReport& rep, SolveObs& o) {
  o.tts = rep.time_to_solution;
  o.timings = rep.timings;
  o.converged = rep.newton.converged;
  o.newton_iters = rep.newton.iterations;
  o.matvecs = rep.newton.total_matvecs;
  o.krylov_iters = total_krylov(rep.newton);
  o.plan_builds = rep.newton.plan_builds;
  o.rel_residual = rep.rel_residual;
  o.min_det = rep.min_det;
}

// --- Layer replay ----------------------------------------------------------

/// Replays each layer's public call at the solve's final velocity `v` and
/// records per-call wall times (ms) under the layer metric names. All ranks
/// of `d` call this together; a barrier before every timed call keeps one
/// call's stragglers out of the next call's time.
void replay_layers(grid::PencilDecomp& d, const core::RegistrationOptions& opt,
                   const ScalarField& rho_t, const ScalarField& rho_r,
                   const VectorField& v, RankOut& out, int request) {
  ScopedSpan replay_span(out.spans, "replay", request);
  auto& comm = d.comm();
  const index_t n = d.local_real_size();
  const Int3 dims = d.dims();

  spectral::SpectralOps ops(d, opt.wire(), opt.overlap);
  const Vec3 sigma{{opt.smoothing_cells * kTwoPi / dims[0],
                    opt.smoothing_cells * kTwoPi / dims[1],
                    opt.smoothing_cells * kTwoPi / dims[2]}};
  ScalarField rt(n), rr(n);
  ops.gaussian_smooth(rho_t, sigma, rt);
  ops.gaussian_smooth(rho_r, sigma, rr);

  semilag::TransportConfig tc;
  tc.nt = opt.nt;
  tc.method = opt.interp_method;
  tc.incompressible = opt.incompressible;
  tc.wire = opt.wire();
  tc.overlap = opt.overlap;

  // A second velocity, bitwise different, so alternating set_velocity and
  // evaluate calls rebuild their plans every time as Newton line searches do.
  VectorField va = v, vb = v;
  grid::scale(real_t(1.001), vb);

  const auto time_calls = [&](const char* name, auto&& call) {
    ScopedSpan span(out.spans, name, request);
    auto& samples = out.calls_ms[name];
    for (int r = 0; r <= kReplayReps; ++r) {
      comm.barrier();
      const double t0 = now_s();
      call(r);
      const double ms = (now_s() - t0) * 1e3;
      if (r > 0) samples.push_back(ms);
    }
  };

  // interp + grid: Euler departure points of the final velocity.
  {
    std::vector<Vec3> points(static_cast<std::size_t>(n));
    const Int3 ld = d.local_real_dims();
    const real_t dt = real_t(1) / opt.nt;
    const real_t h1 = kTwoPi / dims[0], h2 = kTwoPi / dims[1],
                 h3 = kTwoPi / dims[2];
    index_t idx = 0;
    for (index_t i1 = 0; i1 < ld[0]; ++i1)
      for (index_t i2 = 0; i2 < ld[1]; ++i2)
        for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
          points[idx] = Vec3{{(d.range1().begin + i1) * h1 - dt * va[0][idx],
                              (d.range2().begin + i2) * h2 - dt * va[1][idx],
                              i3 * h3 - dt * va[2][idx]}};
    interp::InterpPlan plan(d, opt.wire(), opt.overlap);
    grid::GhostExchange gx(d, interp::kGhostWidth, TimeKind::kInterpComm,
                           opt.wire(), opt.overlap);
    time_calls("interp.plan_build_ms", [&](int) { plan.build(points); });
    std::vector<Vec3> at_points;
    time_calls("interp.interpolate_vec_ms", [&](int) {
      plan.interpolate_vec(gx, va, at_points, opt.interp_method);
    });
    std::vector<real_t> ghosted;
    time_calls("grid.ghost_exchange_ms",
               [&](int) { gx.exchange(rt, ghosted); });
  }

  // semilag.
  {
    semilag::Transport tr(ops, tc);
    time_calls("semilag.set_velocity_ms",
               [&](int r) { tr.set_velocity(r % 2 == 0 ? va : vb); });
    tr.set_velocity(va);
    time_calls("semilag.state_ms", [&](int) { tr.solve_state(rt); });
    ScalarField lambda1(n), rho_tilde1;
    for (index_t i = 0; i < n; ++i) lambda1[i] = rr[i] - tr.final_state()[i];
    VectorField b, bt;
    time_calls("semilag.adjoint_ms",
               [&](int) { tr.solve_adjoint(lambda1, b); });
    time_calls("semilag.inc_state_ms", [&](int) {
      tr.solve_incremental_state(va, rho_tilde1);
    });
    time_calls("semilag.inc_adjoint_ms", [&](int) {
      tr.solve_incremental_adjoint_gn(rho_tilde1, bt);
    });
  }

  // fft + spectral.
  {
    auto& fft = ops.fft();
    std::vector<complex_t> spec(static_cast<std::size_t>(
        fft.local_spectral_size()));
    ScalarField back(n);
    time_calls("fft.forward_ms", [&](int) { fft.forward(rt, spec); });
    time_calls("fft.inverse_ms", [&](int) { fft.inverse(spec, back); });
    VectorField g(n), w(n);
    time_calls("spectral.gradient_ms", [&](int) { ops.gradient(rt, g); });
    time_calls("spectral.inv_neg_laplacian_pow_ms", [&](int) {
      ops.inv_neg_laplacian_pow(va, 2, w);
    });
  }

  // core: the optimality system the Newton solver drives.
  {
    semilag::Transport tr(ops, tc);
    core::Regularization reg(ops, opt.reg_type, opt.beta);
    core::OptimalitySystem sys(ops, tr, reg, rt, rr, opt.incompressible,
                               opt.gauss_newton);
    time_calls("core.evaluate_ms",
               [&](int r) { sys.evaluate(r % 2 == 0 ? va : vb); });
    sys.evaluate(va);
    VectorField g(n), hg(n), pg(n);
    time_calls("core.gradient_ms", [&](int) { sys.gradient(g); });
    time_calls("core.matvec_ms", [&](int) { sys.hessian_matvec(g, hg); });
    time_calls("core.precond_ms",
               [&](int) { sys.apply_preconditioner(g, pg); });
  }
}

// --- Solve workloads (synthetic-64, brain-48) ------------------------------

struct RunConfig {
  const WorkloadDef* def = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// One SPMD run: set-up, then (when `measure`) the closed solve loop and, in
/// traced runs, the layer replay.
void solve_workload_rank(mpisim::Communicator& comm, const RunConfig& cfg,
                         bool measure, double t_spawn, RankOut& out,
                         RunOut& run) {
  const int variant = solve_variant(cfg.seed);
  const core::RegistrationOptions opt;
  const int setup_span = out.spans.open("setup", -1);
  grid::PencilDecomp decomp(comm, cfg.def->dims);
  const double t_in = now_s();
  ScalarField rho_t, rho_r;
  {
    ScopedSpan span(out.spans, "imaging.inputs", -1);
    make_inputs(cfg.def->kind, variant, decomp, rho_t, rho_r);
  }
  const double inputs_s = comm.allreduce_max(now_s() - t_in);
  core::RegistrationSolver solver(decomp, opt);
  const double setup_s = comm.allreduce_max(now_s() - t_spawn);
  out.spans.close(setup_span);
  if (comm.is_root()) {
    run.setup_s.push_back(setup_s);
    run.inputs_ms.push_back(inputs_s * 1e3);
  }
  if (!measure) return;

  VectorField last_velocity;
  const int min_solves = cfg.trace ? 2 : 1;
  const double t_loop = now_s();
  double last_tts = 0;
  for (int i = 0;; ++i) {
    // Stop before a solve that would overrun the measured window.
    const double elapsed = comm.allreduce_max(now_s() - t_loop);
    if (i >= min_solves && elapsed + last_tts > cfg.seconds) break;

    SolveObs o;
    o.id = static_cast<std::uint64_t>(i);
    o.variant = variant;
    o.rank = comm.rank();
    o.traced = cfg.trace && i % 2 == 0;
    core::SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.options = opt;
    int solve_span = -1, iterate_span = -1;
    if (o.traced) {
      req.options.iterate_hook = [&](const core::NewtonIterateInfo&) {
        o.hook_t.push_back(now_s());
        o.hook_timings.push_back(comm.timings());
        out.spans.close(iterate_span);
        iterate_span = out.spans.open("iterate", i);
      };
      solve_span = out.spans.open("solve", i);
      iterate_span = out.spans.open("iterate", i);
      o.bracketed = true;
      o.start_timings = comm.timings();
    }
    core::SolveReport rep;
    try {
      rep = solver.solve(req);
      fill_outcome(rep, o);
    } catch (const std::exception& e) {
      o.threw = true;
      std::fprintf(stderr, "regbench: rank %d solve %d threw: %s\n",
                   comm.rank(), i, e.what());
    }
    if (o.traced) {
      o.end_timings = comm.timings();
      out.spans.close(iterate_span);
      out.spans.close(solve_span);
    }
    o.finite = comm.allreduce_sum(static_cast<double>(
                   o.threw ? 1 : grid::count_nonfinite(rep.velocity))) == 0 &&
               std::isfinite(o.rel_residual) && std::isfinite(o.min_det);
    last_tts = comm.allreduce_max(o.tts);
    out.solves.push_back(std::move(o));
    if (!out.solves.back().threw) last_velocity = std::move(rep.velocity);
  }

  // Collective decision: a rank without a velocity must not leave its peers
  // alone in the replay's collectives.
  const bool have_velocity =
      last_velocity.local_size() == decomp.local_real_size();
  if (cfg.trace && comm.allreduce_min(have_velocity ? 1.0 : 0.0) > 0.5)
    replay_layers(decomp, opt, rho_t, rho_r, last_velocity, out, -2);
}

// --- Batch workload (batch-32) ---------------------------------------------

/// Submits one batch; `b` is the measured batch index (-1 for the cold
/// set-up batch) and fixes the job ids, so job j has id (b+1)*16 + j + 1.
void submit_batch(core::BatchSolver& batch, const RunConfig& cfg, int b,
                  bool traced, mpisim::Communicator& comm, RankOut& out) {
  for (int j = 0; j < kBatchJobs; ++j) {
    core::BatchJobSpec spec;
    spec.dims = cfg.def->dims;
    spec.request.options = core::RegistrationOptions{};
    const auto id = static_cast<std::uint64_t>((b + 1) * kBatchJobs + j + 1);
    spec.request.job_id = id;
    const int variant = batch_job_variant(cfg.seed, j);
    spec.make_inputs = [variant](grid::PencilDecomp& d, ScalarField& t,
                                 ScalarField& r) {
      make_inputs(Kind::kBatch, variant, d, t, r);
    };
    if (traced) {
      spec.request.options.iterate_hook =
          [hooks = &out.job_hooks[id],
           timings = &comm.timings()](const core::NewtonIterateInfo&) {
            hooks->emplace_back(now_s(), *timings);
          };
    }
    batch.submit(std::move(spec));
  }
}

/// One SPMD run: a cold batch as set-up, then (when `measure`) the closed
/// batch loop and, in traced runs, the layer replay.
void batch_workload_rank(mpisim::Communicator& comm, const RunConfig& cfg,
                         bool measure, double t_spawn, RankOut& out,
                         RunOut& run) {
  core::BatchOptions bopt;  // automatic sharding, fused exchanges
  const int setup_span = out.spans.open("setup", -1);
  core::BatchSolver batch(comm);
  submit_batch(batch, cfg, /*b=*/-1, /*traced=*/false, comm, out);
  {
    ScopedSpan span(out.spans, "run_all.cold", -1);
    out.registry_cold = registry_count(batch.run_all(bopt).registry);
  }
  const double setup_s = comm.allreduce_max(now_s() - t_spawn);
  out.spans.close(setup_span);
  // The batch builds each job's inputs inside run_all, on the job's
  // one-rank shard; time one job's inputs the same way, outside set-up.
  const double t_in = now_s();
  {
    ScopedSpan span(out.spans, "imaging.inputs", -1);
    Timings scratch;
    grid::PencilDecomp d(mpisim::single_rank(scratch), cfg.def->dims);
    ScalarField t, r;
    make_inputs(Kind::kBatch, batch_job_variant(cfg.seed, 0), d, t, r);
  }
  const double inputs_s = comm.allreduce_max(now_s() - t_in);
  if (comm.is_root()) {
    run.setup_s.push_back(setup_s);
    run.inputs_ms.push_back(inputs_s * 1e3);
  }
  if (!measure) return;

  out.job_hooks.clear();
  const int min_batches = cfg.trace ? 2 : 1;
  const double t_loop = now_s();
  double last_wall = 0;
  core::BatchReport last;
  for (int b = 0;; ++b) {
    const double elapsed = comm.allreduce_max(now_s() - t_loop);
    if (b >= min_batches && elapsed + last_wall > cfg.seconds) break;
    const bool traced = cfg.trace && b % 2 == 0;
    submit_batch(batch, cfg, b, traced, comm, out);
    core::BatchReport rr;
    const Timings before = comm.timings();
    {
      ScopedSpan span(out.spans, "run_all", b);
      rr = batch.run_all(bopt);
    }
    out.run_all_timings.push_back(timings_delta(before, comm.timings()));
    for (const auto& rep : rr.reports) {
      SolveObs o;
      o.id = rep.job_id;
      o.batch = b;
      o.variant = batch_job_variant(
          cfg.seed, static_cast<int>((rep.job_id - 1) % kBatchJobs));
      o.rank = comm.rank();
      o.traced = traced;
      fill_outcome(rep, o);
      o.finite = grid::count_nonfinite(rep.velocity) == 0 &&
                 std::isfinite(o.rel_residual) && std::isfinite(o.min_det);
      if (auto it = out.job_hooks.find(rep.job_id); it != out.job_hooks.end()) {
        const int parent = out.spans.current();
        for (std::size_t k = 0; k < it->second.size(); ++k) {
          o.hook_t.push_back(it->second[k].first);
          o.hook_timings.push_back(it->second[k].second);
          if (k > 0)
            out.spans.add_closed("iterate", it->second[k - 1].first,
                                 it->second[k].first, parent, b);
        }
      }
      out.solves.push_back(std::move(o));
    }
    out.job_hooks.clear();
    out.registry.push_back(registry_count(rr.registry));
    last_wall = rr.wall_seconds;
    if (comm.is_root()) {
      run.batch_wall_s.push_back(rr.wall_seconds);
      run.batch_traced.push_back(traced ? 1 : 0);
      for (const auto& s : rr.summary) {
        run.batch_summary.push_back(s);
        run.batch_summary_index.push_back(b);
      }
    }
    last = std::move(rr);
  }

  if (cfg.trace && !last.reports.empty()) {
    // Each rank replays on its own one-rank grid, as its shard solves jobs.
    const auto& rep = last.reports.front();
    const int variant = batch_job_variant(
        cfg.seed, static_cast<int>((rep.job_id - 1) % kBatchJobs));
    Timings scratch;
    grid::PencilDecomp d(mpisim::single_rank(scratch), cfg.def->dims);
    if (rep.velocity.local_size() == d.local_real_size()) {
      ScalarField t, r;
      make_inputs(Kind::kBatch, variant, d, t, r);
      replay_layers(d, core::RegistrationOptions{}, t, r, rep.velocity, out,
                    -2);
    }
  }
}

// --- Record emission -------------------------------------------------------

class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}
  void raw(const char* s) { std::fputs(s, f_); }
  void key(const char* k) { std::fprintf(f_, "\"%s\": ", k); }
  void num(double x) {
    if (std::isfinite(x))
      std::fprintf(f_, "%.17g", x);
    else
      std::fputs("null", f_);
  }
  void num(std::uint64_t x) {
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(x));
  }
  void num(int x) { std::fprintf(f_, "%d", x); }
  void boolean(bool b) { std::fputs(b ? "true" : "false", f_); }
  void str(const char* s) { std::fprintf(f_, "\"%s\"", s); }
  template <typename T>
  void field(const char* k, T v, bool comma = true) {
    key(k);
    num(v);
    if (comma) raw(", ");
  }
  void field_bool(const char* k, bool v, bool comma = true) {
    key(k);
    boolean(v);
    if (comma) raw(", ");
  }
  template <typename T>
  void array(const char* k, const std::vector<T>& xs, bool comma = true) {
    key(k);
    raw("[");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) raw(", ");
      num(xs[i]);
    }
    raw("]");
    if (comma) raw(", ");
  }

 private:
  std::FILE* f_;
};

double category_sum(const Timings& t) {
  double s = 0;
  for (int k = 0; k < kNumTimeKinds; ++k) s += t.get(static_cast<TimeKind>(k));
  return s;
}

/// Counters equal and seconds within `tol` in every category.
bool timings_match(const Timings& a, const Timings& b, double tol) {
  for (int k = 0; k < kNumTimeKinds; ++k) {
    const auto kind = static_cast<TimeKind>(k);
    if (a.bytes(kind) != b.bytes(kind) || a.messages(kind) != b.messages(kind) ||
        a.exchanges(kind) != b.exchanges(kind) ||
        std::abs(a.get(kind) - b.get(kind)) > tol)
      return false;
  }
  return true;
}

/// `part` fits inside `whole`: no counter and no category time larger.
bool timings_within(const Timings& part, const Timings& whole, double tol) {
  for (int k = 0; k < kNumTimeKinds; ++k) {
    const auto kind = static_cast<TimeKind>(k);
    if (part.bytes(kind) > whole.bytes(kind) ||
        part.messages(kind) > whole.messages(kind) ||
        part.exchanges(kind) > whole.exchanges(kind) ||
        part.get(kind) > whole.get(kind) + tol)
      return false;
  }
  return true;
}

/// Self-test of one rank's traced solve: one hook per accepted iterate, and
/// the per-iterate Timings deltas add up to the solve's Timings (exactly
/// when the solve was bracketed by snapshots, as a sub-interval otherwise).
bool iterate_deltas_ok(const SolveObs& o) {
  if (!o.traced || o.threw) return true;
  if (static_cast<int>(o.hook_t.size()) != o.newton_iters) return false;
  Timings sum;
  if (o.bracketed) {
    Timings prev = o.start_timings;
    for (const auto& t : o.hook_timings) {
      sum += timings_delta(prev, t);
      prev = t;
    }
    sum += timings_delta(prev, o.end_timings);
    return timings_match(sum, o.timings, 1e-9);
  }
  for (std::size_t k = 1; k < o.hook_timings.size(); ++k)
    sum += timings_delta(o.hook_timings[k - 1], o.hook_timings[k]);
  return timings_within(sum, o.timings, 1e-9);
}

void write_solve(Json& j, const std::vector<const SolveObs*>& group) {
  const SolveObs& head = *group.front();
  j.raw("{");
  j.field("id", head.id);
  j.field("batch", head.batch);
  j.field("variant", head.variant);
  j.field_bool("traced", head.traced);
  bool threw = false, finite = true, deltas_ok = true, attribution_ok = true;
  double tts = 0, unattributed = 0;
  Timings slowest_cats;  // element-wise max over ranks
  std::uint64_t bytes[kNumTimeKinds] = {}, messages[kNumTimeKinds] = {},
                exchanges[kNumTimeKinds] = {};
  std::vector<double> exec_by_rank;
  std::vector<int> ranks;
  for (const SolveObs* o : group) {
    threw = threw || o->threw;
    finite = finite && o->finite;
    deltas_ok = deltas_ok && iterate_deltas_ok(*o);
    // Categories + unattributed = time to solution on every rank; the
    // categories themselves must not overlap to more than the wall time.
    const double un = o->tts - category_sum(o->timings);
    attribution_ok = attribution_ok && un >= -1e-6;
    if (o->tts >= tts) {
      tts = o->tts;
      unattributed = un;
    }
    slowest_cats.max_with(o->timings);
    for (int k = 0; k < kNumTimeKinds; ++k) {
      const auto kind = static_cast<TimeKind>(k);
      bytes[k] += o->timings.bytes(kind);
      messages[k] += o->timings.messages(kind);
      exchanges[k] += o->timings.exchanges(kind);
    }
    exec_by_rank.push_back(o->timings.get(TimeKind::kFftExec) +
                           o->timings.get(TimeKind::kInterpExec));
    ranks.push_back(o->rank);
  }
  j.field_bool("threw", threw);
  j.field_bool("finite", finite);
  j.field_bool("converged", head.converged);
  j.field("newton_iters", head.newton_iters);
  j.field("matvecs", head.matvecs);
  j.field("krylov_iters", head.krylov_iters);
  j.field("plan_builds", head.plan_builds);
  j.field("rel_residual", head.rel_residual);
  j.field("min_det", head.min_det);
  j.field("tts_s", tts);
  j.field("unattributed_s", unattributed);
  j.field_bool("attribution_ok", attribution_ok);
  j.field_bool("iterate_deltas_ok", deltas_ok);
  for (int k = 0; k < kNumTimeKinds; ++k) {
    const auto kind = static_cast<TimeKind>(k);
    const std::string n(time_kind_name(kind));
    j.field((n + "_s").c_str(), slowest_cats.get(kind));
    j.field((n + "_bytes").c_str(), bytes[k]);
    j.field((n + "_messages").c_str(), messages[k]);
    j.field((n + "_exchanges").c_str(), exchanges[k]);
  }
  std::vector<double> iterate_s;
  for (std::size_t k = 1; k < head.hook_t.size(); ++k)
    iterate_s.push_back(head.hook_t[k] - head.hook_t[k - 1]);
  j.array("iterate_s", iterate_s);
  j.array("ranks", ranks);
  j.array("exec_by_rank", exec_by_rank, false);
  j.raw("}");
}

void write_record(const std::string& path, const RunConfig& cfg,
                  const std::vector<RankOut>& ranks, const RunOut& run,
                  bool spans_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path);
  Json j(f);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.raw("{\"env\": {");
  j.key("workload");
  j.str(cfg.def->name);
  j.raw(", ");
  j.field("seed", cfg.seed);
  j.field("seconds", cfg.seconds);
  j.field("trace", cfg.trace ? 1 : 0);
  j.field("ranks", kRanks);
  j.field("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.key("compiler");
  j.str(__VERSION__);
  j.raw(", ");
  j.key("build_type");
  j.str(REGBENCH_BUILD_TYPE);
  j.raw(", ");
  j.key("arch_flags");
  j.str(REGBENCH_ARCH_FLAGS);
  j.raw("},\n");
  j.field("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  j.array("setup_s", run.setup_s);
  j.array("inputs_ms", run.inputs_ms);
  j.field_bool("spans_closed", spans_ok);
  j.raw("\n");

  // Group every rank's observations of one solve (batch jobs: the ranks of
  // the shard that ran them).
  std::map<std::uint64_t, std::vector<const SolveObs*>> groups;
  for (const auto& r : ranks)
    for (const auto& o : r.solves) groups[o.id].push_back(&o);
  j.raw("\"solves\": [\n");
  bool first = true;
  for (const auto& [id, group] : groups) {
    if (!first) j.raw(",\n");
    first = false;
    write_solve(j, group);
  }
  j.raw("],\n");

  if (cfg.def->kind == Kind::kBatch) {
    j.array("batch_wall_s", run.batch_wall_s);
    j.array("batch_traced", run.batch_traced);
    j.raw("\"jobs\": [\n");
    for (std::size_t i = 0; i < run.batch_summary.size(); ++i) {
      const auto& s = run.batch_summary[i];
      if (i) j.raw(",\n");
      j.raw("{");
      j.field("id", s.job_id);
      j.field("batch", run.batch_summary_index[i]);
      j.key("outcome");
      j.str(core::to_string(s.outcome));
      j.raw(", ");
      j.field("shard", s.shard);
      j.field("attempts", s.attempts);
      j.field_bool("converged", s.converged);
      j.field("newton_iters", s.newton_iters);
      j.field("matvecs", s.matvecs);
      j.field("rel_residual", s.rel_residual);
      j.field("min_det", s.min_det);
      j.field("solve_seconds", s.solve_seconds, false);
      j.raw("}");
    }
    j.raw("],\n");
    // Registry counters summed over the shards (one shard per rank here):
    // after the cold batch and after each measured batch.
    RegistryCount cold;
    std::vector<int> build_after(run.batch_wall_s.size()),
        lease_after(run.batch_wall_s.size());
    for (const auto& r : ranks) {
      cold.builds += r.registry_cold.builds;
      cold.leases += r.registry_cold.leases;
      for (std::size_t b = 0; b < build_after.size(); ++b) {
        build_after[b] += r.registry[b].builds;
        lease_after[b] += r.registry[b].leases;
      }
    }
    // mpisim view of each run_all: traffic summed over ranks, the slowest
    // rank's allreduce (kOther) time, and the exec-time imbalance of the
    // ranks (one shard each).
    std::vector<std::uint64_t> run_bytes, run_messages;
    std::vector<double> run_reduce_s, run_imbalance;
    for (std::size_t b = 0; b < run.batch_wall_s.size(); ++b) {
      std::uint64_t bytes = 0, messages = 0;
      double reduce = 0, exec_max = 0, exec_sum = 0;
      for (const auto& r : ranks) {
        const Timings& t = r.run_all_timings[b];
        bytes += t.total_bytes();
        messages += t.total_messages();
        reduce = std::max(reduce, t.get(TimeKind::kOther));
        const double exec =
            t.get(TimeKind::kFftExec) + t.get(TimeKind::kInterpExec);
        exec_max = std::max(exec_max, exec);
        exec_sum += exec;
      }
      run_bytes.push_back(bytes);
      run_messages.push_back(messages);
      run_reduce_s.push_back(reduce);
      run_imbalance.push_back(
          exec_sum > 0 ? exec_max * static_cast<double>(ranks.size()) / exec_sum
                       : 1.0);
    }
    j.array("batch_bytes", run_bytes);
    j.array("batch_messages", run_messages);
    j.array("batch_reduce_s", run_reduce_s);
    j.array("batch_rank_imbalance", run_imbalance);
    j.field("registry_cold_builds", cold.builds);
    j.field("registry_cold_leases", cold.leases);
    j.array("registry_builds_after", build_after);
    j.array("registry_leases_after", lease_after);
    j.raw("\n");
  }

  // Layer replay: per call, the slowest rank; run.py takes the median.
  j.raw("\"layers\": {");
  bool first_layer = true;
  if (!ranks.empty()) {
    for (const auto& [name, samples0] : ranks.front().calls_ms) {
      std::vector<double> per_call(samples0.size(), 0.0);
      for (const auto& r : ranks) {
        auto it = r.calls_ms.find(name);
        if (it == r.calls_ms.end()) continue;
        for (std::size_t c = 0; c < per_call.size() && c < it->second.size();
             ++c)
          per_call[c] = std::max(per_call[c], it->second[c]);
      }
      if (!first_layer) j.raw(", ");
      first_layer = false;
      j.array(name.c_str(), per_call, false);
    }
  }
  j.raw("}}\n");
  std::fclose(f);
}

// --- Reference recording ---------------------------------------------------

/// Solves every input variant once and writes
/// {"<variant>": {converged, newton_iters, matvecs, rel_residual, min_det}}.
void record_reference(const WorkloadDef& def, const std::string& path) {
  struct Ref {
    bool converged = false;
    int newton_iters = 0, matvecs = 0;
    double rel_residual = 0, min_det = 0;
  };
  std::vector<Ref> refs(kVariants);
  if (def.kind == Kind::kBatch) {
    mpisim::run_spmd(
        kRanks,
        [&](mpisim::Communicator& comm) {
          core::BatchSolver batch(comm);
          for (int k = 0; k < kVariants; ++k) {
            core::BatchJobSpec spec;
            spec.dims = def.dims;
            spec.request.options = core::RegistrationOptions{};
            spec.request.job_id = static_cast<std::uint64_t>(k + 1);
            spec.make_inputs = [k](grid::PencilDecomp& d, ScalarField& t,
                                   ScalarField& r) {
              make_inputs(Kind::kBatch, k, d, t, r);
            };
            batch.submit(std::move(spec));
          }
          const auto rr = batch.run_all();
          if (!comm.is_root()) return;
          for (const auto& s : rr.summary) {
            Ref& r = refs[s.job_id - 1];
            r = {s.converged, s.newton_iters, s.matvecs, s.rel_residual,
                 s.min_det};
          }
        },
        mpisim::SpmdOptions{});
  } else {
    for (int k = 0; k < kVariants; ++k) {
      mpisim::run_spmd(
          kRanks,
          [&](mpisim::Communicator& comm) {
            grid::PencilDecomp decomp(comm, def.dims);
            ScalarField rho_t, rho_r;
            make_inputs(def.kind, k, decomp, rho_t, rho_r);
            core::RegistrationSolver solver(decomp, core::RegistrationOptions{});
            const auto rep = solver.run(rho_t, rho_r);
            if (comm.is_root())
              refs[k] = {rep.newton.converged, rep.newton.iterations,
                         rep.newton.total_matvecs, rep.rel_residual,
                         rep.min_det};
          },
          mpisim::SpmdOptions{});
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path);
  Json j(f);
  j.raw("{");
  for (int k = 0; k < kVariants; ++k) {
    if (k) j.raw(", ");
    std::fprintf(f, "\"%d\": {", k);
    j.field_bool("converged", refs[k].converged);
    j.field("newton_iters", refs[k].newton_iters);
    j.field("matvecs", refs[k].matvecs);
    j.field("rel_residual", refs[k].rel_residual);
    j.field("min_det", refs[k].min_det, false);
    j.raw("}");
  }
  j.raw("}\n");
  std::fclose(f);
}

// --- main ------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "regbench: %s\nusage: regbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE [--spans FILE]\n"
               "       regbench --record --workload NAME --out FILE\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload, out_path, spans_path;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = std::stoi(value()) != 0;
      } else if (a == "--out") {
        out_path = value();
      } else if (a == "--spans") {
        spans_path = value();
      } else if (a == "--record") {
        record = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  for (const auto& w : kWorkloads)
    if (workload == w.name) cfg.def = &w;
  if (cfg.def == nullptr) usage("unknown workload");
  if (out_path.empty()) usage("--out is required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  if (record) {
    record_reference(*cfg.def, out_path);
    return 0;
  }

  std::vector<RankOut> ranks(kRanks);
  RunOut run;
  const auto body = cfg.def->kind == Kind::kBatch ? batch_workload_rank
                                                  : solve_workload_rank;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool measure = rep == kSetupReps - 1;
    const double t_spawn = now_s();
    mpisim::run_spmd(
        kRanks,
        [&](mpisim::Communicator& comm) {
          body(comm, cfg, measure, t_spawn, ranks[comm.rank()], run);
        },
        mpisim::SpmdOptions{});
  }

  bool spans_ok = true;
  for (const auto& r : ranks) spans_ok = spans_ok && r.spans.all_closed();
  if (cfg.trace && !spans_path.empty()) {
    std::FILE* f = std::fopen(spans_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "regbench: cannot open %s\n", spans_path.c_str());
      return 1;
    }
    for (int r = 0; r < kRanks; ++r) ranks[r].spans.write_jsonl(f, r);
    std::fclose(f);
  }
  write_record(out_path, cfg, ranks, run, spans_ok);
  return 0;
}

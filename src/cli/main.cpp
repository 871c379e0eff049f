// diffreg command-line driver.
//
// Registers a pair of volumes (built-in workloads or raw files written by
// imaging::write_raw_volume) and reports the paper's diagnostics. Examples:
//
//   diffreg --grid 64,64,64 --ranks 2 --workload synthetic
//   diffreg --grid 48,56,48 --workload brain --continuation --out result
//   diffreg --grid 64,64,64 --template t --reference r --incompressible
//   diffreg --grid 32,32,32 --ranks 4 --batch jobs.txt
//
// With --out PREFIX the deformed template, the residual and the
// det(grad y) map are written as PREFIX_*.{raw,mhd} volumes plus a
// mid-axial PGM slice each. With --batch FILE every non-comment line of
// FILE is one registration job (same flags as the command line, inheriting
// the command-line defaults) and all jobs run through one shared plan
// registry — see docs/SERVICE.md.
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli_options.hpp"
#include "core/diffreg.hpp"
#include "grid/field_io.hpp"
#include "imaging/io.hpp"

using namespace diffreg;

namespace {

/// Reads and parses a --batch job file. Returns false after printing the
/// offending line (host-side, before any ranks spawn).
bool read_job_file(const std::string& path, const cli::CliOptions& defaults,
                   std::vector<cli::CliOptions>& jobs) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open job file %s\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string error;
    auto jo = cli::parse_options(line, defaults, error);
    if (!jo) {
      std::fprintf(stderr, "error: %s:%d: %s\n", path.c_str(), lineno,
                   error.c_str());
      return false;
    }
    jobs.push_back(std::move(*jo));
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "error: job file %s has no jobs\n", path.c_str());
    return false;
  }
  return true;
}

/// Batch service mode: submit every job to a BatchSolver and print the
/// per-job summary table plus registry statistics on the root rank.
int run_batch(const cli::CliOptions& opt,
              const std::vector<cli::CliOptions>& jobs,
              const mpisim::SpmdOptions& spmd) {
  const auto body = [&](mpisim::Communicator& comm) {
    core::BatchSolver batch(comm);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const cli::CliOptions& jo = jobs[j];
      core::BatchJobSpec spec;
      spec.dims = jo.dims;
      spec.request.options = jo.reg;
      spec.request.job_id = j + 1;
      spec.request.priority = jo.priority;
      spec.request.deadline_seconds = jo.deadline;
      spec.request.checkpoint_path = jo.multi.checkpoint_path;
      if (jo.multi.checkpoint_every > 0)
        spec.request.checkpoint_every = jo.multi.checkpoint_every;
      // With a batch manifest, every job checkpoints by default so a killed
      // batch can warm-start its in-flight jobs on resume.
      if (!opt.batch_manifest.empty() && spec.request.checkpoint_path.empty())
        spec.request.checkpoint_path =
            opt.batch_manifest + ".job" + std::to_string(j + 1) + ".ckpt";
      spec.make_inputs = [jo](grid::PencilDecomp& d, grid::ScalarField& t,
                              grid::ScalarField& r) {
        spectral::SpectralOps ops(d);
        std::string error;
        if (!cli::build_workload(d, ops, jo, t, r, error))
          throw std::runtime_error(error);
      };
      batch.submit(std::move(spec));
    }

    core::BatchOptions bopt;
    bopt.shards = opt.shards;
    bopt.verbose = opt.reg.verbose;
    // The CLI service enforces deadlines (the library default keeps them
    // advisory for embedding callers) and wires up the fault-isolation
    // knobs.
    bopt.enforce_deadlines = true;
    bopt.retry_budget = opt.retry_budget;
    bopt.backoff_ms = opt.backoff_ms;
    bopt.degrade = opt.degrade;
    bopt.manifest_path = opt.batch_manifest;
    auto report = batch.run_all(bopt);

    if (comm.is_root()) {
      std::printf(
          "batch: %zu jobs  %d shard%s  wall %.2f s  %.3f registrations/s\n",
          report.summary.size(), report.shards,
          report.shards == 1 ? "" : "s", report.wall_seconds,
          report.registrations_per_sec);
      if (report.rounds > 1 || report.shard_rebuilds > 0)
        std::printf("fault recovery: %d round%s  %d shard rebuild%s\n",
                    report.rounds, report.rounds == 1 ? "" : "s",
                    report.shard_rebuilds,
                    report.shard_rebuilds == 1 ? "" : "s");
      std::printf(
          "plan registry: %d builds (%d decomp, %d spectral, %d resample, "
          "%d transport)  %d leases\n",
          report.registry.decomp_builds + report.registry.spectral_builds +
              report.registry.resample_builds +
              report.registry.transport_builds,
          report.registry.decomp_builds, report.registry.spectral_builds,
          report.registry.resample_builds, report.registry.transport_builds,
          report.registry.leases);
      std::printf(
          "%4s %5s %4s %6s %7s %8s %8s %8s %8s %8s %8s %17s\n", "job",
          "shard", "conv", "newton", "matvecs", "rel res", "min det",
          "solve s", "done at", "deadline", "attempts", "outcome");
      int counts[6] = {0, 0, 0, 0, 0, 0};
      for (const auto& s : report.summary) {
        std::printf(
            "%4llu %5d %4s %6d %7d %8.3f %8.3f %8.2f %8.2f %8s %8d %17s\n",
            static_cast<unsigned long long>(s.job_id), s.shard,
            s.converged ? "yes" : "no", s.newton_iters, s.matvecs,
            s.rel_residual, s.min_det, s.solve_seconds,
            s.completed_at_seconds, s.deadline_met ? "met" : "MISSED",
            s.attempts, core::to_string(s.outcome));
        ++counts[static_cast<int>(s.outcome)];
      }
      // One grep-stable line for CI: the terminal outcome census.
      std::printf(
          "batch outcomes: %d done, %d degraded, %d deadline-exceeded, "
          "%d poisoned\n",
          counts[static_cast<int>(core::JobOutcome::kDone)],
          counts[static_cast<int>(core::JobOutcome::kDegraded)],
          counts[static_cast<int>(core::JobOutcome::kDeadlineExceeded)],
          counts[static_cast<int>(core::JobOutcome::kPoisoned)]);
    }
  };
  try {
    mpisim::run_spmd(opt.ranks, body, spmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string parse_error;
  auto parsed = cli::parse_options(argc, argv, parse_error);
  if (!parsed) {
    std::fprintf(stderr, "error: %s\n", parse_error.c_str());
    return 1;
  }
  if (parsed->help) {
    cli::print_usage();
    return 0;
  }
  const cli::CliOptions opt = *parsed;

  mpisim::SpmdOptions spmd;
  spmd.fault_spec = opt.fault_spec;
  spmd.comm_timeout_ms = opt.comm_timeout_ms;
  spmd.verify_schedule = opt.verify_schedule;

  if (!opt.batch_file.empty()) {
    std::vector<cli::CliOptions> jobs;
    if (!read_job_file(opt.batch_file, opt, jobs)) return 1;
    return run_batch(opt, jobs, spmd);
  }

  int exit_code = 0;
  const auto body = [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, opt.dims);
    // One registry for the pyramid and the output transports: the fine
    // grid's plans are built once.
    const auto registry = std::make_shared<core::PlanRegistry>(decomp);
    core::RegistrationSolver solver(decomp, opt.reg, registry);
    const bool root = comm.is_root();

    // Build or load the image pair on the solver's spectral operators.
    grid::ScalarField rho_t, rho_r;
    std::string werror;
    if (!cli::build_workload(decomp, solver.ops(), opt, rho_t, rho_r,
                             werror)) {
      if (root) std::fprintf(stderr, "error: %s\n", werror.c_str());
      exit_code = 1;
      return;
    }

    // Solve: every run is a grid pyramid (one level by default), whose
    // coarsest level runs the beta continuation under --continuation.
    const core::MultilevelResult ml = core::run_multilevel_continuation(
        decomp, opt.reg, rho_t, rho_r, opt.multi, registry);
    const core::RegistrationResult& result = ml.fine;

    if (root) {
      for (const core::SolveSummary& s : ml.solves)
        std::printf(
            "solve %lldx%lldx%lld: beta %.1e  newton %d  matvecs %d  "
            "converged %s  rel res %.3f  min det %.3f  %.2f s\n",
            static_cast<long long>(s.dims[0]),
            static_cast<long long>(s.dims[1]),
            static_cast<long long>(s.dims[2]), s.beta, s.newton_iters,
            s.matvecs, s.converged ? "yes" : "no", s.rel_residual, s.min_det,
            s.solve_seconds);
      if (!ml.admissible)
        std::printf("warning: no beta stage met the min det bound; the run "
                    "went on at beta %.1e\n",
                    ml.final_beta);
      std::printf("grid %lldx%lldx%lld  ranks %d  beta %.1e  %s  %s\n",
                  static_cast<long long>(opt.dims[0]),
                  static_cast<long long>(opt.dims[1]),
                  static_cast<long long>(opt.dims[2]), opt.ranks,
                  ml.final_beta,
                  opt.reg.incompressible ? "incompressible" : "compressible",
                  opt.reg.gauss_newton ? "gauss-newton" : "full-newton");
      std::printf("newton its %d  matvecs %d  converged %s\n",
                  result.newton.iterations, result.newton.total_matvecs,
                  result.newton.converged ? "yes" : "no");
      std::printf("rel residual %.4f   det(grad y) in [%.4f, %.4f]\n",
                  result.rel_residual, result.min_det, result.max_det);
      std::printf("time to solution %.2f s  (fft %.2f+%.2f s, interp "
                  "%.2f+%.2f s comm+exec)\n",
                  result.time_to_solution,
                  result.timings.get(TimeKind::kFftComm),
                  result.timings.get(TimeKind::kFftExec),
                  result.timings.get(TimeKind::kInterpComm),
                  result.timings.get(TimeKind::kInterpExec));
    }

    // Optional outputs.
    if (!opt.out_prefix.empty()) {
      grid::ScalarField deformed, det;
      solver.deform_template(rho_t, result.velocity, deformed);
      solver.jacobian_field(result.velocity, det);
      const index_t n = decomp.local_real_size();
      grid::ScalarField residual(n);
      for (index_t i = 0; i < n; ++i)
        residual[i] = std::abs(deformed[i] - rho_r[i]);

      // Rank 0 writes; a failed write throws on every rank together.
      auto dump = [&](const grid::ScalarField& f, const char* name,
                      real_t lo, real_t hi) {
        auto full = grid::gather_to_root(decomp, f);
        imaging::root_io<std::runtime_error>(decomp.comm(), [&] {
          const std::string base = opt.out_prefix + "_" + name;
          imaging::write_raw_volume(base, opt.dims, full);
          imaging::write_pgm_slice(base + ".pgm", opt.dims, full,
                                   opt.dims[0] / 2, lo, hi);
        });
      };
      dump(deformed, "deformed", 0, 1);
      dump(residual, "residual", 0, 1);
      dump(det, "det", 0, 2);
      if (root)
        std::printf("wrote %s_{deformed,residual,det}.{raw,mhd,pgm}\n",
                    opt.out_prefix.c_str());
    }
  };
  try {
    mpisim::run_spmd(opt.ranks, body, spmd);
  } catch (const std::exception& e) {
    // Structured failure path: watchdog timeouts, integrity violations,
    // injected crashes and checkpoint errors all land here with their
    // diagnosis in what() instead of hanging the run.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  return exit_code;
}

#include "cli/cli_options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "grid/field_io.hpp"
#include "imaging/io.hpp"
#include "imaging/synthetic.hpp"

namespace diffreg::cli {

void print_usage() {
  std::printf(
      "diffreg — distributed-memory large deformation diffeomorphic 3D "
      "image registration (SC16 reproduction)\n\n"
      "usage: diffreg [options]\n"
      "  --grid N1,N2,N3      grid size (default 64,64,64)\n"
      "  --ranks P            simulated MPI ranks (default 2)\n"
      "  --workload W         synthetic | brain | spheres (default synthetic)\n"
      "  --template PATH      raw volume (with --reference; overrides workload)\n"
      "  --reference PATH     raw volume\n"
      "  --amplitude A        synthetic workload displacement amplitude\n"
      "                       (default 0.5); vary it per job line to build\n"
      "                       distinct pairs in a batch\n"
      "  --beta B             regularization weight (default 1e-2)\n"
      "  --reg h1|h2          regularization seminorm (default h2)\n"
      "  --nt N               semi-Lagrangian time steps (default 4)\n"
      "  --gtol T             relative gradient tolerance (default 1e-2)\n"
      "  --max-newton N       Newton iteration cap (default 50)\n"
      "  --incompressible     enforce div v = 0 (volume preserving map)\n"
      "  --precision P        double | mixed (default double); mixed ships\n"
      "                       every hot exchange as fp32 and runs the inner\n"
      "                       Krylov solve in single precision (outer Newton\n"
      "                       stays double — see README precision policy)\n"
      "  --full-newton        keep the full-Newton Hessian terms\n"
      "  --trilinear          trilinear instead of tricubic interpolation\n"
      "  --continuation       run beta continuation (start 1e-1 -> beta)\n"
      "  --levels N           N-level coarse-to-fine grid pyramid "
      "(default 1 = single level);\n"
      "                       with --continuation the coarsest level runs "
      "the beta schedule\n"
      "  --coarsest D         pyramid floor: no axis below D points "
      "(default 8)\n"
      "  --two-level          coarse-grid Hessian preconditioner for the "
      "PCG solves\n"
      "  --precond-iters N    inner CG sweeps of the coarse Hessian solve "
      "(default 5)\n"
      "  --out PREFIX         write deformed/residual/det volumes + slices\n"
      "  --guard M            on | off (default off); collective finite\n"
      "                       sweeps per Newton iterate plus line-search,\n"
      "                       PCG-breakdown and mixed-precision recovery\n"
      "  --comm-timeout-ms T  comm watchdog: blocking receives/barriers\n"
      "                       raise CommTimeoutError with a per-rank\n"
      "                       diagnosis after T ms (default 0 = off)\n"
      "  --fault-spec S       fault injection for robustness testing, e.g.\n"
      "                       \"seed=7,drop=0.01,delay_ms=5\" (see\n"
      "                       docs/FAULT_MODEL.md for the full grammar)\n"
      "  --verify-schedule M  on | off (default off); on cross-checks the\n"
      "                       collective schedule across ranks at every\n"
      "                       barrier/exchange and raises a structured\n"
      "                       ScheduleDivergenceError naming the first\n"
      "                       mismatching op instead of hanging (results\n"
      "                       stay bitwise identical — docs/ANALYSIS.md)\n"
      "  --checkpoint PATH    checkpoint file (default diffreg.ckpt)\n"
      "  --checkpoint-every N write a checkpoint every N accepted Newton\n"
      "                       iterates and at every level end\n"
      "  --resume PATH        warm-restart a killed run from a checkpoint\n"
      "  --batch FILE         registration service mode: run every job line\n"
      "                       in FILE through one shared plan registry\n"
      "                       (docs/SERVICE.md). A job line holds the same\n"
      "                       flags as the command line and inherits every\n"
      "                       flag it does not override; blank lines and\n"
      "                       # comments are skipped\n"
      "  --shards N           split the ranks into N equal shard\n"
      "                       communicators for --batch (default 0 =\n"
      "                       automatic; 1 = bitwise-reference mode)\n"
      "  --priority N         job-line flag: higher priority runs earlier\n"
      "  --deadline S         job-line flag: deadline in seconds on the\n"
      "                       batch clock; under --batch a late job is\n"
      "                       cancelled between Newton iterates (or, with\n"
      "                       --degrade on, re-admitted once with a cheaper\n"
      "                       configuration)\n"
      "  --retry-budget N     extra attempts a faulted batch job gets\n"
      "                       before it is marked poisoned (default 2)\n"
      "  --backoff-ms T       base of the deterministic exponential retry\n"
      "                       backoff, T * 2^(k-1) ms before retry k on the\n"
      "                       batch clock (default 0 = retry immediately)\n"
      "  --degrade M          on | off (default off); re-admit a job that\n"
      "                       missed its deadline ONCE with halved\n"
      "                       iteration caps (outcome 'degraded')\n"
      "  --batch-manifest P   persist per-job outcomes to manifest P and\n"
      "                       resume from it: completed jobs are skipped,\n"
      "                       in-flight jobs warm-start from their solver\n"
      "                       checkpoints (docs/FAULT_MODEL.md)\n"
      "  --verbose            per-iteration Newton log\n"
      "  --help               this message\n");
}

namespace {

bool parse_int3(const std::string& arg, Int3& out) {
  long long a = 0, b = 0, c = 0;
  if (std::sscanf(arg.c_str(), "%lld,%lld,%lld", &a, &b, &c) != 3)
    return false;
  if (a < 4 || b < 4 || c < 4) return false;
  out = {a, b, c};
  return true;
}

// Flags that configure the run as a whole (rank count, batch layout, the
// fault-tolerance runtime, the multilevel/continuation drivers and output
// dumping) make no sense inside a --batch job line: a job is one
// single-level solve on an already-chosen shard.
bool global_only_flag(const std::string& flag) {
  static const char* const kGlobal[] = {
      "--ranks",   "--batch",        "--shards",       "--fault-spec",
      "--comm-timeout-ms", "--verify-schedule", "--levels", "--coarsest",
      "--continuation", "--resume",   "--out",          "--help",
      "-h",        "--retry-budget", "--backoff-ms",   "--degrade",
      "--batch-manifest"};
  for (const char* g : kGlobal)
    if (flag == g) return true;
  return false;
}

/// Shared grammar for command lines and job-spec lines. Fills `opt`
/// in place (the caller seeds it with defaults) and reports the first
/// problem through `error`.
bool parse_tokens(const std::vector<std::string>& args, bool job_line,
                  CliOptions& opt, std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> const std::string* {
      return (i + 1 < args.size()) ? &args[++i] : nullptr;
    };
    auto missing = [&]() {
      error = "missing value for " + flag;
      return false;
    };
    if (job_line && global_only_flag(flag)) {
      error = "flag " + flag + " is global-only and not allowed in a job line";
      return false;
    }
    if (flag == "--help" || flag == "-h") {
      opt.help = true;
      return true;
    } else if (flag == "--grid") {
      const auto* v = next();
      if (!v) return missing();
      if (!parse_int3(*v, opt.dims)) {
        error = "bad --grid " + *v + " (want N1,N2,N3 with N >= 4)";
        return false;
      }
    } else if (flag == "--ranks") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.ranks = std::atoi(v->c_str())) < 1) {
        error = "bad --ranks " + *v;
        return false;
      }
    } else if (flag == "--workload") {
      const auto* v = next();
      if (!v) return missing();
      opt.workload = *v;
    } else if (flag == "--template") {
      const auto* v = next();
      if (!v) return missing();
      opt.template_path = *v;
      opt.workload = "files";
    } else if (flag == "--reference") {
      const auto* v = next();
      if (!v) return missing();
      opt.reference_path = *v;
      opt.workload = "files";
    } else if (flag == "--amplitude") {
      const auto* v = next();
      if (!v) return missing();
      opt.synthetic_amplitude = std::atof(v->c_str());
    } else if (flag == "--beta") {
      const auto* v = next();
      if (!v) return missing();
      opt.reg.beta = std::atof(v->c_str());
    } else if (flag == "--reg") {
      const auto* v = next();
      if (!v) return missing();
      if (*v == "h1")
        opt.reg.reg_type = core::RegType::kH1Seminorm;
      else if (*v == "h2")
        opt.reg.reg_type = core::RegType::kH2Seminorm;
      else {
        error = "--reg must be h1 or h2";
        return false;
      }
    } else if (flag == "--nt") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.reg.nt = std::atoi(v->c_str())) < 1) {
        error = "bad --nt " + *v;
        return false;
      }
    } else if (flag == "--gtol") {
      const auto* v = next();
      if (!v) return missing();
      opt.reg.gtol = std::atof(v->c_str());
    } else if (flag == "--max-newton") {
      const auto* v = next();
      if (!v) return missing();
      opt.reg.max_newton_iters = std::atoi(v->c_str());
    } else if (flag == "--incompressible") {
      opt.reg.incompressible = true;
    } else if (flag == "--precision") {
      const auto* v = next();
      if (!v) return missing();
      if (*v == "double")
        opt.reg.precision = core::Precision::kDouble;
      else if (*v == "mixed")
        opt.reg.precision = core::Precision::kMixed;
      else {
        error = "--precision must be double or mixed";
        return false;
      }
    } else if (flag == "--full-newton") {
      opt.reg.gauss_newton = false;
    } else if (flag == "--trilinear") {
      opt.reg.interp_method = interp::Method::kTrilinear;
    } else if (flag == "--continuation") {
      opt.continuation = true;
    } else if (flag == "--levels") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.multi.levels = std::atoi(v->c_str())) < 1) {
        error = "bad --levels " + *v;
        return false;
      }
      opt.multilevel = opt.multi.levels > 1;
    } else if (flag == "--coarsest") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.multi.coarsest_dim = std::atoll(v->c_str())) < 4) {
        error = "bad --coarsest " + *v;
        return false;
      }
    } else if (flag == "--two-level") {
      opt.reg.two_level_precond = true;
    } else if (flag == "--precond-iters") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.reg.precond_inner_iters = std::atoi(v->c_str())) < 1) {
        error = "bad --precond-iters " + *v;
        return false;
      }
    } else if (flag == "--out") {
      const auto* v = next();
      if (!v) return missing();
      opt.out_prefix = *v;
    } else if (flag == "--guard") {
      const auto* v = next();
      if (!v) return missing();
      if (*v == "on")
        opt.reg.guard = true;
      else if (*v == "off")
        opt.reg.guard = false;
      else {
        error = "--guard must be on or off";
        return false;
      }
    } else if (flag == "--comm-timeout-ms") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.comm_timeout_ms = std::atof(v->c_str())) < 0) {
        error = "bad --comm-timeout-ms " + *v;
        return false;
      }
    } else if (flag == "--fault-spec") {
      const auto* v = next();
      if (!v) return missing();
      opt.fault_spec = *v;
    } else if (flag == "--verify-schedule") {
      const auto* v = next();
      if (!v) return missing();
      if (*v == "on")
        opt.verify_schedule = true;
      else if (*v == "off")
        opt.verify_schedule = false;
      else {
        error = "--verify-schedule must be on or off";
        return false;
      }
    } else if (flag == "--checkpoint") {
      const auto* v = next();
      if (!v) return missing();
      opt.multi.checkpoint_path = *v;
    } else if (flag == "--checkpoint-every") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.multi.checkpoint_every = std::atoi(v->c_str())) < 1) {
        error = "bad --checkpoint-every " + *v;
        return false;
      }
    } else if (flag == "--resume") {
      const auto* v = next();
      if (!v) return missing();
      opt.multi.resume_path = *v;
    } else if (flag == "--batch") {
      const auto* v = next();
      if (!v) return missing();
      opt.batch_file = *v;
    } else if (flag == "--shards") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.shards = std::atoi(v->c_str())) < 0) {
        error = "bad --shards " + *v;
        return false;
      }
    } else if (flag == "--priority") {
      const auto* v = next();
      if (!v) return missing();
      opt.priority = std::atoi(v->c_str());
    } else if (flag == "--deadline") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.deadline = std::atof(v->c_str())) < 0) {
        error = "bad --deadline " + *v;
        return false;
      }
    } else if (flag == "--retry-budget") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.retry_budget = std::atoi(v->c_str())) < 0) {
        error = "bad --retry-budget " + *v;
        return false;
      }
    } else if (flag == "--backoff-ms") {
      const auto* v = next();
      if (!v) return missing();
      if ((opt.backoff_ms = std::atof(v->c_str())) < 0) {
        error = "bad --backoff-ms " + *v;
        return false;
      }
    } else if (flag == "--degrade") {
      const auto* v = next();
      if (!v) return missing();
      if (*v == "on")
        opt.degrade = true;
      else if (*v == "off")
        opt.degrade = false;
      else {
        error = "--degrade must be on or off";
        return false;
      }
    } else if (flag == "--batch-manifest") {
      const auto* v = next();
      if (!v) return missing();
      opt.batch_manifest = *v;
    } else if (flag == "--verbose") {
      opt.reg.verbose = true;
    } else {
      error = "unknown flag " + flag + " (try --help)";
      return false;
    }
  }
  if (opt.workload == "files" &&
      (opt.template_path.empty() || opt.reference_path.empty())) {
    error = "--template and --reference go together";
    return false;
  }
  // Checkpoint/restart of a standalone run goes through the multilevel
  // driver (a single level is both the coarsest and the finest), so the
  // flags imply it. A batch job checkpoints through its SolveRequest
  // instead, so job lines skip the implication.
  if (!job_line) {
    if (!opt.multi.checkpoint_path.empty() && opt.multi.checkpoint_every == 0)
      opt.multi.checkpoint_every = 1;
    if (opt.multi.checkpoint_every > 0 && opt.multi.checkpoint_path.empty())
      opt.multi.checkpoint_path = "diffreg.ckpt";
    if (opt.multi.checkpoint_every > 0 || !opt.multi.resume_path.empty()) {
      if (!opt.multilevel) opt.multi.levels = 1;
      opt.multilevel = true;
    }
  }
  return true;
}

}  // namespace

std::optional<CliOptions> parse_options(int argc, char** argv,
                                        std::string& error) {
  error.clear();
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions opt;
  if (!parse_tokens(args, /*job_line=*/false, opt, error)) return std::nullopt;
  return opt;
}

std::optional<CliOptions> parse_options(const std::string& job_spec,
                                        const CliOptions& defaults,
                                        std::string& error) {
  error.clear();
  std::vector<std::string> args;
  std::istringstream in(job_spec);
  for (std::string tok; in >> tok;) args.push_back(std::move(tok));
  CliOptions opt = defaults;
  if (!parse_tokens(args, /*job_line=*/true, opt, error)) return std::nullopt;
  return opt;
}

bool build_workload(grid::PencilDecomp& decomp, spectral::SpectralOps& ops,
                    const CliOptions& opt, grid::ScalarField& rho_t,
                    grid::ScalarField& rho_r, std::string& error) {
  const bool root = decomp.comm().is_root();
  if (opt.workload == "synthetic") {
    rho_t = imaging::synthetic_template(decomp);
    auto v = opt.reg.incompressible
                 ? imaging::synthetic_velocity_divfree(decomp,
                                                       opt.synthetic_amplitude)
                 : imaging::synthetic_velocity(decomp,
                                               opt.synthetic_amplitude);
    rho_r = imaging::make_reference(ops, rho_t, v, opt.reg.nt);
  } else if (opt.workload == "brain") {
    rho_r = imaging::brain_phantom(decomp, 1);
    rho_t = imaging::brain_phantom(decomp, 2);
  } else if (opt.workload == "spheres") {
    const real_t c = kTwoPi / 2;
    rho_t = imaging::sphere_phantom(decomp, {c, c, c}, 1.2);
    rho_r = imaging::sphere_phantom(decomp, {c + 0.4, c - 0.3, c}, 1.4);
  } else if (opt.workload == "files") {
    std::vector<real_t> full_t, full_r;
    if (root) {
      full_t = imaging::read_raw_volume(opt.template_path, opt.dims);
      full_r = imaging::read_raw_volume(opt.reference_path, opt.dims);
    }
    rho_t = grid::scatter_from_root(decomp, root
                                                ? std::span<const real_t>(full_t)
                                                : std::span<const real_t>());
    rho_r = grid::scatter_from_root(decomp, root
                                                ? std::span<const real_t>(full_r)
                                                : std::span<const real_t>());
  } else {
    error = "unknown workload " + opt.workload;
    return false;
  }
  return true;
}

}  // namespace diffreg::cli

#include "cli/cli_options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/batch.hpp"
#include "grid/field_io.hpp"
#include "imaging/io.hpp"
#include "imaging/synthetic.hpp"
#include "mpisim/communicator.hpp"

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
      "  --max-newton N       Newton iteration cap (default 50, at most\n"
      "                       1048576)\n"
      "  --incompressible     enforce div v = 0 (volume preserving map)\n"
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
      "                       sweeps per Newton iterate plus line-search\n"
      "                       and PCG-breakdown recovery\n"
      "  --comm-timeout-ms T  comm watchdog: blocking receives/barriers\n"
      "                       raise CommTimeoutError with a per-rank\n"
      "                       diagnosis after T ms (default 0 = off,\n"
      "                       at most 8.64e7 = one day)\n"
      "  --fault-spec S       fault injection for robustness testing, e.g.\n"
      "                       \"seed=7,drop=0.01,delay_ms=5\" (see\n"
      "                       docs/FAULT_MODEL.md for the full grammar)\n"
      "  --verify-schedule M  on | off (default off); on cross-checks the\n"
      "                       collective schedule across ranks at every\n"
      "                       barrier/exchange and raises a structured\n"
      "                       ScheduleDivergenceError naming the first\n"
      "                       mismatching op instead of hanging (results\n"
      "                       stay bitwise identical — docs/ANALYSIS.md)\n"
      "  --checkpoint PATH    checkpoint file (default diffreg.ckpt; with\n"
      "                       --batch, a job line names its own)\n"
      "  --checkpoint-every N write a checkpoint every N accepted Newton\n"
      "                       iterates and at every level end (with\n"
      "                       --batch, only to a job-line --checkpoint or\n"
      "                       --batch-manifest file)\n"
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
      "  --priority N         batch job priority: higher runs earlier\n"
      "  --deadline S         batch job deadline in seconds on the batch\n"
      "                       clock; a late job is cancelled at admission\n"
      "                       or between Newton iterates (or, with\n"
      "                       --degrade on, re-admitted once with a cheaper\n"
      "                       configuration)\n"
      "  --retry-budget N     extra attempts a faulted batch job gets\n"
      "                       before it is marked poisoned (default 2, at\n"
      "                       most 1000)\n"
      "  --backoff-ms T       base of the deterministic exponential retry\n"
      "                       backoff, min(T * 2^(k-1) ms, one day) before\n"
      "                       retry k on the batch clock (default 0 = retry\n"
      "                       immediately, at most 8.64e7 = one day)\n"
      "  --degrade M          on | off (default off); re-admit a job that\n"
      "                       missed its deadline ONCE with halved\n"
      "                       iteration caps (outcome 'degraded')\n"
      "  --batch-manifest P   persist per-job outcomes to manifest P and\n"
      "                       resume from it: completed jobs are skipped,\n"
      "                       in-flight jobs warm-start from their solver\n"
      "                       checkpoints, P.jobN.ckpt unless the job line\n"
      "                       names one (docs/FAULT_MODEL.md)\n"
      "  --verbose            per-iteration Newton log\n"
      "  --help               this message\n\n"
      "Without --batch only: --levels --coarsest --continuation --resume\n"
      "--out --checkpoint. With --batch only: --shards --priority --deadline\n"
      "--retry-budget --backoff-ms --degrade --batch-manifest.\n");
}

namespace {

constexpr double kNoMin = -std::numeric_limits<double>::infinity();
constexpr double kNoMax = std::numeric_limits<double>::infinity();

/// Reads the value `text` of numeric flag `flag` into `out`. The whole token
/// must parse (std::from_chars: no junk suffix, no truncation, integers
/// stay integers), a floating value must be finite, and the value must be
/// >= `min` (> `min` when `strict`) and <= `max`. On failure `out` is
/// untouched and `error` names the flag.
template <typename T>
bool parse_number(const std::string& flag, const std::string& text, T& out,
                  std::string& error, double min = kNoMin,
                  double max = kNoMax, bool strict = false) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  bool ok = ec == std::errc() && ptr == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  const auto v = static_cast<double>(value);
  if (ok && v >= min && !(strict && v == min) && v <= max) {
    out = value;
    return true;
  }
  std::string want =
      std::is_floating_point_v<T> ? "a finite number" : "an integer";
  char bound[32];
  if (min != kNoMin) {
    std::snprintf(bound, sizeof bound, " %s %.10g", strict ? ">" : ">=", min);
    want += bound;
  }
  if (max != kNoMax) {
    std::snprintf(bound, sizeof bound, " and <= %.10g", max);
    want += bound;
  }
  error = "bad " + flag + " " + text + " (want " + want + ")";
  return false;
}

/// N1,N2,N3 with every extent an integer >= 4.
bool parse_int3(const std::string& flag, const std::string& arg, Int3& out,
                std::string& error) {
  Int3 dims;
  std::size_t begin = 0;
  for (int d = 0; d < 3; ++d) {
    std::size_t end = d < 2 ? arg.find(',', begin) : arg.size();
    if (end == std::string::npos) end = begin;  // missing comma: no extent
    const std::string extent = arg.substr(begin, end - begin);
    if (!parse_number(flag, extent, dims.x[d], error, /*min=*/4)) {
      error = "bad " + flag + " " + arg + " (want N1,N2,N3 with N >= 4)";
      return false;
    }
    begin = end + 1;
  }
  out = dims;
  return true;
}

// A job line is one single-level solve on an already-chosen shard, so it
// rejects the flags that configure the run as a whole. A command line
// rejects the flags only the other kind of run reads (a --batch job line
// still names its own --checkpoint).
constexpr std::string_view kGlobalOnly[] = {
    "--ranks", "--batch", "--shards", "--fault-spec", "--comm-timeout-ms",
    "--verify-schedule", "--levels", "--coarsest", "--continuation",
    "--resume", "--out", "--help", "-h", "--retry-budget", "--backoff-ms",
    "--degrade", "--batch-manifest"};
constexpr std::string_view kStandaloneOnly[] = {
    "--levels", "--coarsest", "--continuation", "--resume", "--out",
    "--checkpoint"};
constexpr std::string_view kBatchOnly[] = {
    "--shards", "--priority", "--deadline", "--retry-budget", "--backoff-ms",
    "--degrade", "--batch-manifest"};

template <std::size_t N>
bool is_one_of(const std::string& flag, const std::string_view (&flags)[N]) {
  return std::find(flags, flags + N, flag) != flags + N;
}

/// Shared grammar for command lines and job-spec lines. Fills `opt`
/// in place (the caller seeds it with defaults) and reports the first
/// problem through `error`.
bool parse_tokens(const std::vector<std::string>& args, bool job_line,
                  CliOptions& opt, std::string& error) {
  std::vector<std::string> flags;  // in order, without their values
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    flags.push_back(flag);
    auto next = [&]() -> const std::string* {
      return (i + 1 < args.size()) ? &args[++i] : nullptr;
    };
    auto missing = [&]() {
      error = "missing value for " + flag;
      return false;
    };
    // The flag's value as a number of out's type, >= min (> min if strict)
    // and <= max.
    auto number = [&](auto& out, double min = kNoMin, double max = kNoMax,
                      bool strict = false) {
      const auto* v = next();
      if (!v) return missing();
      return parse_number(flag, *v, out, error, min, max, strict);
    };
    if (job_line && is_one_of(flag, kGlobalOnly)) {
      error = "flag " + flag + " is global-only and not allowed in a job line";
      return false;
    }
    if (flag == "--help" || flag == "-h") {
      opt.help = true;
      return true;
    } else if (flag == "--grid") {
      const auto* v = next();
      if (!v) return missing();
      if (!parse_int3(flag, *v, opt.dims, error)) return false;
    } else if (flag == "--ranks") {
      if (!number(opt.ranks, 1)) return false;
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
      if (!number(opt.synthetic_amplitude)) return false;
    } else if (flag == "--beta") {
      if (!number(opt.reg.beta, 0, kNoMax, /*strict=*/true)) return false;
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
      if (!number(opt.reg.nt, 1)) return false;
    } else if (flag == "--gtol") {
      if (!number(opt.reg.gtol, 0, kNoMax, /*strict=*/true)) return false;
    } else if (flag == "--max-newton") {
      if (!number(opt.reg.max_newton_iters, 0, core::kMaxNewtonIters))
        return false;
    } else if (flag == "--incompressible") {
      opt.reg.incompressible = true;
    } else if (flag == "--full-newton") {
      opt.reg.gauss_newton = false;
    } else if (flag == "--trilinear") {
      opt.reg.interp_method = interp::Method::kTrilinear;
    } else if (flag == "--continuation") {
      opt.multi.coarse_beta_cont =
          core::ContinuationOptions{.beta_start = 1e-1};
    } else if (flag == "--levels") {
      if (!number(opt.multi.levels, 1)) return false;
    } else if (flag == "--coarsest") {
      if (!number(opt.multi.coarsest_dim, 4)) return false;
    } else if (flag == "--two-level") {
      opt.reg.two_level_precond = true;
    } else if (flag == "--precond-iters") {
      if (!number(opt.reg.precond_inner_iters, 1)) return false;
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
      if (!number(opt.comm_timeout_ms, 0, mpisim::kMaxCommTimeoutMs))
        return false;
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
      if (!number(opt.multi.checkpoint_every, 1)) return false;
    } else if (flag == "--resume") {
      const auto* v = next();
      if (!v) return missing();
      opt.multi.resume_path = *v;
    } else if (flag == "--batch") {
      const auto* v = next();
      if (!v) return missing();
      opt.batch_file = *v;
    } else if (flag == "--shards") {
      if (!number(opt.shards, 0)) return false;
    } else if (flag == "--priority") {
      if (!number(opt.priority)) return false;
    } else if (flag == "--deadline") {
      if (!number(opt.deadline, 0)) return false;
    } else if (flag == "--retry-budget") {
      if (!number(opt.retry_budget, 0, core::kMaxRetryBudget)) return false;
    } else if (flag == "--backoff-ms") {
      if (!number(opt.backoff_ms, 0, mpisim::kMaxCommTimeoutMs)) return false;
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
  // --continuation runs down to --beta, wherever the two flags stand.
  if (opt.multi.coarse_beta_cont)
    opt.multi.coarse_beta_cont->beta_target = opt.reg.beta;
  // A batch job checkpoints only to a path: its own --checkpoint, or the
  // per-job file --batch-manifest names.
  if (job_line && opt.multi.checkpoint_every > 0 &&
      opt.multi.checkpoint_path.empty() && opt.batch_manifest.empty()) {
    error =
        "--checkpoint-every needs a job-line --checkpoint or --batch-manifest";
    return false;
  }
  if (job_line) return true;
  const bool batch = !opt.batch_file.empty();
  for (const std::string& flag : flags) {
    if (batch ? is_one_of(flag, kStandaloneOnly)
              : is_one_of(flag, kBatchOnly)) {
      error = "flag " + flag +
              (batch ? " is not allowed with --batch" : " needs --batch");
      return false;
    }
  }
  // Either checkpoint flag alone checkpoints a standalone run. A batch job
  // checkpoints through its BatchJobSpec, which keeps them as written.
  if (!batch) {
    if (!opt.multi.checkpoint_path.empty() && opt.multi.checkpoint_every == 0)
      opt.multi.checkpoint_every = 1;
    if (opt.multi.checkpoint_every > 0 && opt.multi.checkpoint_path.empty())
      opt.multi.checkpoint_path = "diffreg.ckpt";
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
    // Only the root reads. It broadcasts the outcome before any scatter, so
    // a missing or short file fails every rank with the same error instead
    // of leaving the others blocked in scatter_from_root.
    std::vector<real_t> full_t, full_r;
    if (root) {
      try {
        full_t = imaging::read_raw_volume(opt.template_path, opt.dims);
        full_r = imaging::read_raw_volume(opt.reference_path, opt.dims);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    decomp.comm().set_time_kind(TimeKind::kOther);
    decomp.comm().broadcast(error, 0);
    if (!error.empty()) return false;
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

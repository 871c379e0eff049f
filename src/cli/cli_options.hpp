// Reusable CLI option parsing and workload construction, shared by the
// diffreg driver (src/cli/main.cpp) and the --batch job-file reader: one
// grammar for command lines AND job-spec lines, so every solver flag a user
// can type is also a per-job override in jobs.txt (docs/SERVICE.md).
#pragma once

#include <optional>
#include <string>

#include "core/continuation.hpp"
#include "core/options.hpp"
#include "spectral/operators.hpp"

namespace diffreg::cli {

struct CliOptions {
  Int3 dims{64, 64, 64};
  int ranks = 2;
  std::string workload = "synthetic";  // synthetic | brain | spheres | files
  std::string template_path, reference_path;
  std::string out_prefix;
  core::RegistrationOptions reg;
  /// Every standalone run is a grid pyramid: --levels (default 1), and
  /// --continuation sets coarse_beta_cont (1e-1 down to --beta).
  core::MultilevelOptions multi;
  /// Displacement amplitude of the synthetic workload's ground-truth
  /// velocity (--amplitude; job lines vary it to make distinct pairs).
  double synthetic_amplitude = 0.5;
  // Fault-tolerant runtime (docs/FAULT_MODEL.md).
  std::string fault_spec;       // --fault-spec, forwarded to run_spmd
  double comm_timeout_ms = 0;   // --comm-timeout-ms, 0 = watchdog off
  // Collective-schedule verifier (docs/ANALYSIS.md).
  bool verify_schedule = false;  // --verify-schedule, forwarded to run_spmd
  // Batch service mode (docs/SERVICE.md).
  std::string batch_file;  // --batch jobs.txt; empty = single-job mode
  int shards = 0;          // --shards N; 0 = automatic
  int priority = 0;        // --priority (higher runs earlier)
  double deadline = 0;     // --deadline seconds on the batch clock (0 = none)
  // Batch fault isolation (docs/FAULT_MODEL.md).
  int retry_budget = 2;        // --retry-budget N extra attempts per job
  double backoff_ms = 0;       // --backoff-ms T base of exponential backoff
  bool degrade = false;        // --degrade on: one cheaper re-admission
  std::string batch_manifest;  // --batch-manifest PATH: checkpoint/resume
  bool help = false;       // --help seen: print usage, exit 0
};

void print_usage();

/// Parses a full command line. On error returns nullopt with a one-line
/// message in `error` (never prints), also for a flag the chosen run does
/// not read (a standalone-only flag with --batch, a batch-only flag
/// without it). `--help` returns an options object with `help` set.
std::optional<CliOptions> parse_options(int argc, char** argv,
                                        std::string& error);

/// Parses one whitespace-tokenized job-spec line from a --batch file, on
/// top of `defaults` (the command-line options): a job inherits every flag
/// it does not override. Global/batch-only flags (--ranks, --batch,
/// --shards, --fault-spec, --comm-timeout-ms, --help) are rejected in job
/// lines, and so is a --checkpoint-every (its own or inherited) with no
/// checkpoint path: no job-line --checkpoint and no --batch-manifest.
std::optional<CliOptions> parse_options(const std::string& job_spec,
                                        const CliOptions& defaults,
                                        std::string& error);

/// Builds or loads the image pair of `opt` on `decomp` (collective over
/// the decomposition's communicator — under --batch that is the shard the
/// job landed on). `ops` must live on `decomp`. Returns false with `error`
/// set for an unknown workload, and on every rank for an input file the
/// root cannot read in full.
bool build_workload(grid::PencilDecomp& decomp, spectral::SpectralOps& ops,
                    const CliOptions& opt, grid::ScalarField& rho_t,
                    grid::ScalarField& rho_r, std::string& error);

}  // namespace diffreg::cli

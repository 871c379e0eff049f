// CLI parser tests: the one-grammar contract of cli/cli_options.hpp — a
// full command line and a --batch job-spec line share the same flag set,
// job lines inherit the command-line defaults and may override any per-job
// flag, and every malformed input produces a one-line error (never a
// print/exit from the library).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli_options.hpp"
#include "core/batch.hpp"
#include "mpisim/communicator.hpp"
#include "mutate.hpp"

namespace diffreg::cli {
namespace {

std::optional<CliOptions> parse_argv(std::vector<std::string> args,
                                     std::string& error) {
  std::vector<char*> argv;
  static std::string prog = "diffreg";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  return parse_options(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(CliParse, DefaultsSurviveAnEmptyCommandLine) {
  std::string error;
  auto opt = parse_argv({}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->dims[0], 64);
  EXPECT_EQ(opt->ranks, 2);
  EXPECT_EQ(opt->workload, "synthetic");
  EXPECT_TRUE(opt->batch_file.empty());
  EXPECT_FALSE(opt->help);
}

TEST(CliParse, FullCommandLineRoundTrips) {
  std::string error;
  auto opt = parse_argv({"--grid", "32,16,16", "--ranks", "4", "--beta",
                         "1e-3", "--nt", "8", "--amplitude", "0.7",
                         "--batch", "jobs.txt", "--shards", "2",
                         "--incompressible"},
                        error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->dims[0], 32);
  EXPECT_EQ(opt->dims[1], 16);
  EXPECT_EQ(opt->dims[2], 16);
  EXPECT_EQ(opt->ranks, 4);
  EXPECT_DOUBLE_EQ(opt->reg.beta, 1e-3);
  EXPECT_EQ(opt->reg.nt, 8);
  EXPECT_DOUBLE_EQ(opt->synthetic_amplitude, 0.7);
  EXPECT_EQ(opt->batch_file, "jobs.txt");
  EXPECT_EQ(opt->shards, 2);
  EXPECT_TRUE(opt->reg.incompressible);
}

TEST(CliParse, HelpShortCircuits) {
  std::string error;
  auto opt = parse_argv({"--help"}, error);
  ASSERT_TRUE(opt.has_value());
  EXPECT_TRUE(opt->help);
}

TEST(CliParse, ErrorsAreOneLineAndNameTheFlag) {
  std::string error;
  EXPECT_FALSE(parse_argv({"--no-such-flag"}, error).has_value());
  EXPECT_NE(error.find("--no-such-flag"), std::string::npos);

  EXPECT_FALSE(parse_argv({"--grid"}, error).has_value());
  EXPECT_NE(error.find("--grid"), std::string::npos);

  EXPECT_FALSE(parse_argv({"--grid", "banana"}, error).has_value());
  EXPECT_NE(error.find("--grid"), std::string::npos);

  // Axes below the 4-point floor are rejected even when well-formed.
  EXPECT_FALSE(parse_argv({"--grid", "2,2,2"}, error).has_value());

  EXPECT_FALSE(parse_argv({"--ranks", "0"}, error).has_value());
  EXPECT_NE(error.find("--ranks"), std::string::npos);

  // files workload needs both image paths.
  EXPECT_FALSE(parse_argv({"--workload", "files"}, error).has_value());
  EXPECT_FALSE(
      parse_argv({"--workload", "files", "--template", "t.bin"}, error)
          .has_value());
}

TEST(CliParse, JobLineInheritsAndOverridesDefaults) {
  std::string error;
  auto defaults = parse_argv({"--grid", "32,32,32", "--beta", "1e-3",
                              "--nt", "8"},
                             error);
  ASSERT_TRUE(defaults.has_value()) << error;

  // An empty job line is exactly the defaults.
  auto job = parse_options("", *defaults, error);
  ASSERT_TRUE(job.has_value()) << error;
  EXPECT_EQ(job->dims[0], 32);
  EXPECT_DOUBLE_EQ(job->reg.beta, 1e-3);
  EXPECT_EQ(job->reg.nt, 8);

  // Overrides replace only what they name.
  job = parse_options("--grid 16,16,16 --amplitude 0.35 --priority 5 "
                      "--deadline 2.5",
                      *defaults, error);
  ASSERT_TRUE(job.has_value()) << error;
  EXPECT_EQ(job->dims[0], 16);
  EXPECT_DOUBLE_EQ(job->reg.beta, 1e-3);  // inherited
  EXPECT_EQ(job->reg.nt, 8);              // inherited
  EXPECT_DOUBLE_EQ(job->synthetic_amplitude, 0.35);
  EXPECT_EQ(job->priority, 5);
  EXPECT_DOUBLE_EQ(job->deadline, 2.5);
}

TEST(CliParse, JobLineRejectsGlobalOnlyFlags) {
  std::string error;
  auto defaults = parse_argv({}, error);
  ASSERT_TRUE(defaults.has_value());
  for (const char* flag :
       {"--ranks 4", "--batch other.txt", "--shards 2", "--fault-spec x",
        "--comm-timeout-ms 5", "--help"}) {
    error.clear();
    EXPECT_FALSE(parse_options(flag, *defaults, error).has_value())
        << flag << " should be rejected in a job line";
    EXPECT_NE(error.find("global-only"), std::string::npos) << flag;
  }
}

TEST(CliParse, JobLineMalformedValuesError) {
  std::string error;
  auto defaults = parse_argv({}, error);
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(parse_options("--grid", *defaults, error).has_value());
  EXPECT_NE(error.find("--grid"), std::string::npos);
  EXPECT_FALSE(parse_options("--nt notanumber", *defaults, error)
                   .has_value());
  EXPECT_NE(error.find("--nt"), std::string::npos);
  EXPECT_FALSE(
      parse_options("--unknown-flag 3", *defaults, error).has_value());
  EXPECT_NE(error.find("--unknown-flag"), std::string::npos);
  // The retired --overlap flag is an unknown flag like any other.
  EXPECT_FALSE(parse_options("--overlap on", *defaults, error).has_value());
  EXPECT_NE(error.find("unknown flag --overlap"), std::string::npos);
}

TEST(CliParse, RegularizerValuesAreValidated) {
  std::string error;
  auto opt = parse_argv({"--reg", "h1"}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->reg.reg_type, core::RegType::kH1Seminorm);
  EXPECT_FALSE(parse_argv({"--reg", "h3"}, error).has_value());
  EXPECT_NE(error.find("--reg"), std::string::npos);
}

TEST(CliParse, MalformedNumbersAreRejectedNamingTheFlag) {
  // Numeric values parse as a whole token: a junk suffix, a non-number, a
  // non-finite value and an out-of-range value are each an error naming
  // the flag, on a command line and on a job line alike (atoi/atof used to
  // truncate them to a value and run).
  std::string error;
  auto defaults = parse_argv({}, error);
  ASSERT_TRUE(defaults.has_value()) << error;
  const std::pair<std::string, std::string> cases[] = {
      {"--nt", "4.5"},              // junk suffix on an integer
      {"--grid", "16,16,16x"},      // junk suffix on the last extent
      {"--beta", "abc"},            // not a number
      {"--gtol", "nan"},            // non-finite
      {"--amplitude", "inf"},       // non-finite
      {"--beta", "-1"},             // out of range (beta > 0)
      {"--gtol", "0"},              // out of range (gtol > 0)
      {"--max-newton", "-1"},       // out of range (>= 0)
      {"--max-newton", "1048577"},  // above the iterate cap (2^20)
  };
  for (const auto& [flag, value] : cases) {
    error.clear();
    EXPECT_FALSE(parse_argv({flag, value}, error).has_value())
        << flag << " " << value;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
    const std::string line = flag + " " + value;
    error.clear();
    EXPECT_FALSE(parse_options(line, *defaults, error).has_value()) << line;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
  // --ranks is command-line only.
  EXPECT_FALSE(parse_argv({"--ranks", "2x"}, error).has_value());
  EXPECT_NE(error.find("--ranks"), std::string::npos) << error;
  // Bounds are inclusive where they always were.
  auto opt = parse_argv(
      {"--max-newton", "0", "--deadline", "0", "--batch", "jobs.txt"}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->reg.max_newton_iters, 0);
  opt = parse_argv({"--max-newton", "1048576"}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->reg.max_newton_iters, core::kMaxNewtonIters);
}

// --comm-timeout-ms: a watchdog deadline is converted to a clock duration,
// so it is held to [0, mpisim::kMaxCommTimeoutMs] (one day). 1e300 used to
// overflow the conversion into an instant spurious CommTimeoutError.
TEST(CliParse, CommTimeoutAboveTheCapIsRejected) {
  std::string error;
  EXPECT_FALSE(parse_argv({"--comm-timeout-ms", "1e300"}, error).has_value());
  EXPECT_NE(error.find("--comm-timeout-ms"), std::string::npos) << error;
  EXPECT_FALSE(
      parse_argv({"--comm-timeout-ms", "8.6400001e7"}, error).has_value());
  auto opt = parse_argv({"--comm-timeout-ms", "8.64e7"}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->comm_timeout_ms, mpisim::kMaxCommTimeoutMs);
}

TEST(CliParse, CommTimeoutJunkIsRejected) {
  std::string error;
  for (const char* junk : {"junk", "5ms", ""}) {
    error.clear();
    EXPECT_FALSE(parse_argv({"--comm-timeout-ms", junk}, error).has_value())
        << junk;
    EXPECT_NE(error.find("--comm-timeout-ms"), std::string::npos) << error;
  }
}

TEST(CliParse, CommTimeoutInfinityIsRejected) {
  std::string error;
  for (const char* value : {"inf", "-inf", "nan"}) {
    error.clear();
    EXPECT_FALSE(parse_argv({"--comm-timeout-ms", value}, error).has_value())
        << value;
    EXPECT_NE(error.find("--comm-timeout-ms"), std::string::npos) << error;
  }
}

// The batch retry settings have caps: a backoff above one day used to hang
// the batch (1e300 ms before a retry), and a retry budget near INT_MAX
// overflowed the round count.
TEST(CliParse, RetrySettingsAboveTheirCapsAreRejected) {
  std::string error;
  const std::pair<std::string, std::string> cases[] = {
      {"--backoff-ms", "1e300"},
      {"--backoff-ms", "inf"},
      {"--backoff-ms", "8.6400001e7"},
      {"--retry-budget", "2147483647"},
      {"--retry-budget", "1001"},
  };
  for (const auto& [flag, value] : cases) {
    error.clear();
    EXPECT_FALSE(parse_argv({"--batch", "jobs.txt", flag, value}, error)
                     .has_value())
        << flag << " " << value;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
  auto opt = parse_argv({"--batch", "jobs.txt", "--backoff-ms", "8.64e7",
                         "--retry-budget", "1000"},
                        error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->backoff_ms, mpisim::kMaxCommTimeoutMs);
  EXPECT_EQ(opt->retry_budget, core::kMaxRetryBudget);
}

// A command line accepts a flag only when its kind of run reads it, and
// names the flag it refuses.
TEST(CliParse, BatchRunRejectsStandaloneOnlyFlags) {
  std::string error;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--levels", "2"}, {"--coarsest", "8"},
        {"--continuation"}, {"--resume", "r.ckpt"}, {"--out", "pref"},
        {"--checkpoint", "shared.ckpt"}}) {
    std::vector<std::string> line = args;
    line.insert(line.end(), {"--batch", "jobs.txt"});
    error.clear();
    EXPECT_FALSE(parse_argv(line, error).has_value()) << args[0];
    EXPECT_NE(error.find("flag " + args[0] + " is not allowed with --batch"),
              std::string::npos)
        << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    // The standalone run reads it.
    EXPECT_TRUE(parse_argv(args, error).has_value()) << error;
  }
  // A job line still names its own checkpoint.
  auto defaults = parse_argv({"--batch", "jobs.txt"}, error);
  ASSERT_TRUE(defaults.has_value()) << error;
  auto job = parse_options("--checkpoint j1.ckpt", *defaults, error);
  ASSERT_TRUE(job.has_value()) << error;
  EXPECT_EQ(job->multi.checkpoint_path, "j1.ckpt");
}

TEST(CliParse, StandaloneRunRejectsBatchOnlyFlags) {
  std::string error;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--shards", "2"}, {"--priority", "3"},
        {"--deadline", "1e-9"}, {"--retry-budget", "5"},
        {"--backoff-ms", "10"}, {"--degrade", "on"},
        {"--batch-manifest", "m.json"}}) {
    error.clear();
    EXPECT_FALSE(parse_argv(args, error).has_value()) << args[0];
    EXPECT_NE(error.find("flag " + args[0] + " needs --batch"),
              std::string::npos)
        << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    // The batch run reads it, wherever --batch stands.
    std::vector<std::string> line = args;
    line.insert(line.end(), {"--batch", "jobs.txt"});
    EXPECT_TRUE(parse_argv(line, error).has_value()) << error;
  }
}

// The diffreg.ckpt default checkpoints a standalone run only: under
// --batch a job checkpoints to its own file, never to one shared by all.
TEST(CliParse, CheckpointDefaultIsStandaloneOnly) {
  std::string error;
  auto plain = parse_argv({"--checkpoint-every", "2"}, error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_EQ(plain->multi.checkpoint_path, "diffreg.ckpt");
  auto batch = parse_argv({"--batch", "jobs.txt", "--batch-manifest",
                           "m.json", "--checkpoint-every", "2"},
                          error);
  ASSERT_TRUE(batch.has_value()) << error;
  EXPECT_TRUE(batch->multi.checkpoint_path.empty());
  EXPECT_EQ(batch->multi.checkpoint_every, 2);
}

// A batch job checkpoints only to a path: a --checkpoint-every, its own or
// inherited from the command line, with neither a job-line --checkpoint
// nor --batch-manifest is a one-line error naming the flag.
TEST(CliParse, BatchCheckpointEveryNeedsAPath) {
  std::string error;
  auto plain = parse_argv({"--batch", "jobs.txt"}, error);
  ASSERT_TRUE(plain.has_value()) << error;
  auto every = parse_argv({"--batch", "jobs.txt", "--checkpoint-every", "2"},
                          error);
  ASSERT_TRUE(every.has_value()) << error;
  for (const auto& [defaults, line] :
       {std::pair{*plain, "--checkpoint-every 2"}, {*every, ""},
        {*every, "--amplitude 0.4"}}) {
    error.clear();
    EXPECT_FALSE(parse_options(line, defaults, error).has_value()) << line;
    EXPECT_NE(error.find("--checkpoint-every needs a job-line --checkpoint "
                         "or --batch-manifest"),
              std::string::npos)
        << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }
  // Either path source makes the same lines parse.
  auto job = parse_options("--checkpoint j1.ckpt", *every, error);
  ASSERT_TRUE(job.has_value()) << error;
  EXPECT_EQ(job->multi.checkpoint_every, 2);
  auto manifest = parse_argv({"--batch", "jobs.txt", "--batch-manifest",
                              "m.json", "--checkpoint-every", "2"},
                             error);
  ASSERT_TRUE(manifest.has_value()) << error;
  job = parse_options("", *manifest, error);
  ASSERT_TRUE(job.has_value()) << error;
  EXPECT_TRUE(job->multi.checkpoint_path.empty());
  EXPECT_EQ(job->multi.checkpoint_every, 2);
  // A job line without the flag needs no path.
  EXPECT_TRUE(parse_options("--amplitude 0.4", *plain, error).has_value())
      << error;
}

// Every standalone run is a pyramid: one level unless --levels says more,
// and --continuation runs 1e-1 down to --beta wherever --beta stands.
TEST(CliParse, ContinuationRunsDownToTheBetaOfTheRun) {
  std::string error;
  auto plain = parse_argv({}, error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_EQ(plain->multi.levels, 1);
  EXPECT_FALSE(plain->multi.coarse_beta_cont.has_value());
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--continuation", "--beta", "1e-3"},
        std::vector<std::string>{"--beta", "1e-3", "--continuation"}}) {
    auto opt = parse_argv(args, error);
    ASSERT_TRUE(opt.has_value()) << error;
    ASSERT_TRUE(opt->multi.coarse_beta_cont.has_value());
    EXPECT_EQ(opt->multi.coarse_beta_cont->beta_start, 1e-1);
    EXPECT_EQ(opt->multi.coarse_beta_cont->beta_target, 1e-3);
    EXPECT_EQ(opt->multi.levels, 1);
  }
}

/// True when `opt` lies within every documented bound of the grammar.
bool within_bounds(const CliOptions& opt) {
  const auto finite = [](double x) { return std::isfinite(x); };
  bool ok = opt.ranks >= 1 && opt.shards >= 0 && opt.reg.nt >= 1 &&
            opt.reg.beta > 0 && finite(opt.reg.beta) && opt.reg.gtol > 0 &&
            finite(opt.reg.gtol) && opt.reg.max_newton_iters >= 0 &&
            opt.reg.max_newton_iters <= core::kMaxNewtonIters &&
            opt.reg.precond_inner_iters >= 1 && opt.multi.levels >= 1 &&
            opt.multi.coarsest_dim >= 4 && opt.multi.checkpoint_every >= 0 &&
            finite(opt.synthetic_amplitude) && opt.deadline >= 0 &&
            finite(opt.deadline) && opt.comm_timeout_ms >= 0 &&
            opt.comm_timeout_ms <= mpisim::kMaxCommTimeoutMs &&
            opt.backoff_ms >= 0 &&
            opt.backoff_ms <= mpisim::kMaxCommTimeoutMs &&
            opt.retry_budget >= 0 && opt.retry_budget <= core::kMaxRetryBudget;
  for (int d = 0; d < 3; ++d) ok = ok && opt.dims[d] >= 4;
  if (opt.multi.coarse_beta_cont)
    ok = ok && opt.multi.coarse_beta_cont->beta_target == opt.reg.beta;
  return ok;
}

/// True when a parsed command line holds only settings its kind of run
/// reads: the batch's settings at their defaults without --batch, and the
/// standalone pyramid, resume and output settings at theirs with it.
bool reads_only_its_run(const CliOptions& opt) {
  const CliOptions none;
  if (opt.batch_file.empty())
    return opt.shards == none.shards && opt.priority == none.priority &&
           opt.deadline == none.deadline &&
           opt.retry_budget == none.retry_budget &&
           opt.backoff_ms == none.backoff_ms && opt.degrade == none.degrade &&
           opt.batch_manifest.empty();
  return opt.multi.levels == none.multi.levels &&
         opt.multi.coarsest_dim == none.multi.coarsest_dim &&
         !opt.multi.coarse_beta_cont && opt.multi.resume_path.empty() &&
         opt.out_prefix.empty() && opt.multi.checkpoint_path.empty();
}

TEST(CliParse, SeededMutantsParseWithinBoundsOrFailWithOneLine) {
  // Seeded mutation fuzzing (tests/mutate.hpp) of a standalone command line
  // and a --batch command line, each setting every numeric flag its run
  // accepts, and of a job line: each mutant parses into options within
  // every documented bound (a command line holding only its run's
  // settings), or is rejected with a one-line error.
  const std::string command_lines[] = {
      "--grid 32,24,16 --ranks 4 --amplitude 0.4 --beta 1e-3 --nt 8 "
      "--gtol 1e-2 --max-newton 20 --levels 3 --coarsest 8 "
      "--precond-iters 5 --comm-timeout-ms 400 --checkpoint-every 2 "
      "--continuation",
      "--batch jobs.txt --grid 32,24,16 --ranks 4 --amplitude 0.4 "
      "--beta 1e-3 --nt 8 --gtol 1e-2 --max-newton 20 --precond-iters 5 "
      "--comm-timeout-ms 400 --checkpoint-every 2 --shards 2 --priority 3 "
      "--deadline 2.5 --retry-budget 4 --backoff-ms 10"};
  const std::string job_line =
      "--grid 16,16,16 --amplitude 0.35 --beta 1e-3 --nt 8 --gtol 1e-2 "
      "--max-newton 20 --precond-iters 5 --priority 5 --deadline 2.5 "
      "--checkpoint-every 2 --checkpoint job.ckpt";
  std::string error;
  const auto defaults = parse_argv({}, error);
  ASSERT_TRUE(defaults.has_value()) << error;
  const auto check = [](const std::optional<CliOptions>& opt,
                        const std::string& error, const std::string& mutant) {
    if (opt)
      EXPECT_TRUE(within_bounds(*opt)) << mutant;
    else
      EXPECT_TRUE(!error.empty() && error.find('\n') == std::string::npos)
          << mutant << " -> " << error;
    return opt.has_value();
  };
  std::mt19937_64 rng(29);
  int parsed = 0, rejected = 0;
  for (const std::string& command_line : command_lines) {
    int parsed_here = 0;
    for (int k = 0; k < 2500; ++k) {
      const std::string mutant = fuzz::mutate(command_line, rng);
      std::vector<std::string> args;
      std::istringstream in(mutant);
      for (std::string tok; in >> tok;) args.push_back(tok);
      error.clear();
      const auto opt = parse_argv(args, error);
      if (opt) {
        EXPECT_TRUE(reads_only_its_run(*opt)) << mutant;
      }
      ++(check(opt, error, mutant) ? parsed_here : rejected);
    }
    EXPECT_GT(parsed_here, 0) << command_line;
    parsed += parsed_here;
  }
  for (int k = 0; k < 2000; ++k) {
    const std::string mutant = fuzz::mutate(job_line, rng);
    error.clear();
    ++(check(parse_options(mutant, *defaults, error), error, mutant)
           ? parsed
           : rejected);
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CliWorkload, UnreadableInputFailsEveryRank) {
  // Only the root reads --template/--reference. A missing or short file
  // must fail every rank with the root's error before the scatter, instead
  // of leaving the other ranks blocked in it. The watchdog turns such a
  // hang into a timeout error, and so into a test failure.
  const std::string dir = ::testing::TempDir();
  const std::string missing = dir + "diffreg_cli_no_such_volume";
  const std::string short_file = dir + "diffreg_cli_short_volume";
  {
    std::ofstream out(short_file + ".raw", std::ios::binary);
    const std::vector<real_t> few(10, 1.0);
    out.write(reinterpret_cast<const char*>(few.data()),
              static_cast<std::streamsize>(few.size() * sizeof(real_t)));
  }
  const std::pair<std::string, std::string> cases[] = {
      {missing, "cannot open"}, {short_file, "truncated"}};
  mpisim::SpmdOptions spmd;
  spmd.comm_timeout_ms = 5000;
  for (int p : {2, 4}) {
    for (const auto& [path, expected] : cases) {
      CliOptions opt;
      opt.workload = "files";
      opt.dims = {8, 8, 8};
      opt.template_path = path;
      opt.reference_path = path;
      std::vector<std::string> errors(p);
      std::vector<int> returned(p, -1);
      mpisim::run_spmd(
          p,
          [&](mpisim::Communicator& comm) {
            grid::PencilDecomp decomp(comm, opt.dims);
            spectral::SpectralOps ops(decomp);
            grid::ScalarField rho_t, rho_r;
            std::string& error = errors[comm.rank()];
            try {
              returned[comm.rank()] =
                  build_workload(decomp, ops, opt, rho_t, rho_r, error);
            } catch (const std::exception& e) {
              error = e.what();
            }
          },
          spmd);
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(returned[r], 0) << "p=" << p << " rank " << r;
        EXPECT_NE(errors[r].find(expected), std::string::npos)
            << "p=" << p << " rank " << r << ": " << errors[r];
        EXPECT_EQ(errors[r], errors[0]) << "p=" << p << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace diffreg::cli

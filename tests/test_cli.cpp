// CLI parser tests: the one-grammar contract of cli/cli_options.hpp — a
// full command line and a --batch job-spec line share the same flag set,
// job lines inherit the command-line defaults and may override any per-job
// flag, and every malformed input produces a one-line error (never a
// print/exit from the library).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli_options.hpp"
#include "mpisim/communicator.hpp"

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
      {"--nt", "4.5"},          // junk suffix on an integer
      {"--grid", "16,16,16x"},  // junk suffix on the last extent
      {"--beta", "abc"},        // not a number
      {"--gtol", "nan"},        // non-finite
      {"--amplitude", "inf"},   // non-finite
      {"--beta", "-1"},         // out of range (beta > 0)
      {"--gtol", "0"},          // out of range (gtol > 0)
      {"--max-newton", "-1"},   // out of range (>= 0)
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
  auto opt = parse_argv({"--max-newton", "0", "--deadline", "0"}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->reg.max_newton_iters, 0);
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

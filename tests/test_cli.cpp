// CLI parser tests: the one-grammar contract of cli/cli_options.hpp — a
// full command line and a --batch job-spec line share the same flag set,
// job lines inherit the command-line defaults and may override any per-job
// flag, and every malformed input produces a one-line error (never a
// print/exit from the library).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/cli_options.hpp"

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
                         "1e-3", "--nt", "8", "--precision", "mixed",
                         "--amplitude", "0.7", "--batch", "jobs.txt",
                         "--shards", "2", "--incompressible"},
                        error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->dims[0], 32);
  EXPECT_EQ(opt->dims[1], 16);
  EXPECT_EQ(opt->dims[2], 16);
  EXPECT_EQ(opt->ranks, 4);
  EXPECT_DOUBLE_EQ(opt->reg.beta, 1e-3);
  EXPECT_EQ(opt->reg.nt, 8);
  EXPECT_EQ(opt->reg.precision, core::Precision::kMixed);
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

TEST(CliParse, PrecisionAndRegularizerValuesAreValidated) {
  std::string error;
  auto opt = parse_argv({"--precision", "mixed", "--reg", "h1"}, error);
  ASSERT_TRUE(opt.has_value()) << error;
  EXPECT_EQ(opt->reg.reg_type, core::RegType::kH1Seminorm);
  EXPECT_FALSE(parse_argv({"--precision", "f16"}, error).has_value());
  EXPECT_NE(error.find("--precision"), std::string::npos);
  EXPECT_FALSE(parse_argv({"--reg", "h3"}, error).has_value());
  EXPECT_NE(error.find("--reg"), std::string::npos);
}

}  // namespace
}  // namespace diffreg::cli

// Batch service tests: PlanRegistry lease/reuse semantics (same-shape jobs
// build each plan family exactly once, mixed shapes get distinct entries),
// the transport pool, SolveRequest/solve() vs the legacy
// run() entrypoint, BatchSolver-vs-sequential bitwise identity at p = 1, 2
// and 4, two-level jobs sharing their coarse-grid plans, priority/deadline
// semantics, per-job deformed templates, every-rank failure on an error
// that is not a job fault, and the batch manifest (round trip, resume, its
// number rules and a seeded mutation fuzzer).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_manifest.hpp"
#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"
#include "mutate.hpp"

namespace diffreg::core {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;
using grid::VectorField;

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

bool same_bits(const VectorField& a, const VectorField& b) {
  return same_bits(a.comp[0], b.comp[0]) && same_bits(a.comp[1], b.comp[1]) &&
         same_bits(a.comp[2], b.comp[2]);
}

void make_pair(PencilDecomp& decomp, real_t amplitude, int nt,
               ScalarField& rho_t, ScalarField& rho_r) {
  spectral::SpectralOps ops(decomp);
  rho_t = imaging::synthetic_template(decomp);
  auto v = imaging::synthetic_velocity(decomp, amplitude);
  rho_r = imaging::make_reference(ops, rho_t, v, nt);
}

RegistrationOptions small_options() {
  RegistrationOptions opt;
  opt.nt = 2;
  opt.max_newton_iters = 2;
  return opt;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// A version-1 manifest holding the given job lines.
std::string manifest_text(const std::string& jobs) {
  return "{\n  \"version\": 1,\n  \"jobs\": [\n    " + jobs + "\n  ]\n}\n";
}

/// Loads a manifest of the one job line `job` on two ranks and expects
/// BatchManifestError on both.
void expect_rejected_on_every_rank(const std::string& job) {
  const std::string path = "test_batch_manifest_bad_number.json";
  write_text(path, manifest_text(job));
  std::atomic<int> threw{0};
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    try {
      load_manifest(comm, path);
    } catch (const BatchManifestError&) {
      ++threw;
    }
  });
  std::remove(path.c_str());
  EXPECT_EQ(threw.load(), 2) << job;
}

// --------------------------------------------------------------------------
// PlanRegistry keying and reuse.

TEST(PlanRegistry, SameShapeLeasesBuildEachPlanOnce) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    auto d1 = reg.decomp({16, 16, 16});
    auto d2 = reg.decomp({16, 16, 16});
    EXPECT_EQ(d1.get(), d2.get());
    EXPECT_EQ(reg.stats().decomp_builds, 1);
    EXPECT_EQ(reg.stats().leases, 2);

    auto s1 = reg.spectral({16, 16, 16});
    auto s2 = reg.spectral({16, 16, 16});
    EXPECT_EQ(s1.get(), s2.get());
    EXPECT_EQ(reg.stats().spectral_builds, 1);
    // A spectral lease nests a decomp lease, so leases exceed builds.
    EXPECT_GT(reg.stats().leases, reg.plan_build_count());
  });
}

TEST(PlanRegistry, MixedShapesGetDistinctEntries) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    auto a = reg.decomp({16, 16, 16});
    auto b = reg.decomp({20, 16, 16});
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(reg.stats().decomp_builds, 2);
  });
}

TEST(PlanRegistry, TransportPoolReusesReleasedInstances) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    semilag::TransportConfig tc;
    tc.nt = 2;
    auto t1 = reg.acquire_transport({16, 16, 16}, tc);
    auto* raw1 = t1.get();
    reg.release_transport({16, 16, 16}, tc, std::move(t1));
    auto t2 = reg.acquire_transport({16, 16, 16}, tc);
    EXPECT_EQ(raw1, t2.get());
    EXPECT_EQ(reg.stats().transport_builds, 1);
    // A second concurrent checkout needs a second instance.
    auto t3 = reg.acquire_transport({16, 16, 16}, tc);
    EXPECT_NE(t2.get(), t3.get());
    EXPECT_EQ(reg.stats().transport_builds, 2);
    reg.release_transport({16, 16, 16}, tc, std::move(t2));
    reg.release_transport({16, 16, 16}, tc, std::move(t3));
  });
}

// --------------------------------------------------------------------------
// SolveRequest as the one entrypoint.

TEST(SolveRequest, MatchesLegacyRunBitwise) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    ScalarField rho_t, rho_r;
    const RegistrationOptions opt = small_options();
    make_pair(decomp, 0.5, opt.nt, rho_t, rho_r);

    RegistrationSolver legacy(decomp, opt);
    auto ref = legacy.run(rho_t, rho_r);

    RegistrationSolver solver(decomp, opt);
    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.options = opt;
    req.job_id = 42;
    auto rep = solver.solve(req);
    // The second solve checks the first one's transport back out of the
    // solver's private registry pool.
    auto again = solver.solve(req);

    EXPECT_TRUE(same_bits(ref.velocity, rep.velocity));
    EXPECT_TRUE(same_bits(rep.velocity, again.velocity));
    EXPECT_EQ(ref.newton.iterations, rep.newton.iterations);
    EXPECT_EQ(rep.job_id, 42u);
  });
}

TEST(SolveRequest, RegistryBackedSolverMatchesStandaloneBitwise) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    ScalarField rho_t, rho_r;
    const RegistrationOptions opt = small_options();
    PencilDecomp standalone_decomp(comm, {16, 16, 16});
    make_pair(standalone_decomp, 0.5, opt.nt, rho_t, rho_r);
    RegistrationSolver standalone(standalone_decomp, opt);
    auto ref = standalone.run(rho_t, rho_r);

    auto reg = std::make_shared<PlanRegistry>(comm);
    auto decomp = reg->decomp({16, 16, 16});
    RegistrationSolver pooled(*decomp, opt, reg);
    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.options = opt;
    auto rep = pooled.solve(req);

    EXPECT_TRUE(same_bits(ref.velocity, rep.velocity));
    EXPECT_GE(reg->stats().leases, 2);
  });
}

// --------------------------------------------------------------------------
// BatchSolver vs sequential: bitwise identity in the shards=1 mode.

void expect_batch_matches_sequential(int ranks, bool two_level = false) {
  mpisim::run_spmd(ranks, [&](mpisim::Communicator& comm) {
    const Int3 dims{16, 16, 16};
    RegistrationOptions opt = small_options();
    opt.two_level_precond = two_level;
    const std::vector<real_t> amps{0.30, 0.35, 0.40};

    // Sequential reference: fresh solver and plans per job.
    std::vector<VectorField> ref;
    for (real_t amp : amps) {
      PencilDecomp decomp(comm, dims);
      ScalarField rho_t, rho_r;
      make_pair(decomp, amp, opt.nt, rho_t, rho_r);
      RegistrationSolver solver(decomp, opt);
      ref.push_back(solver.run(rho_t, rho_r).velocity);
    }

    BatchSolver batch(comm);
    for (std::size_t j = 0; j < amps.size(); ++j) {
      BatchJobSpec spec;
      spec.dims = dims;
      spec.request.options = opt;
      const real_t amp = amps[j];
      const int nt = opt.nt;
      spec.make_inputs = [amp, nt](PencilDecomp& d, ScalarField& t,
                                   ScalarField& r) {
        make_pair(d, amp, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;  // the bitwise-reference mode
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.reports.size(), amps.size());
    for (std::size_t j = 0; j < amps.size(); ++j) {
      EXPECT_TRUE(same_bits(ref[j], rep.reports[j].velocity))
          << "job " << j << " diverged from its standalone solve at p="
          << ranks;
      EXPECT_EQ(rep.reports[j].coarse_matvecs > 0, two_level) << "job " << j;
    }
    // All jobs share one plan set per grid: the fine 16^3 grid and, for
    // two-level jobs, the 8^3 coarse grid the preconditioner leases with
    // its two transfer plans.
    const int grids = two_level ? 2 : 1;
    EXPECT_EQ(rep.registry.decomp_builds, grids);
    EXPECT_EQ(rep.registry.spectral_builds, grids);
    EXPECT_EQ(rep.registry.resample_builds, two_level ? 2 : 0);
    EXPECT_EQ(rep.registry.transport_builds, grids);
  });
}

TEST(BatchSolver, MatchesSequentialBitwiseP1) {
  expect_batch_matches_sequential(1);
}
TEST(BatchSolver, MatchesSequentialBitwiseP2) {
  expect_batch_matches_sequential(2);
}
TEST(BatchSolver, MatchesSequentialBitwiseP4) {
  expect_batch_matches_sequential(4);
}
TEST(BatchSolver, TwoLevelJobsLeaseCoarsePlansOnce) {
  expect_batch_matches_sequential(2, /*two_level=*/true);
}

TEST(BatchSolver, MixedShapesShareNothingButSolve) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    for (const Int3& dims : {Int3{16, 16, 16}, Int3{20, 16, 16}}) {
      BatchJobSpec spec;
      spec.dims = dims;
      spec.request.options = opt;
      const int nt = opt.nt;
      spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t,
                              ScalarField& r) {
        make_pair(d, 0.4, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;
    auto rep = batch.run_all(bopt);
    ASSERT_EQ(rep.summary.size(), 2u);
    EXPECT_TRUE(rep.summary[0].converged || rep.summary[0].newton_iters > 0);
    EXPECT_EQ(rep.registry.decomp_builds, 2);
    EXPECT_EQ(rep.registry.spectral_builds, 2);
  });
}

TEST(BatchSolver, PriorityOrdersExecution) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    const int priorities[4] = {0, 5, 0, 5};
    for (int j = 0; j < 4; ++j) {
      BatchJobSpec spec;
      spec.dims = {16, 16, 16};
      spec.request.options = opt;
      spec.priority = priorities[j];
      const int nt = opt.nt;
      spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t,
                              ScalarField& r) {
        make_pair(d, 0.4, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;
    auto rep = batch.run_all(bopt);
    ASSERT_EQ(rep.summary.size(), 4u);
    // Priority-5 jobs (ids 2 and 4) finish before every priority-0 job.
    const auto done = [&](int j) { return rep.summary[j].completed_at_seconds; };
    EXPECT_LT(done(1), done(0));
    EXPECT_LT(done(1), done(2));
    EXPECT_LT(done(3), done(0));
    EXPECT_LT(done(3), done(2));
    // FIFO within a class.
    EXPECT_LT(done(1), done(3));
    EXPECT_LT(done(0), done(2));
  });
}

TEST(BatchSolver, InvalidConfigurationsThrow) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    BatchJobSpec bad_dims;
    bad_dims.dims = {0, 16, 16};
    EXPECT_THROW(batch.submit(std::move(bad_dims)), std::invalid_argument);
    BatchJobSpec no_inputs;
    no_inputs.dims = {16, 16, 16};  // no input factory
    EXPECT_THROW(batch.submit(std::move(no_inputs)), std::invalid_argument);

    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    const int nt = opt.nt;
    spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(spec));
    BatchOptions bopt;
    bopt.shards = 3;  // does not divide p=2
    EXPECT_THROW(batch.run_all(bopt), std::invalid_argument);
  });
}

// A backoff of 1e300 ms used to hang a faulted batch, and a retry budget
// near INT_MAX to overflow the round count: run_all refuses both, on every
// rank, before any job builds its inputs.
TEST(BatchSolver, RetrySettingsOutOfRangeThrowOnEveryRankBeforeAnyJob) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<int, double> cases[] = {
      // {retry_budget, backoff_ms}
      {2147483647, 0},
      {kMaxRetryBudget + 1, 0},
      {-1, 0},
      {2, 1e300},
      {2, inf},
      {2, nan},
      {2, -1},
  };
  for (const auto& [budget, backoff] : cases) {
    std::atomic<int> threw{0}, built{0};
    mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
      BatchSolver batch(comm);
      BatchJobSpec spec;
      spec.dims = {8, 8, 8};
      spec.request.options = small_options();
      spec.make_inputs = [&built](PencilDecomp& d, ScalarField& t,
                                  ScalarField& r) {
        ++built;
        make_pair(d, 0.4, 2, t, r);
      };
      batch.submit(std::move(spec));
      BatchOptions bopt;
      bopt.retry_budget = budget;
      bopt.backoff_ms = backoff;
      try {
        batch.run_all(bopt);
      } catch (const std::invalid_argument&) {
        ++threw;
      }
    });
    EXPECT_EQ(threw.load(), 2) << budget << " " << backoff;
    EXPECT_EQ(built.load(), 0) << budget << " " << backoff;
  }
}

// Two jobs writing one checkpoint would warm-start each other on resume, so
// run_all refuses them on every rank before any job builds its inputs. A
// job's path is its spec's, else its manifest entry's; a job the manifest
// restores as final never runs, so it shares its path with no one.
TEST(BatchSolver, SharedCheckpointPathThrowsOnEveryRankBeforeAnyJob) {
  const std::string manifest = "test_batch_shared_ckpt.json";
  const std::string ckpt = "test_batch_shared.ckpt";
  // {second job's own path, its manifest outcome ("": no manifest entry)}
  const std::pair<std::string, std::string> cases[] = {
      {ckpt, ""}, {"", "retrying"}, {"", "done"}};
  for (const auto& [second_path, second_outcome] : cases) {
    std::atomic<int> threw{0}, built{0};
    mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
      if (comm.rank() == 0) std::remove(manifest.c_str());
      comm.barrier();
      BatchOptions bopt;
      bopt.shards = 1;
      if (!second_outcome.empty()) {
        BatchManifestEntry e;
        e.job_id = 12;
        e.outcome = second_outcome;
        e.attempts = 1;
        e.checkpoint_path = ckpt;
        update_manifest(comm, manifest, {e});
        bopt.manifest_path = manifest;
      }
      BatchSolver batch(comm);
      for (std::uint64_t id : {11, 12}) {
        BatchJobSpec spec;
        spec.dims = {16, 16, 16};
        spec.request.options = small_options();
        spec.request.job_id = id;
        spec.checkpoint_path = id == 11 ? ckpt : second_path;
        spec.make_inputs = [&built](PencilDecomp& d, ScalarField& t,
                                    ScalarField& r) {
          ++built;
          make_pair(d, 0.4, 2, t, r);
        };
        batch.submit(std::move(spec));
      }
      try {
        batch.run_all(bopt);
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("jobs 11 and 12"), std::string::npos) << what;
        EXPECT_NE(what.find(ckpt), std::string::npos) << what;
        ++threw;
      }
      comm.barrier();
      if (comm.rank() == 0) {
        std::remove(manifest.c_str());
        std::remove(ckpt.c_str());
      }
    });
    const bool shared = second_outcome != "done";
    EXPECT_EQ(threw.load(), shared ? 2 : 0) << second_outcome;
    EXPECT_EQ(built.load() == 0, shared) << second_outcome;
  }
}

// --------------------------------------------------------------------------
// Deformed templates: the batch runs the per-job deform_template path.

TEST(BatchSolver, DeformedTemplatesMatchPerJobBitwise) {
  // The third job shares the grid of the first two but not their nt: its
  // template must be deformed with its own transport, not with the
  // transport of the first job placed on that grid.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const Int3 dims{16, 16, 16};
    const std::vector<real_t> amps{0.30, 0.45, 0.40};
    const std::vector<int> nts{2, 2, 4};
    const auto options_for = [&](std::size_t j) {
      RegistrationOptions opt = small_options();
      opt.nt = nts[j];
      return opt;
    };

    // Per-job reference: solve, then deform_template.
    std::vector<ScalarField> ref;
    std::vector<VectorField> velocities;
    for (std::size_t j = 0; j < amps.size(); ++j) {
      const RegistrationOptions opt = options_for(j);
      PencilDecomp decomp(comm, dims);
      ScalarField rho_t, rho_r;
      make_pair(decomp, amps[j], opt.nt, rho_t, rho_r);
      RegistrationSolver solver(decomp, opt);
      auto res = solver.run(rho_t, rho_r);
      ScalarField deformed;
      solver.deform_template(rho_t, res.velocity, deformed);
      ref.push_back(std::move(deformed));
      velocities.push_back(std::move(res.velocity));
    }

    BatchSolver batch(comm);
    for (std::size_t j = 0; j < amps.size(); ++j) {
      BatchJobSpec spec;
      spec.dims = dims;
      spec.request.options = options_for(j);
      const real_t amp = amps[j];
      const int nt = nts[j];
      spec.make_inputs = [amp, nt](PencilDecomp& d, ScalarField& t,
                                   ScalarField& r) {
        make_pair(d, amp, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;
    bopt.want_deformed = true;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.deformed.size(), amps.size());
    for (std::size_t j = 0; j < amps.size(); ++j) {
      EXPECT_TRUE(same_bits(velocities[j], rep.reports[j].velocity));
      EXPECT_TRUE(same_bits(ref[j], rep.deformed[j])) << "job " << j;
    }
  });
}

TEST(BatchSolver, NonJobErrorOnOneShardFailsEveryRank) {
  // An error that is not a job fault (here: an input factory that throws on
  // every rank of shard 0) must fail every rank with its message, not leave
  // shard 1 waiting in the round sync. The watchdog turns such a wait into
  // a CommTimeoutError, which the message check below rejects.
  mpisim::SpmdOptions spmd;
  spmd.comm_timeout_ms = 5000;
  const std::string message = "cannot open nosuch.raw";
  std::atomic<int> matched{0};
  EXPECT_THROW(
      mpisim::run_spmd(
          4,
          [&](mpisim::Communicator& comm) {
            const RegistrationOptions opt = small_options();
            BatchSolver batch(comm);
            for (int j = 0; j < 2; ++j) {
              BatchJobSpec spec;
              spec.dims = {16, 16, 16};
              spec.request.options = opt;
              const int nt = opt.nt;
              spec.make_inputs = [j, nt, &message](PencilDecomp& d,
                                                   ScalarField& t,
                                                   ScalarField& r) {
                if (j == 0) throw std::runtime_error(message);
                make_pair(d, 0.4, nt, t, r);
              };
              batch.submit(std::move(spec));
            }
            BatchOptions bopt;
            bopt.shards = 2;
            try {
              batch.run_all(bopt);
            } catch (const std::exception& e) {
              if (e.what() == message) ++matched;
              throw;
            }
          },
          spmd),
      std::runtime_error);
  EXPECT_EQ(matched.load(), 4);
}

// --------------------------------------------------------------------------
// Deadlines: a job past its deadline is cancelled at admission or between
// Newton iterates, or re-admitted once on the degrade configuration.

TEST(BatchSolver, EnforcedDeadlineCancelsAtAdmission) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    BatchJobSpec late;
    late.dims = {16, 16, 16};
    late.request.options = opt;
    late.deadline_seconds = 1e-9;  // already passed at admission
    const int nt = opt.nt;
    late.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(late));

    BatchJobSpec fine;
    fine.dims = {16, 16, 16};
    fine.request.options = opt;
    fine.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.35, nt, t, r);
    };
    batch.submit(std::move(fine));

    BatchOptions bopt;
    bopt.shards = 1;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 2u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDeadlineExceeded);
    EXPECT_EQ(rep.summary[0].newton_iters, 0);  // no solve was spent on it
    EXPECT_FALSE(rep.summary[0].deadline_met);
    EXPECT_GT(rep.summary[0].completed_at_seconds, 0.0);
    EXPECT_EQ(rep.summary[1].outcome, JobOutcome::kDone);
    EXPECT_TRUE(rep.summary[1].deadline_met);
    // The cancelled job produced no report.
    ASSERT_EQ(rep.reports.size(), 1u);
    EXPECT_EQ(rep.reports[0].job_id, rep.summary[1].job_id);
  });
}

TEST(BatchSolver, EnforcedDeadlineCancelsBetweenNewtonIterates) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    // Admission is comfortably inside the budget; the first Newton iterate
    // then burns past it (the caller hook sleeps, chained BEFORE the
    // lateness vote), so the cancellation fires mid-solve.
    spec.deadline_seconds = 0.5;
    spec.request.options.iterate_hook = [](const NewtonIterateInfo&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    };
    const int nt = opt.nt;
    spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(spec));

    BatchOptions bopt;
    bopt.shards = 1;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 1u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDeadlineExceeded);
    EXPECT_EQ(rep.summary[0].attempts, 1);
    EXPECT_FALSE(rep.summary[0].deadline_met);
    EXPECT_GE(rep.summary[0].completed_at_seconds, 0.5);
    EXPECT_TRUE(rep.reports.empty());
  });
}

TEST(BatchSolver, DegradeReadmitsACancelledJobOnce) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    bool slept = false;
    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    spec.deadline_seconds = 0.5;
    // First attempt: the hook burns the budget once, the lateness vote
    // cancels. The degraded re-admission runs the same hook without the
    // sleep and without enforcement, and must complete.
    spec.request.options.iterate_hook = [&slept](const NewtonIterateInfo&) {
      if (slept) return;
      slept = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    };
    const int nt = opt.nt;
    spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(spec));

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.degrade = true;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 1u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDegraded);
    EXPECT_EQ(rep.summary[0].attempts, 2);
    EXPECT_FALSE(rep.summary[0].deadline_met);  // judged vs admission
    // The degrade ladder halves max_newton_iters (2 -> 1): the job ran,
    // but on the cheaper configuration.
    EXPECT_GT(rep.summary[0].newton_iters, 0);
    EXPECT_LE(rep.summary[0].newton_iters, 1);
    ASSERT_EQ(rep.reports.size(), 1u);
  });
}

// --------------------------------------------------------------------------
// Batch manifests: persistence round-trip and resume semantics.

TEST(BatchManifest, FileRoundTripPreservesEveryField) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    const std::string path = "test_batch_manifest_roundtrip.json";
    std::remove(path.c_str());
    EXPECT_TRUE(load_manifest(comm, path).empty());  // missing: first run

    std::vector<BatchManifestEntry> entries(2);
    entries[0].job_id = 7;
    entries[0].outcome = "done";
    entries[0].attempts = 2;
    entries[0].completed_at_seconds = 1.25;
    entries[0].deadline_met = false;
    entries[0].checkpoint_path = "state.json.job7.ckpt";
    entries[1].job_id = 9;
    entries[1].outcome = "retrying";
    entries[1].attempts = 1;
    update_manifest(comm, path, entries);

    const auto back = load_manifest(comm, path);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].job_id, 7u);
    EXPECT_EQ(back[0].outcome, "done");
    EXPECT_EQ(back[0].attempts, 2);
    EXPECT_DOUBLE_EQ(back[0].completed_at_seconds, 1.25);
    EXPECT_FALSE(back[0].deadline_met);
    EXPECT_EQ(back[0].checkpoint_path, "state.json.job7.ckpt");
    EXPECT_EQ(back[1].job_id, 9u);
    EXPECT_EQ(back[1].outcome, "retrying");
    EXPECT_TRUE(back[1].deadline_met);

    // Corruption is a structured error, not a silent re-run.
    write_text(path, "this is not a manifest\n");
    EXPECT_THROW(load_manifest(comm, path), BatchManifestError);
    std::remove(path.c_str());
  });
}

// A manifest number that is not a value of its field is malformed: casting
// it would be undefined, and a negative id would wrap to a huge one. Every
// rank of load_manifest throws.
TEST(BatchManifest, RejectsOutOfRangeJobId) {
  expect_rejected_on_every_rank(R"({"job_id": 1e300, "outcome": "done"})");
}

TEST(BatchManifest, RejectsOutOfRangeAttempts) {
  expect_rejected_on_every_rank(
      R"({"job_id": 3, "outcome": "done", "attempts": 1e20})");
}

TEST(BatchManifest, RejectsNegativeJobId) {
  expect_rejected_on_every_rank(R"({"job_id": -5, "outcome": "done"})");
}

TEST(BatchManifest, SeededMutantsLoadOrThrowOnEveryRank) {
  // Seeded mutation fuzzing of the manifest (tests/mutate.hpp), loaded on
  // two ranks with the watchdog armed: every mutant loads to the same
  // entries on both ranks or throws BatchManifestError on both, with no
  // other exception and no hang.
  const std::string path = "test_batch_manifest_fuzz.json";
  const std::string valid = manifest_text(
      R"({"job_id": 7, "outcome": "done", "attempts": 2, )"
      R"("completed_at_seconds": 1.25, "deadline_met": false, )"
      R"("checkpoint": "state.json.job7.ckpt"},)"
      "\n    "
      R"({"job_id": 9, "outcome": "retrying", "attempts": 1, )"
      R"("completed_at_seconds": 0, "deadline_met": true, "checkpoint": ""})");
  mpisim::SpmdOptions opts;
  opts.comm_timeout_ms = 10000;
  int loaded = 0, rejected = 0;
  mpisim::run_spmd(
      2,
      [&](mpisim::Communicator& comm) {
        std::mt19937_64 rng(26);  // the same mutants on both ranks
        for (int k = 0; k < 2000; ++k) {
          const std::string mutant = fuzz::mutate(valid, rng);
          if (comm.rank() == 0) write_text(path, mutant);
          comm.barrier();
          index_t outcome = -1;  // -1: rejected, else the entry count
          try {
            const auto entries = load_manifest(comm, path);
            outcome = static_cast<index_t>(entries.size());
            for (const auto& e : entries)
              EXPECT_TRUE(std::isfinite(e.completed_at_seconds));
          } catch (const BatchManifestError&) {
          }
          const auto all = comm.allgather(outcome);
          ASSERT_EQ(all[0], all[1]) << mutant;
          if (comm.rank() == 0) ++(outcome < 0 ? rejected : loaded);
        }
      },
      opts);
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(BatchManifest, ResumeSkipsCompletedJobsWithZeroPlanWork) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const std::string path = "test_batch_manifest_resume.json";
    if (comm.rank() == 0) std::remove(path.c_str());
    comm.barrier();

    const RegistrationOptions opt = small_options();
    const std::vector<real_t> amps{0.30, 0.40};
    auto submit_jobs = [&](BatchSolver& batch) {
      for (std::size_t j = 0; j < amps.size(); ++j) {
        BatchJobSpec spec;
        spec.dims = {16, 16, 16};
        spec.request.options = opt;
        spec.request.job_id = 100 + j;  // stable ids: the resume match key
        const real_t amp = amps[j];
        const int nt = opt.nt;
        spec.make_inputs = [amp, nt](PencilDecomp& d, ScalarField& t,
                                     ScalarField& r) {
          make_pair(d, amp, nt, t, r);
        };
        batch.submit(std::move(spec));
      }
    };

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.manifest_path = path;

    BatchSolver first(comm);
    submit_jobs(first);
    auto rep1 = first.run_all(bopt);
    ASSERT_EQ(rep1.summary.size(), amps.size());
    for (const auto& s : rep1.summary)
      EXPECT_EQ(s.outcome, JobOutcome::kDone);

    // Second launch (fresh solver = fresh registries, as after a kill):
    // every job is final in the manifest, so nothing runs and no plan is
    // built or leased.
    BatchSolver second(comm);
    submit_jobs(second);
    auto rep2 = second.run_all(bopt);
    ASSERT_EQ(rep2.summary.size(), amps.size());
    for (std::size_t j = 0; j < amps.size(); ++j) {
      EXPECT_EQ(rep2.summary[j].outcome, JobOutcome::kDone);
      EXPECT_EQ(rep2.summary[j].shard, -1);  // restored, not placed
      EXPECT_EQ(rep2.summary[j].attempts, rep1.summary[j].attempts);
      EXPECT_DOUBLE_EQ(rep2.summary[j].completed_at_seconds,
                       rep1.summary[j].completed_at_seconds);
    }
    EXPECT_TRUE(rep2.reports.empty());
    EXPECT_EQ(rep2.rounds, 1);
    EXPECT_EQ(rep2.registry.decomp_builds, 0);
    EXPECT_EQ(rep2.registry.spectral_builds, 0);
    EXPECT_EQ(rep2.registry.leases, 0);

    comm.barrier();
    if (comm.rank() == 0) std::remove(path.c_str());
  });
}

TEST(BatchManifest, ResumeWarmStartsAnInFlightJobFromItsCheckpoint) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const std::string path = "test_batch_manifest_warm.json";
    const std::string ckpt = "test_batch_manifest_warm.ckpt";
    if (comm.rank() == 0) {
      std::remove(path.c_str());
      std::remove(ckpt.c_str());
    }
    comm.barrier();

    const RegistrationOptions opt = small_options();
    const int nt = opt.nt;
    auto make_spec = [&]() {
      BatchJobSpec spec;
      spec.dims = {16, 16, 16};
      spec.request.options = opt;
      spec.request.job_id = 201;
      spec.checkpoint_path = ckpt;
      spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t,
                              ScalarField& r) {
        make_pair(d, 0.4, nt, t, r);
      };
      return spec;
    };

    // First launch, no manifest: runs the job and leaves its per-iterate
    // solver checkpoint behind (as a killed batch would).
    BatchSolver first(comm);
    first.submit(make_spec());
    BatchOptions bopt;
    bopt.shards = 1;
    auto rep1 = first.run_all(bopt);
    ASSERT_EQ(rep1.summary.size(), 1u);
    ASSERT_EQ(rep1.summary[0].outcome, JobOutcome::kDone);

    // Craft the manifest a kill mid-job would have left: non-final
    // outcome, one attempt spent, checkpoint path recorded.
    BatchManifestEntry e;
    e.job_id = 201;
    e.outcome = "retrying";
    e.attempts = 1;
    e.checkpoint_path = ckpt;
    update_manifest(comm, path, {e});

    // Resume: the job re-runs (non-final outcome) with the prior attempt
    // count carried over and the checkpoint velocity as its warm start.
    BatchSolver second(comm);
    second.submit(make_spec());
    bopt.manifest_path = path;
    auto rep2 = second.run_all(bopt);
    ASSERT_EQ(rep2.summary.size(), 1u);
    EXPECT_EQ(rep2.summary[0].outcome, JobOutcome::kDone);
    EXPECT_EQ(rep2.summary[0].attempts, 2);  // 1 restored + this run
    EXPECT_EQ(rep2.summary[0].shard, 0);  // ran, on the one shard
    // Warm-started from the converged iterate, the resume needs no more
    // Newton iterations than the cold run.
    EXPECT_LE(rep2.summary[0].newton_iters, rep1.summary[0].newton_iters);
    ASSERT_EQ(rep2.reports.size(), 1u);

    comm.barrier();
    if (comm.rank() == 0) {
      std::remove(path.c_str());
      std::remove(ckpt.c_str());
    }
  });
}

TEST(BatchManifest, ResumeColdStartsAnInFlightJobWhoseCheckpointIsNotFinite) {
  // The checkpoint reader rejects a non-finite velocity, so a resumed job
  // whose checkpoint holds one cold-starts, as for any unusable
  // checkpoint, instead of warm-starting from the same NaN on every retry.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const std::string path = "test_batch_manifest_nan.json";
    const std::string ckpt = "test_batch_manifest_nan.ckpt";
    if (comm.rank() == 0) std::remove(path.c_str());
    comm.barrier();

    const RegistrationOptions opt = small_options();
    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    spec.request.job_id = 202;
    spec.checkpoint_path = ckpt;
    spec.make_inputs = [nt = opt.nt](PencilDecomp& d, ScalarField& t,
                                     ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };

    PencilDecomp decomp(comm, spec.dims);
    VectorField nan_velocity(decomp.local_real_size());
    nan_velocity.fill(std::numeric_limits<real_t>::quiet_NaN());
    CheckpointHeader hdr;
    hdr.fine_dims = hdr.level_dims = spec.dims;
    hdr.beta = opt.beta;
    hdr.gradient_reference = 1;
    hdr.newton_iters_done = 1;
    write_checkpoint(decomp, hdr, nan_velocity, ckpt);
    BatchManifestEntry e;
    e.job_id = 202;
    e.outcome = "retrying";
    e.attempts = 1;
    e.checkpoint_path = ckpt;
    update_manifest(comm, path, {e});

    BatchSolver batch(comm);
    batch.submit(spec);
    BatchOptions bopt;
    bopt.shards = 1;
    bopt.manifest_path = path;
    const auto rep = batch.run_all(bopt);
    ASSERT_EQ(rep.summary.size(), 1u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDone);
    EXPECT_EQ(rep.summary[0].attempts, 2);  // 1 restored + this run

    comm.barrier();
    if (comm.rank() == 0) {
      std::remove(path.c_str());
      std::remove(ckpt.c_str());
    }
  });
}

}  // namespace
}  // namespace diffreg::core

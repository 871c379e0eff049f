// Chaos tests of the batch service's fault isolation (docs/FAULT_MODEL.md):
// a fault is confined to the job (and at worst the shard) it hit. Retried
// jobs are bitwise identical to their fault-free runs, poison jobs burn
// exactly the retry budget, a shard whose recovery fails is rebuilt with its
// unfinished jobs redistributed, and retries never reset a job's admission
// clock. Faults are injected two ways: the mpisim fault injector (seeded
// rank crash, watchdog timeouts — the "real" path) and iterate hooks that
// throw structured errors on every rank at the same Newton iterate (the
// deterministic path, independent of backend op counts).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

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

BatchJobSpec synthetic_job(real_t amplitude,
                           const RegistrationOptions& opt) {
  BatchJobSpec spec;
  spec.dims = {16, 16, 16};
  spec.request.options = opt;
  const int nt = opt.nt;
  spec.make_inputs = [amplitude, nt](PencilDecomp& d, ScalarField& t,
                                     ScalarField& r) {
    make_pair(d, amplitude, nt, t, r);
  };
  return spec;
}

// --------------------------------------------------------------------------
// Retry transparency: a job whose first attempt dies with a structured
// error is requeued and its retry — a cold start on drained communicators —
// is bitwise identical to the fault-free run.

TEST(BatchChaos, HookFaultRetryIsBitwiseIdentical) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    const std::vector<real_t> amps{0.30, 0.40};

    // Fault-free reference batch.
    BatchSolver ref_batch(comm);
    for (real_t amp : amps) ref_batch.submit(synthetic_job(amp, opt));
    BatchOptions bopt;
    bopt.shards = 1;
    auto ref = ref_batch.run_all(bopt);
    ASSERT_EQ(ref.reports.size(), amps.size());

    // Same jobs, but job 0's first attempt dies after its first Newton
    // iterate. The hook throws on EVERY rank at the same iterate (rank-local
    // flag, lockstep execution), so no messages are stranded.
    BatchSolver batch(comm);
    bool thrown = false;
    for (std::size_t j = 0; j < amps.size(); ++j) {
      BatchJobSpec spec = synthetic_job(amps[j], opt);
      if (j == 0)
        spec.request.options.iterate_hook =
            [&thrown](const NewtonIterateInfo&) {
              if (thrown) return;
              thrown = true;
              throw grid::NonFiniteFieldError(
                  "injected: first attempt dies at iterate 1");
            };
      batch.submit(std::move(spec));
    }
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), amps.size());
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDone);
    EXPECT_EQ(rep.summary[0].attempts, 2);
    EXPECT_EQ(rep.summary[1].outcome, JobOutcome::kDone);
    EXPECT_EQ(rep.summary[1].attempts, 1);
    EXPECT_EQ(rep.rounds, 1);
    EXPECT_EQ(rep.shard_rebuilds, 0);
    // Reports are in completion order — the retried job finishes LAST
    // (requeued behind its shardmates) — so match them by job id.
    ASSERT_EQ(rep.reports.size(), amps.size());
    for (const auto& got : rep.reports) {
      bool matched = false;
      for (const auto& want : ref.reports)
        if (want.job_id == got.job_id) {
          EXPECT_TRUE(same_bits(want.velocity, got.velocity))
              << "job " << got.job_id << " diverged from its fault-free run";
          matched = true;
        }
      EXPECT_TRUE(matched);
    }
  });
}

// --------------------------------------------------------------------------
// The injected-crash path end to end: a seeded one-shot rank crash lands
// mid-batch; the victim's peer times out on the watchdog, the shard
// recovers (quiesce + drain), the hit job retries, and every job of the
// batch still completes bitwise identical to the fault-free run.

TEST(BatchChaos, InjectedRankCrashRetriesAndCompletes) {
  const std::vector<real_t> amps{0.30, 0.35, 0.40};
  const RegistrationOptions opt = small_options();
  BatchOptions bopt;
  bopt.shards = 1;

  // Fault-free reference, per-rank results kept across the two launches
  // (ranks are threads of this process), keyed by job id: the faulted
  // run's completion order differs once the hit job is requeued.
  std::array<std::map<std::uint64_t, VectorField>, 2> ref;
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    BatchSolver batch(comm);
    for (real_t amp : amps) batch.submit(synthetic_job(amp, opt));
    auto rep = batch.run_all(bopt);
    for (auto& r : rep.reports)
      ref[static_cast<std::size_t>(comm.rank())][r.job_id] =
          std::move(r.velocity);
  });

  mpisim::SpmdOptions sopts;
  // One-shot crash of rank 1, placed (empirically) inside a solve; the
  // retry boundary also absorbs input-phase placements, but mid-solve
  // exercises the full watchdog + recover + requeue chain.
  sopts.fault_spec = "seed=3,crash_rank=1,crash_at=500";
  sopts.comm_timeout_ms = 400;
  mpisim::run_spmd(
      2,
      [&](mpisim::Communicator& comm) {
        BatchSolver batch(comm);
        for (real_t amp : amps) batch.submit(synthetic_job(amp, opt));
        auto rep = batch.run_all(bopt);

        ASSERT_EQ(rep.summary.size(), amps.size());
        int attempts = 0;
        for (const auto& s : rep.summary) {
          EXPECT_EQ(s.outcome, JobOutcome::kDone);
          attempts += s.attempts;
        }
        // Exactly one job was hit and retried once.
        EXPECT_EQ(attempts, static_cast<int>(amps.size()) + 1);
        ASSERT_EQ(rep.reports.size(), amps.size());
        auto& mine = ref[static_cast<std::size_t>(comm.rank())];
        for (const auto& got : rep.reports) {
          ASSERT_EQ(mine.count(got.job_id), 1u);
          EXPECT_TRUE(same_bits(mine[got.job_id], got.velocity))
              << "job " << got.job_id << " diverged from its fault-free run";
        }
      },
      sopts);
}

// --------------------------------------------------------------------------
// Poison containment: a job that fails EVERY attempt (non-finite inputs
// under --guard — the sweep throws collectively on each try) burns exactly
// retry_budget + 1 attempts, ends kPoisoned, and never touches its
// neighbors.

TEST(BatchChaos, PoisonJobExhaustsExactlyTheRetryBudget) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);

    BatchJobSpec poison;
    poison.dims = {16, 16, 16};
    poison.request.options = opt;
    poison.request.options.guard = true;
    poison.make_inputs = [](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      const auto nan = std::numeric_limits<real_t>::quiet_NaN();
      t.assign(static_cast<std::size_t>(d.local_real_size()), nan);
      r.assign(static_cast<std::size_t>(d.local_real_size()), nan);
    };
    batch.submit(std::move(poison));
    batch.submit(synthetic_job(0.4, opt));

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.retry_budget = 1;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 2u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kPoisoned);
    EXPECT_EQ(rep.summary[0].attempts, bopt.retry_budget + 1);
    EXPECT_GT(rep.summary[0].completed_at_seconds, 0.0);
    EXPECT_EQ(rep.summary[1].outcome, JobOutcome::kDone);
    EXPECT_EQ(rep.summary[1].attempts, 1);
    EXPECT_EQ(rep.rounds, 1);
    // The poisoned job produced no report; the healthy one did.
    ASSERT_EQ(rep.reports.size(), 1u);
    EXPECT_EQ(rep.reports[0].job_id, rep.summary[1].job_id);
  });
}

// --------------------------------------------------------------------------
// Shard failover: when post-fault recovery itself fails (peers cannot
// rendezvous within the recovery deadline), the shard is voted down, its
// registry is purged and rebuilt on a fresh communicator, and its
// unfinished jobs — including never-attempted ones — are redistributed
// across shards in the next round.

TEST(BatchChaos, ShardFailoverRedistributesUnfinishedJobs) {
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    const int lrank = comm.rank();
    BatchSolver batch(comm);

    // Job 0 lands on shard 0 (ranks 0-1). Its first attempt throws a
    // CommError from the iterate hook — with the two ranks deliberately
    // skewed (rank 1 sleeps well past the tiny recovery deadline), both
    // recovery rendezvous fail, so the shard reports itself down instead
    // of retrying in place.
    bool thrown = false;
    BatchJobSpec faulty = synthetic_job(0.30, opt);
    faulty.request.options.iterate_hook =
        [&thrown, lrank](const NewtonIterateInfo&) {
          if (thrown) return;
          thrown = true;
          if (lrank == 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
          throw mpisim::CommError("injected: shard 0 fault");
        };
    batch.submit(std::move(faulty));
    batch.submit(synthetic_job(0.35, opt));  // shard 1, round 1
    batch.submit(synthetic_job(0.40, opt));  // shard 0, abandoned round 1
    batch.submit(synthetic_job(0.45, opt));  // shard 1, round 1

    BatchOptions bopt;
    bopt.shards = 2;
    bopt.recover_timeout_ms = 10;  // guarantees the rendezvous misses
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 4u);
    for (const auto& s : rep.summary)
      EXPECT_EQ(s.outcome, JobOutcome::kDone) << "job id " << s.job_id;
    EXPECT_EQ(rep.rounds, 2);
    EXPECT_EQ(rep.shard_rebuilds, 1);
    // The faulted job retried on the rebuilt shard 0.
    EXPECT_EQ(rep.summary[0].attempts, 2);
    EXPECT_EQ(rep.summary[0].shard, 0);
    // Its never-attempted shardmate was redistributed to shard 1.
    EXPECT_EQ(rep.summary[2].attempts, 1);
    EXPECT_EQ(rep.summary[2].shard, 1);
    EXPECT_EQ(rep.summary[1].shard, 1);
    EXPECT_EQ(rep.summary[3].shard, 1);
  });
}

// --------------------------------------------------------------------------
// Retries never reset the admission clock: a retry is admitted against the
// job's ORIGINAL deadline, so a job whose first attempt faulted and whose
// backoff outlasted the deadline is cancelled when it is re-admitted, and
// the backoff wait is visible in completed_at_seconds.

TEST(BatchChaos, RetryKeepsTheAdmissionClock) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);

    bool thrown = false;
    BatchJobSpec spec = synthetic_job(0.35, opt);
    // The first admission is comfortably inside the budget; the retry's
    // backoff alone outlasts it.
    spec.deadline_seconds = 0.5;
    spec.request.options.iterate_hook = [&thrown](const NewtonIterateInfo&) {
      if (thrown) return;
      thrown = true;
      throw grid::NonFiniteFieldError("injected: first attempt dies");
    };
    batch.submit(std::move(spec));

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.backoff_ms = 1000;  // retry 1 waits 1 s on the batch clock
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 1u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDeadlineExceeded);
    EXPECT_EQ(rep.summary[0].attempts, 2);
    // The batch clock is monotone across the requeue: the re-admission
    // comes after the first attempt AND the backoff, past the deadline.
    EXPECT_GE(rep.summary[0].completed_at_seconds, 1.0);
    EXPECT_FALSE(rep.summary[0].deadline_met);
    EXPECT_TRUE(rep.reports.empty());
  });
}

}  // namespace
}  // namespace diffreg::core

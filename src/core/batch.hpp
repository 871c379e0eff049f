// BatchSolver: registration as a service — B independent image pairs
// through shared plan infrastructure (ROADMAP item 3; docs/SERVICE.md).
//
// Jobs are submitted as SolveRequests (plus a grid and an input factory)
// into a FIFO+priority queue; run_all() drains the queue
// collectively. Two throughput mechanisms stack on the shared
// PlanRegistry:
//
//  * plan amortization — all solvers and jobs of a shard lease their
//    decomposition/spectral/resample plans from one registry and check
//    transports out of its pool, so B same-shape jobs build each plan
//    family exactly once (registry.plan_build_count() proves it);
//  * communicator sharding — the p ranks are split into S sub-communicators
//    that each run a slice of the queue CONCURRENTLY: while one shard's
//    job computes, another shard's job is on the wire, so one job's compute
//    overlaps another job's exchanges (the cross-job form of the PR 6
//    comm/compute overlap). shards=0 picks S automatically.
//
// Every job smooths its inputs and deforms its template through the same
// RegistrationSolver code as a standalone solve.
//
// Determinism contract: with shards=1 every job's velocity is bitwise
// identical to running it alone through RegistrationSolver at the same rank
// count. Sharding changes the effective rank count per job (S shards of p/S
// ranks), which changes collective reduction order — a throughput mode, not
// a bitwise mode; see docs/SERVICE.md.
//
// Fault isolation (docs/FAULT_MODEL.md): each job's solve runs inside a
// structured-error boundary. A job that dies with a CommError or
// grid::NonFiniteFieldError is requeued on its shard with deterministic
// exponential backoff (batch-clock based, no wall-clock randomness) up to
// BatchOptions::retry_budget extra attempts; a job that exhausts the budget
// ends JobOutcome::kPoisoned instead of sinking the batch. Before a retry
// the shard's communicators are quiesced and drained
// (PlanRegistry::recover_after_fault), so a retried job's velocity is
// bitwise identical to its fault-free run. When recovery itself fails (a
// rank is truly down), the shard is drained: its registry is purged, the
// shard communicator and registry are rebuilt, and its unfinished jobs are
// redistributed across shards in the next failover round.
//
// Fairness/deadline semantics: higher priority runs earlier, FIFO within a
// priority class; round-robin assignment over shards in that order. By
// default deadlines are advisory (jobs are never killed): deadline_met
// records whether the job finished within its budget, measured on the batch
// clock (seconds since run_all start). With enforce_deadlines set, a job
// past its deadline is cancelled between Newton iterates (kDeadlineExceeded)
// or — with degrade also set — re-admitted ONCE with a cheaper
// configuration (kDegraded).
//
// Batch checkpoint/resume: with manifest_path set, per-job outcomes are
// persisted to a JSON manifest (core/batch_manifest.hpp) as they finalize.
// A killed batch rerun with the same job list and manifest skips the jobs
// the manifest marks final (zero plan work for them) and warm-starts
// in-flight jobs from their solver checkpoints when available.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/plan_registry.hpp"
#include "core/registration.hpp"

namespace diffreg::core {

/// Final (or persisted) state of one batch job — the job-outcome state
/// machine of docs/SERVICE.md: queued -> running -> {done, retrying(n),
/// poisoned, deadline-exceeded, degraded}.
enum class JobOutcome {
  kPending = 0,           ///< Queued, not yet finalized.
  kDone = 1,              ///< Solve completed (converged or not).
  kRetrying = 2,          ///< Faulted, requeued; non-final.
  kPoisoned = 3,          ///< Exhausted the retry budget; gave up.
  kDeadlineExceeded = 4,  ///< Cancelled past its deadline.
  kDegraded = 5,          ///< Completed on the cheaper degrade config.
};

/// Stable name for an outcome ("done", "poisoned", ...), as persisted in
/// batch manifests and printed by the CLI.
const char* to_string(JobOutcome outcome);
/// Inverse of to_string; unknown names map to kPending (re-run on resume).
JobOutcome outcome_from_string(const std::string& name);

/// Internal cancellation signal for deadline enforcement: thrown out of the
/// iterate hook on EVERY rank of the shard at the same iterate (the
/// past-deadline decision is a shard collective), so the solve terminates
/// cleanly with no stranded messages. Deliberately not a CommError: the
/// retry boundary must not treat a cancellation as a transport fault.
class JobDeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One queued job: the request plus what the batch driver needs to place
/// it. `make_inputs` builds the inputs on whatever shard decomposition the
/// job lands on; the batch points the request's inputs at them.
struct BatchJobSpec {
  SolveRequest request;
  Int3 dims{0, 0, 0};  ///< Grid of this job.
  /// Input factory: fills pencil-local template/reference blocks for the
  /// decomposition the job was placed on. Called once per placement, before
  /// the solve (again after a shard failover moves the job).
  std::function<void(grid::PencilDecomp&, ScalarField&, ScalarField&)>
      make_inputs;
};

struct BatchOptions {
  /// Concurrent shards; 0 = automatic (largest divisor of the rank count
  /// not exceeding the job count). Must divide the rank count.
  int shards = 0;
  /// Also compute each job's deformed template rho_T(y1).
  bool want_deformed = false;
  bool verbose = false;  ///< Per-job progress lines on rank 0 of each shard.

  // Fault isolation (docs/FAULT_MODEL.md). The retry path costs nothing on
  // the fault-free path: no extra collectives, no schedule change.
  /// Extra attempts a faulted job gets before it is marked kPoisoned
  /// (attempts = retry_budget + 1 total), in [0, kMaxRetryBudget].
  int retry_budget = 2;
  /// Base of the deterministic exponential backoff before retry k:
  /// min(backoff_ms * 2^(k-1), one day), measured on the batch clock (every
  /// rank of the shard waits it out identically — no wall-clock
  /// randomness), in [0, mpisim::kMaxCommTimeoutMs]. 0: retry immediately.
  double backoff_ms = 0;
  /// Enforce deadlines: cancel a job past its deadline between Newton
  /// iterates (kDeadlineExceeded). Off by default — the library default
  /// keeps deadlines advisory; the CLI batch driver turns this on.
  bool enforce_deadlines = false;
  /// With enforce_deadlines: re-admit a cancelled job ONCE with a cheaper
  /// configuration (halved iteration caps, no two-level preconditioner)
  /// instead of failing it; such a job ends kDegraded.
  bool degrade = false;
  /// Batch manifest path for checkpoint/resume (empty: off). See
  /// core/batch_manifest.hpp and the header comment above.
  std::string manifest_path;
  /// Rendezvous deadline for post-fault recovery (recover_after_fault). 0:
  /// derived from the communicator watchdog (2x comm_timeout_ms, at least
  /// 1000 ms) — it must exceed the watchdog so surviving ranks have time to
  /// time out of the faulted exchange and reach the recovery barrier.
  double recover_timeout_ms = 0;
};

/// Largest BatchOptions::retry_budget run_all accepts.
inline constexpr int kMaxRetryBudget = 1000;

/// Global per-job digest, present on EVERY rank after run_all (full
/// SolveReports exist only on the ranks of the shard that ran the job): the
/// job's SolveSummary (dims and beta of its request; the solve fields stay
/// at their defaults for a job that never completed a solve) plus its
/// service state.
struct BatchJobSummary : SolveSummary {
  std::uint64_t job_id = 0;
  int shard = -1;         ///< Shard that ran the job; -1: never placed.
  bool ran_here = false;  ///< True on the ranks of the executing shard.
  /// Final state; kPending never survives run_all. Jobs restored from a
  /// manifest keep their persisted outcome and report shard = -1.
  JobOutcome outcome = JobOutcome::kPending;
  int attempts = 0;  ///< Solve attempts spent (1 for a fault-free job).
  /// Batch-clock timestamp (seconds since run_all start) of the FINAL
  /// successful attempt's completion; retries never reset the clock, so
  /// deadline_met is judged against the job's original admission.
  double completed_at_seconds = 0;
  bool deadline_met = true;
};

struct BatchReport {
  /// Full reports of the jobs THIS rank's shard ran, in completion order.
  std::vector<SolveReport> reports;
  /// Deformed templates aligned with `reports` (empty unless
  /// BatchOptions::want_deformed).
  std::vector<ScalarField> deformed;
  /// One digest per submitted job (submit order), identical on all ranks.
  std::vector<BatchJobSummary> summary;
  double wall_seconds = 0;  ///< Max over ranks, run_all start to finish.
  double registrations_per_sec = 0;
  int shards = 1;
  int rounds = 1;          ///< Scheduling rounds run (1 = no failover).
  int shard_rebuilds = 0;  ///< Shards drained and rebuilt after faults.
  PlanRegistry::Stats registry;  ///< This rank's shard registry, cumulative.
};

class BatchSolver {
 public:
  /// All ranks of `comm` must construct the solver, submit the SAME job
  /// sequence, and call run_all together (SPMD discipline).
  explicit BatchSolver(mpisim::Communicator comm) : comm_(comm) {}

  /// Enqueues a job; returns its job id (assigned when request.job_id is
  /// 0). Submission never communicates.
  std::uint64_t submit(BatchJobSpec spec);

  /// Drains the queue. Collective over the constructor communicator.
  /// Throws std::invalid_argument on every rank, before any job runs, when
  /// `opts` holds a retry_budget or backoff_ms outside its documented range
  /// or shards that do not divide the rank count.
  /// Shard registries persist across run_all calls, so a second batch of
  /// same-shape jobs builds no plans at all. Structured job failures
  /// (CommError, NonFiniteFieldError) are absorbed by the retry/failover
  /// machinery and reported per job in the summary; any other error (input
  /// files, manifest I/O, invalid options) throws on EVERY rank once the
  /// round ends: the ranks of the failing shard rethrow it, the others
  /// throw a std::runtime_error carrying its message.
  BatchReport run_all(const BatchOptions& opts = {});

 private:
  struct Shard {
    mpisim::Communicator sub;
    std::shared_ptr<PlanRegistry> registry;
  };
  Shard& shard_context(int shards, int color);

  mpisim::Communicator comm_;
  std::vector<BatchJobSpec> queue_;
  std::uint64_t next_job_id_ = 1;
  // Shard contexts cached across run_all calls, keyed by shard count.
  std::map<int, Shard> shards_;
};

}  // namespace diffreg::core

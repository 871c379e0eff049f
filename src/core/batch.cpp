#include "core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/timer.hpp"
#include "core/batch_manifest.hpp"
#include "core/checkpoint.hpp"
#include "grid/field_math.hpp"
#include "mpisim/errors.hpp"

namespace diffreg::core {

namespace {

bool is_final(JobOutcome outcome) {
  return outcome == JobOutcome::kDone || outcome == JobOutcome::kDegraded ||
         outcome == JobOutcome::kPoisoned ||
         outcome == JobOutcome::kDeadlineExceeded;
}

/// The degrade ladder: a cheaper configuration for a job's one post-deadline
/// re-admission — halved outer/inner iteration caps, no two-level
/// preconditioner. The degraded attempt runs without deadline enforcement
/// (it is the job's last chance to produce a usable result).
void degrade_options(RegistrationOptions& opt) {
  opt.max_newton_iters = std::max(1, opt.max_newton_iters / 2);
  opt.max_krylov_iters = std::max(1, opt.max_krylov_iters / 2);
  opt.two_level_precond = false;
}

/// Ends run_all on every rank after a shard left its round on an error that
/// is not a job fault: the ranks that caught it (`error` set) rethrow it, the
/// others throw the message of rank `root`, broadcast once.
[[noreturn]] void fail_every_rank(mpisim::Communicator& comm,
                                  const std::exception_ptr& error, int root) {
  std::string what = "BatchSolver: a batch shard failed";
  if (comm.rank() == root && error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
  }
  comm.broadcast(what, root);
  if (error) std::rethrow_exception(error);
  throw std::runtime_error(what);
}

/// Global per-job state: the job's summary plus what only the scheduler
/// needs. Kept identical on every rank at every round boundary (the round
/// sync reconciles it), which is what makes the failover decisions
/// collective-consistent.
struct JobState : BatchJobSummary {
  bool from_manifest = false;  ///< Final outcome restored, job skipped.
  bool resume = false;         ///< Re-run of a manifest in-flight job.
  std::string checkpoint;      ///< Solver checkpoint path (warm starts).
};

/// The round sync's row of one job, its columns named only here: `pack`
/// writes them into `row`, else reads them back. The last column flags a
/// contributed row.
constexpr int kCols = 12;
void sync_row(JobState& s, double* row, bool pack) {
  int c = 0, outcome = static_cast<int>(s.outcome);
  const auto column = [&]<typename T>(T& field) {
    if (pack)
      row[c++] = static_cast<double>(field);
    else
      field = static_cast<T>(row[c++]);
  };
  const auto columns = [&](auto&... fields) { (column(fields), ...); };
  columns(s.shard, s.converged, s.newton_iters, s.matvecs, s.rel_residual,
          s.min_det, s.solve_seconds, s.completed_at_seconds, s.deadline_met,
          outcome, s.attempts);
  s.outcome = static_cast<JobOutcome>(outcome);
  if (pack) row[c] = 1;
}

}  // namespace

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kDone:
      return "done";
    case JobOutcome::kRetrying:
      return "retrying";
    case JobOutcome::kPoisoned:
      return "poisoned";
    case JobOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case JobOutcome::kDegraded:
      return "degraded";
    default:
      return "pending";
  }
}

JobOutcome outcome_from_string(const std::string& name) {
  if (name == "done") return JobOutcome::kDone;
  if (name == "retrying") return JobOutcome::kRetrying;
  if (name == "poisoned") return JobOutcome::kPoisoned;
  if (name == "deadline-exceeded") return JobOutcome::kDeadlineExceeded;
  if (name == "degraded") return JobOutcome::kDegraded;
  return JobOutcome::kPending;
}

std::uint64_t BatchSolver::submit(BatchJobSpec spec) {
  if (spec.dims[0] < 1 || spec.dims[1] < 1 || spec.dims[2] < 1)
    throw std::invalid_argument("BatchSolver: job needs valid dims");
  if (!spec.make_inputs)
    throw std::invalid_argument("BatchSolver: job needs an input factory");
  if (spec.request.job_id == 0) spec.request.job_id = next_job_id_++;
  const std::uint64_t id = spec.request.job_id;
  queue_.push_back(std::move(spec));
  return id;
}

BatchSolver::Shard& BatchSolver::shard_context(int shards, int color) {
  auto it = shards_.find(shards);
  if (it == shards_.end()) {
    Shard ctx;
    // One shard is the parent communicator itself: no split, so the comm
    // schedule (and therefore every result) matches standalone solves
    // bitwise. More shards split collectively — every rank participates.
    ctx.sub = shards == 1 ? comm_ : comm_.split(color);
    ctx.registry = std::make_shared<PlanRegistry>(ctx.sub);
    it = shards_.emplace(shards, std::move(ctx)).first;
  }
  return it->second;
}

BatchReport BatchSolver::run_all(const BatchOptions& opts) {
  // The same options reach every rank, so every rank throws here together.
  if (opts.retry_budget < 0 || opts.retry_budget > kMaxRetryBudget)
    throw std::invalid_argument("BatchSolver: retry_budget must be in [0, " +
                                std::to_string(kMaxRetryBudget) + "]");
  if (!(opts.backoff_ms >= 0 && opts.backoff_ms <= mpisim::kMaxCommTimeoutMs))
    throw std::invalid_argument(
        "BatchSolver: backoff_ms must be finite, >= 0 and at most one day");
  BatchReport out;
  const int p = comm_.size();
  const int njobs = static_cast<int>(queue_.size());
  if (njobs == 0) return out;

  // Scheduling order: priority desc, FIFO within a class (stable sort
  // preserves submit order among equal priorities).
  std::vector<int> order(njobs);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return queue_[a].request.priority > queue_[b].request.priority;
  });

  int shards = opts.shards;
  if (shards == 0) {
    shards = std::min(p, njobs);
    while (p % shards != 0) --shards;
  } else if (shards < 1 || p % shards != 0) {
    throw std::invalid_argument(
        "BatchSolver: shards must divide the rank count");
  }
  const int shard_size = p / shards;
  const int color = comm_.rank() / shard_size;
  Shard* ctx = &shard_context(shards, color);
  out.shards = shards;

  WallTimer batch_clock;

  // Recovery rendezvous deadline: must exceed the comm watchdog so that
  // surviving ranks have time to time out of a faulted exchange and reach
  // the recovery barrier before the barrier itself gives up.
  const double watchdog = comm_.comm_timeout_ms();
  const double recover_timeout =
      opts.recover_timeout_ms != 0
          ? opts.recover_timeout_ms
          : (watchdog > 0 ? std::max(2 * watchdog, 1000.0) : 1000.0);

  std::vector<JobState> st(njobs);
  for (int j = 0; j < njobs; ++j) {
    st[j].job_id = queue_[j].request.job_id;
    st[j].dims = queue_[j].dims;
    st[j].beta = queue_[j].request.options.beta;
    st[j].checkpoint = queue_[j].request.checkpoint_path;
  }

  // Batch resume: restore final outcomes from the manifest (those jobs are
  // never placed — zero plan work for them) and mark in-flight jobs for a
  // warm start from their solver checkpoints.
  const bool manifest_on = !opts.manifest_path.empty();
  if (manifest_on) {
    const std::vector<BatchManifestEntry> entries =
        load_manifest(comm_, opts.manifest_path);
    std::map<std::uint64_t, const BatchManifestEntry*> by_id;
    for (const BatchManifestEntry& e : entries) by_id[e.job_id] = &e;
    for (int j = 0; j < njobs; ++j) {
      auto it = by_id.find(queue_[j].request.job_id);
      if (it == by_id.end()) continue;
      const BatchManifestEntry& e = *it->second;
      const JobOutcome prior = outcome_from_string(e.outcome);
      if (st[j].checkpoint.empty()) st[j].checkpoint = e.checkpoint_path;
      if (is_final(prior)) {
        st[j].outcome = prior;
        st[j].attempts = e.attempts;
        st[j].completed_at_seconds = e.completed_at_seconds;
        st[j].deadline_met = e.deadline_met;
        st[j].from_manifest = true;
      } else {
        st[j].attempts = e.attempts;
        st[j].resume = true;
      }
    }
  }

  auto manifest_entry = [&](int qi) {
    BatchManifestEntry e;
    e.job_id = st[qi].job_id;
    e.outcome = to_string(st[qi].outcome);
    e.attempts = st[qi].attempts;
    e.completed_at_seconds = st[qi].completed_at_seconds;
    e.deadline_met = st[qi].deadline_met;
    e.checkpoint_path = st[qi].checkpoint;
    return e;
  };
  auto persist = [&](mpisim::Communicator& on, int qi) {
    if (manifest_on) update_manifest(on, opts.manifest_path, {manifest_entry(qi)});
  };

  // Initial manifest write: a kill before the first completion must still
  // leave a resumable manifest naming every job.
  if (manifest_on) {
    std::vector<BatchManifestEntry> all;
    all.reserve(static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) all.push_back(manifest_entry(j));
    update_manifest(comm_, opts.manifest_path, all);
  }

  // Shard-local execution state. jobdata survives rounds (inputs are reused
  // across retries) but is cleared when the shard is rebuilt.
  struct JobData {
    bool ready = false;
    ScalarField rho_t, rho_r;  // factory outputs (unsmoothed)
    grid::VectorField v0;  // checkpoint warm start (manifest resume)
    bool has_v0 = false;
    real_t warm_gradient_reference = 0;
  };
  std::map<int, JobData> jobdata;  // keyed by queue index
  // Each job gets a solver built from its own options (two registry leases,
  // no plan work), so its deformed template is transported with its own nt,
  // interpolation method and incompressibility.
  const auto solver_for = [&](const BatchJobSpec& spec) {
    return RegistrationSolver(*ctx->registry->decomp(spec.dims),
                              spec.request.options, ctx->registry);
  };

  auto materialize = [&](int qi) {
    JobData& jd = jobdata[qi];
    if (jd.ready) return;
    const BatchJobSpec& spec = queue_[qi];
    spec.make_inputs(*ctx->registry->decomp(spec.dims), jd.rho_t, jd.rho_r);
    // Warm start for manifest-resumed in-flight jobs: scatter the last
    // solver checkpoint when one exists and matches the grid; any
    // checkpoint problem silently falls back to a cold start.
    if (st[qi].resume && !st[qi].checkpoint.empty() && !jd.has_v0) {
      try {
        auto decomp = ctx->registry->decomp(spec.dims);
        const CheckpointHeader hdr =
            read_checkpoint_header(decomp->comm(), st[qi].checkpoint);
        if (hdr.level_dims == spec.dims) {
          jd.v0 = read_checkpoint_velocity(*decomp, st[qi].checkpoint);
          jd.has_v0 = true;
          jd.warm_gradient_reference =
              static_cast<real_t>(hdr.gradient_reference);
        }
      } catch (const CheckpointError&) {
        // Cold start: the checkpoint is missing or stale.
      }
    }
    jd.ready = true;
  };

  // One in-flight placement of a job on this shard.
  struct Attempt {
    int qi = 0;             ///< Queue index.
    int attempts = 0;       ///< Attempts already spent (incremented at start).
    double not_before = 0;  ///< Batch-clock backoff deadline.
    bool degraded = false;  ///< Running the post-deadline degrade config.
  };

  std::map<int, SolveReport> my_reports;  // queue index -> full report
  std::vector<int> my_completed;          // queue indices, completion order
  bool healthy = true;
  // Rounds are bounded: every round either finishes the batch or spends at
  // least one attempt / one rebuild, and attempts are budget-bounded.
  const int max_rounds = std::max(1, opts.retry_budget + 2);

  const auto verbose_line = [&](const char* fmt, auto... args) {
    if (opts.verbose && ctx->sub.rank() == 0) std::printf(fmt, args...);
  };

  for (int round = 0; round < max_rounds; ++round) {
    out.rounds = round + 1;

    // Assignment: pending jobs in scheduling order, round-robin over
    // shards. Identical on every rank (it is a pure function of st).
    std::deque<Attempt> runq;
    std::set<int> my_assigned;
    {
      int k = 0;
      for (int idx : order) {
        if (is_final(st[idx].outcome)) continue;
        if (k % shards == color) {
          runq.push_back({idx, st[idx].attempts, 0.0, false});
          my_assigned.insert(idx);
        }
        ++k;
      }
    }

    // Finalization helpers (st mutations run identically on every rank of
    // the shard — the ranks execute this loop in lockstep).
    auto finalize_done = [&](const Attempt& a, SolveReport rep) {
      const double done_at = batch_clock.seconds();
      const double deadline = queue_[a.qi].request.deadline_seconds;
      rep.deadline_met = deadline <= 0 || done_at <= deadline;
      JobState& s = st[a.qi];
      static_cast<SolveSummary&>(s) = summarize(rep, s.dims, s.beta);
      s.outcome = a.degraded ? JobOutcome::kDegraded : JobOutcome::kDone;
      s.completed_at_seconds = done_at;
      s.deadline_met = rep.deadline_met;
      verbose_line(
          "[batch shard %d] job %llu: %s (%s) in %d iters, rel res %.3e, "
          "attempt %d, %.2fs\n",
          color, static_cast<unsigned long long>(rep.job_id),
          rep.newton.converged ? "converged" : "NOT converged",
          to_string(s.outcome), rep.newton.iterations,
          static_cast<double>(rep.rel_residual), s.attempts, done_at);
      my_reports[a.qi] = std::move(rep);
      my_completed.push_back(a.qi);
      persist(ctx->sub, a.qi);
    };

    auto handle_fault = [&](Attempt a, const char* what) {
      verbose_line("[batch shard %d] job %llu attempt %d faulted: %s\n", color,
                   static_cast<unsigned long long>(queue_[a.qi].request.job_id),
                   a.attempts, what);
      if (!ctx->registry->recover_after_fault(recover_timeout)) {
        // Unrecoverable (a rank is down or the wire would not quiesce):
        // stop local execution; the failover round rebuilds this shard and
        // redistributes its unfinished jobs.
        st[a.qi].outcome = JobOutcome::kRetrying;
        healthy = false;
        return;
      }
      if (a.attempts > opts.retry_budget) {
        JobState& s = st[a.qi];
        s.outcome = JobOutcome::kPoisoned;
        s.completed_at_seconds = batch_clock.seconds();
        s.deadline_met = queue_[a.qi].request.deadline_seconds <= 0;
        verbose_line("[batch shard %d] job %llu poisoned after %d attempts\n",
                     color,
                     static_cast<unsigned long long>(
                         queue_[a.qi].request.job_id),
                     a.attempts);
        persist(ctx->sub, a.qi);
        return;
      }
      // Deterministic exponential backoff on the batch clock: retry k waits
      // min(backoff_ms * 2^(k-1), one day). No wall-clock randomness —
      // every rank of the shard computes the same deadline.
      st[a.qi].outcome = JobOutcome::kRetrying;
      a.not_before =
          opts.backoff_ms > 0
              ? batch_clock.seconds() +
                    std::min(opts.backoff_ms * std::ldexp(1.0, a.attempts - 1),
                             mpisim::kMaxCommTimeoutMs) /
                        1000.0
              : 0;
      runq.push_back(a);
      persist(ctx->sub, a.qi);
    };

    // The per-job structured-error boundary: the heart of the fault
    // isolation. Each attempt either finalizes its job or requeues it; a
    // CommError / NonFiniteFieldError never propagates past it.
    const auto run_attempt = [&](Attempt a) {
      const BatchJobSpec& spec = queue_[a.qi];
      JobData& jd = jobdata[a.qi];
      while (a.not_before > 0 && batch_clock.seconds() < a.not_before)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

      st[a.qi].attempts = ++a.attempts;
      st[a.qi].shard = color;

      try {
        // Inputs are built inside the boundary, so a fault while building
        // them is an ordinary failed attempt.
        materialize(a.qi);
        SolveRequest req = spec.request;
        req.rho_t = &jd.rho_t;
        req.rho_r = &jd.rho_r;
        if (jd.has_v0) {
          req.v0 = &jd.v0;
          if (jd.warm_gradient_reference > 0)
            req.options.gradient_reference = jd.warm_gradient_reference;
        }
        if (!st[a.qi].checkpoint.empty())
          req.checkpoint_path = st[a.qi].checkpoint;
        const double deadline = req.deadline_seconds;
        const bool enforce =
            opts.enforce_deadlines && deadline > 0 && !a.degraded;
        if (a.degraded) degrade_options(req.options);
        if (enforce) {
          // Admission check: cancel before spending a solve when the
          // deadline already passed (a shard-collective decision, so every
          // rank takes the same branch).
          if (ctx->sub.allreduce_max(
                  batch_clock.seconds() > deadline ? 1.0 : 0.0) > 0.5)
            throw JobDeadlineError("deadline passed before admission");
          // Cancellation between Newton iterates: the hook throws on every
          // rank at the same iterate (the lateness vote is collective), so
          // the solve terminates cleanly on all ranks. Caller hooks keep
          // running first, mirroring the checkpoint chaining.
          auto caller_hook = req.options.iterate_hook;
          mpisim::Communicator vote = ctx->sub;
          req.options.iterate_hook =
              [caller_hook, vote, deadline,
               &batch_clock](const NewtonIterateInfo& info) mutable {
                if (caller_hook) caller_hook(info);
                if (vote.allreduce_max(
                        batch_clock.seconds() > deadline ? 1.0 : 0.0) > 0.5)
                  throw JobDeadlineError("deadline exceeded mid-solve");
              };
        }
        finalize_done(a, solver_for(spec).solve(req));
      } catch (const JobDeadlineError&) {
        if (opts.degrade && !a.degraded) {
          a.degraded = true;
          st[a.qi].outcome = JobOutcome::kRetrying;
          verbose_line(
              "[batch shard %d] job %llu past deadline, re-admitting "
              "degraded\n",
              color, static_cast<unsigned long long>(spec.request.job_id));
          runq.push_back(a);
        } else {
          JobState& s = st[a.qi];
          s.outcome = JobOutcome::kDeadlineExceeded;
          s.completed_at_seconds = batch_clock.seconds();
          s.deadline_met = false;
          verbose_line("[batch shard %d] job %llu cancelled past deadline\n",
                       color,
                       static_cast<unsigned long long>(spec.request.job_id));
          persist(ctx->sub, a.qi);
        }
      } catch (const grid::NonFiniteFieldError& e) {
        handle_fault(a, e.what());
      } catch (const mpisim::CommError& e) {
        handle_fault(a, e.what());
      }
    };
    // Any other exception (input, manifest or option errors) ends this
    // shard's round and is voted in the round sync below, so every shard
    // fails with it instead of waiting for this one forever.
    std::exception_ptr round_error;
    try {
      while (healthy && !runq.empty()) {
        const Attempt a = runq.front();
        runq.pop_front();
        run_attempt(a);
      }
    } catch (...) {
      round_error = std::current_exception();
    }

    // Round sync over the PARENT communicator: shard rank 0 contributes the
    // digest rows of this round's placements, every rank contributes its
    // shard-health and round-error votes, one allreduce assembles the tables
    // identically on every rank (this is also the cross-shard round
    // barrier).
    const std::size_t vote_base = static_cast<std::size_t>(njobs) * kCols;
    std::vector<double> flat(vote_base + 2 * static_cast<std::size_t>(shards),
                             0.0);
    if (ctx->sub.rank() == 0)
      for (int qi : my_assigned)
        sync_row(st[qi], flat.data() + static_cast<std::size_t>(qi) * kCols,
                 /*pack=*/true);
    // Health is voted by EVERY rank of the shard, not just rank 0: a rank
    // whose recovery attempt diverged from its peers must still force the
    // rebuild, or the shard would deadlock split between two beliefs.
    if (!healthy) flat[vote_base + color] = 1;
    if (round_error) flat[vote_base + shards + color] = 1;
    comm_.allreduce_sum(flat);
    for (int s = 0; s < shards; ++s)
      if (flat[vote_base + shards + s] > 0.5)
        fail_every_rank(comm_, round_error, s * shard_size);
    for (int j = 0; j < njobs; ++j) {
      double* row = flat.data() + static_cast<std::size_t>(j) * kCols;
      if (row[kCols - 1] > 0.5) sync_row(st[j], row, /*pack=*/false);
    }
    std::vector<char> shard_down(static_cast<std::size_t>(shards), 0);
    int down_count = 0;
    for (int s = 0; s < shards; ++s) {
      shard_down[static_cast<std::size_t>(s)] =
          flat[vote_base + s] > 0.5 ? 1 : 0;
      down_count += shard_down[static_cast<std::size_t>(s)];
    }

    const bool any_pending = std::any_of(
        st.begin(), st.end(),
        [](const JobState& s) { return !is_final(s.outcome); });
    if (!any_pending) break;
    if (round + 1 >= max_rounds) {
      // Out of failover rounds: whatever is still pending is poisoned — a
      // decision every rank reaches identically from the synced table.
      for (int j = 0; j < njobs; ++j) {
        if (is_final(st[j].outcome)) continue;
        st[j].outcome = JobOutcome::kPoisoned;
        st[j].deadline_met = queue_[j].request.deadline_seconds <= 0;
      }
      break;
    }

    // Failover: drain and rebuild every unhealthy shard — purge its
    // registry (plans and pooled transports are bound to the dead shard's
    // communicators), re-split the parent communicator, and start a fresh
    // registry. Healthy shards keep their warm context; the re-split is
    // collective, so they participate and drop the fresh communicator.
    if (down_count > 0) {
      out.shard_rebuilds += down_count;
      verbose_line("[batch shard %d] failover round %d: rebuilding %d "
                   "shard(s)\n",
                   color, round + 1, down_count);
      mpisim::Communicator fresh =
          shards == 1 ? comm_ : comm_.split(color);
      if (shard_down[static_cast<std::size_t>(color)]) {
        jobdata.clear();
        ctx->registry->purge();
        if (shards == 1) comm_.recover_after_fault(recover_timeout);
        Shard rebuilt;
        rebuilt.sub = fresh;
        rebuilt.registry = std::make_shared<PlanRegistry>(fresh);
        shards_[shards] = std::move(rebuilt);
        ctx = &shards_[shards];
        healthy = true;
      }
    }
  }

  // Deformed templates: each job transports its unsmoothed template along
  // its velocity. A job whose deform faults leaves an empty field rather
  // than failing the batch.
  const int jn = static_cast<int>(my_completed.size());
  if (opts.want_deformed) {
    out.deformed.resize(static_cast<std::size_t>(jn));
    for (int i = 0; i < jn; ++i) {
      const int qi = my_completed[i];
      const BatchJobSpec& spec = queue_[qi];
      try {
        materialize(qi);
        solver_for(spec).deform_template(
            jobdata[qi].rho_t, my_reports[qi].velocity,
            out.deformed[static_cast<std::size_t>(i)]);
      } catch (const grid::NonFiniteFieldError&) {
        ctx->registry->recover_after_fault(recover_timeout);
      } catch (const mpisim::CommError&) {
        ctx->registry->recover_after_fault(recover_timeout);
      }
    }
  }

  // Full reports of my shard's jobs, in completion order, aligned with
  // out.deformed.
  out.reports.reserve(static_cast<std::size_t>(jn));
  for (int qi : my_completed) out.reports.push_back(std::move(my_reports[qi]));

  out.summary.reserve(static_cast<std::size_t>(njobs));
  for (JobState& s : st) {
    s.ran_here = !s.from_manifest && s.shard == color;
    out.summary.push_back(s);
  }

  // Final manifest write: every job's terminal outcome, in one atomic
  // replace (the per-finalization updates make this mostly a no-op, but it
  // also records cap-poisoned jobs that never reached a shard update).
  if (manifest_on) {
    std::vector<BatchManifestEntry> all;
    all.reserve(static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) all.push_back(manifest_entry(j));
    update_manifest(comm_, opts.manifest_path, all);
  }

  out.wall_seconds = comm_.allreduce_max(batch_clock.seconds());
  out.registrations_per_sec =
      out.wall_seconds > 0 ? njobs / out.wall_seconds : 0;
  out.registry = ctx->registry->stats();
  queue_.clear();
  return out;
}

}  // namespace diffreg::core

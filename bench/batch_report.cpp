// Batch service bench leg: B co-resident registrations through one shared
// PlanRegistry (core::BatchSolver, docs/SERVICE.md) against the same B jobs
// run back to back through standalone RegistrationSolvers at p = 4.
//
// Records:
//
//  * sequential/sharded at 32^3 — the headline pair: fresh solver + plans
//    per job in the sequential leg, automatic communicator sharding in the
//    batch leg;
//  * sequential/sharded at 16^3 — the comm-bound regime (tiny per-rank
//    blocks, collective overhead dominates the solve): where the paper's
//    many-pair service pays off hardest, and where the >= 1.5x
//    registrations/sec target is met even on this box;
//  * coresident at 32^3 — BatchSolver pinned to shards=1 (the
//    bitwise-reference mode) with each job's deformed template computed
//    through its own transport lease, run TWICE on one solver to prove the
//    registry caches across batches (rebatch_extra_builds must stay 0);
//  * fault_recovery at 16^3 — the same batch clean and under a seeded
//    rank crash (docs/FAULT_MODEL.md): recovered_jobs_rate gates that every
//    job still completes (higher-is-better rate class), retry_overhead_ms
//    prices the watchdog wait + redone attempt, and all_converged flips if
//    a retried job stops converging.
//
// Scaling note (see bench_common.hpp): the container reports 4 cores
// (`nproc`), so the sequential leg's 4 ranks already run in parallel and
// the sharded legs gain only the comm and collective overhead that
// sharding removes: most in the comm-bound 16^3 record, least in the
// compute-bound 32^3 headline.
//
// Field classes (bench/check_regression.py): wall times (*_ms) get the
// time tolerance; throughput and speedup (*_rate) are gated as
// higher-is-better mirrors of the wall times; the plan-build counters are
// exact (deterministic properties of the registry keying — any growth
// means plan reuse broke); *_converged flags are exact.
//
// Usage: batch_report [output.json]
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "common/timer.hpp"

using namespace diffreg;

namespace {

constexpr int kRanks = 4;
constexpr int kJobs = 8;

core::RegistrationOptions job_options(int nt, int max_newton) {
  core::RegistrationOptions opt;
  opt.nt = nt;
  opt.max_newton_iters = max_newton;
  return opt;
}

real_t job_amplitude(int j) { return 0.30 + 0.02 * j; }

void build_job_inputs(grid::PencilDecomp& decomp, real_t amplitude, int nt,
                      grid::ScalarField& rho_t, grid::ScalarField& rho_r) {
  spectral::SpectralOps ops(decomp);
  rho_t = imaging::synthetic_template(decomp);
  auto v = imaging::synthetic_velocity(decomp, amplitude);
  rho_r = imaging::make_reference(ops, rho_t, v, nt);
}

struct Leg {
  double wall_seconds = 0;
  double rate = 0;  // registrations per second
  bool all_converged = true;
  int shards = 1;
  core::PlanRegistry::Stats stats;
  std::uint64_t rebatch_extra_builds = 0;
};

struct FaultLeg {
  double clean_wall_ms = 0;   // fault-free pass of the same batch
  double fault_wall_ms = 0;   // pass with the seeded rank crash
  double retry_overhead_ms = 0;  // fault_wall - clean_wall, floored at 0
  double recovered_rate = 0;  // jobs finishing kDone / jobs submitted
  int total_attempts = 0;     // jobs + retries (jobs + 1 when the crash fires)
  int shard_rebuilds = 0;
  bool all_converged = true;
};

/// Pre-service baseline: kJobs standalone solver runs back to back, each
/// building its decomposition, FFT, interpolation and transport plans from
/// scratch. Best of `reps` passes (the box is shared; throughput legs are
/// compared pass-for-pass, so each leg reports its least-disturbed pass).
Leg run_sequential(index_t n, const core::RegistrationOptions& opt,
                   int reps) {
  Leg out;
  const Int3 dims{n, n, n};
  mpisim::run_spmd(kRanks, [&](mpisim::Communicator& comm) {
    double best = 0;
    bool converged = true;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer t;
      for (int j = 0; j < kJobs; ++j) {
        grid::PencilDecomp decomp(comm, dims);
        grid::ScalarField rho_t, rho_r;
        build_job_inputs(decomp, job_amplitude(j), opt.nt, rho_t, rho_r);
        core::RegistrationSolver solver(decomp, opt);
        auto res = solver.run(rho_t, rho_r);
        converged = converged && res.newton.converged;
      }
      const double wall = comm.allreduce_max(t.seconds());
      if (rep == 0 || wall < best) best = wall;
    }
    if (comm.is_root()) {
      out.wall_seconds = best;
      out.all_converged = converged;
    }
  });
  out.rate = kJobs / out.wall_seconds;
  return out;
}

/// Service mode: the same kJobs through one BatchSolver, `reps` times on
/// the SAME solver — the first pass builds the shard registries, later
/// passes measure the warm service and prove the registry caches across
/// batches (rebatch_extra_builds counts plans built after the first pass
/// and must stay zero). Reports the best pass.
Leg run_batch(index_t n, const core::RegistrationOptions& opt, int shards,
              bool want_deformed, int reps) {
  Leg out;
  const Int3 dims{n, n, n};
  mpisim::run_spmd(kRanks, [&](mpisim::Communicator& comm) {
    core::BatchSolver batch(comm);
    const auto submit_all = [&] {
      for (int j = 0; j < kJobs; ++j) {
        core::BatchJobSpec spec;
        spec.dims = dims;
        spec.request.options = opt;
        spec.request.job_id = static_cast<std::uint64_t>(j + 1);
        const real_t amplitude = job_amplitude(j);
        const int nt = opt.nt;
        spec.make_inputs = [amplitude, nt](grid::PencilDecomp& d,
                                           grid::ScalarField& t,
                                           grid::ScalarField& r) {
          build_job_inputs(d, amplitude, nt, t, r);
        };
        batch.submit(std::move(spec));
      }
    };
    const auto builds = [](const core::PlanRegistry::Stats& s) {
      return static_cast<std::uint64_t>(s.decomp_builds + s.spectral_builds +
                                        s.resample_builds +
                                        s.transport_builds);
    };
    core::BatchOptions bopt;
    bopt.shards = shards;
    bopt.want_deformed = want_deformed;

    double best_wall = 0, best_rate = 0;
    bool converged = true;
    std::uint64_t first_builds = 0, last_builds = 0;
    core::PlanRegistry::Stats first_stats;
    int rep_shards = 1;
    for (int rep = 0; rep < reps; ++rep) {
      submit_all();
      auto rr = batch.run_all(bopt);
      if (rep == 0) {
        first_builds = builds(rr.registry);
        first_stats = rr.registry;
      }
      last_builds = builds(rr.registry);
      rep_shards = rr.shards;
      for (const auto& s : rr.summary)
        converged = converged && s.converged;
      if (rep == 0 || rr.wall_seconds < best_wall) {
        best_wall = rr.wall_seconds;
        best_rate = rr.registrations_per_sec;
      }
    }
    if (comm.is_root()) {
      out.wall_seconds = best_wall;
      out.rate = best_rate;
      out.shards = rep_shards;
      out.stats = first_stats;
      out.rebatch_extra_builds = last_builds - first_builds;
      out.all_converged = converged;
    }
  });
  return out;
}

/// Resilience leg (docs/FAULT_MODEL.md): the same batch twice at p = 2,
/// shards = 1 — once clean (best of `reps`), once with a seeded rank crash
/// mid-solve under a 400 ms comm watchdog. The faulted pass must recover
/// every job (recovered_jobs_rate stays 1, all_converged stays set) and the
/// price of resilience — the watchdog wait plus the redone attempt — is
/// published as retry_overhead_ms.
FaultLeg run_fault_recovery(index_t n, const core::RegistrationOptions& opt,
                            int reps) {
  constexpr int kFaultRanks = 2;
  FaultLeg out;
  const Int3 dims{n, n, n};
  const auto run_pass = [&](bool faulted) {
    struct Pass {
      double wall_ms = 0;
      int attempts = 0;
      int recovered = 0;
      int shard_rebuilds = 0;
      bool converged = true;
    } pass;
    mpisim::SpmdOptions sopts;
    if (faulted) {
      // Same deterministic spec as the chaos suite: the per-rank comm-op
      // counter passes crash_at mid-solve, one rank dies once, the shard
      // recovers and requeues the in-flight job.
      sopts.fault_spec = "seed=3,crash_rank=1,crash_at=2000";
      sopts.comm_timeout_ms = 400;
    }
    mpisim::run_spmd(
        kFaultRanks,
        [&](mpisim::Communicator& comm) {
          core::BatchSolver batch(comm);
          for (int j = 0; j < kJobs; ++j) {
            core::BatchJobSpec spec;
            spec.dims = dims;
            spec.request.options = opt;
            spec.request.job_id = static_cast<std::uint64_t>(j + 1);
            const real_t amplitude = job_amplitude(j);
            const int nt = opt.nt;
            spec.make_inputs = [amplitude, nt](grid::PencilDecomp& d,
                                               grid::ScalarField& t,
                                               grid::ScalarField& r) {
              build_job_inputs(d, amplitude, nt, t, r);
            };
            batch.submit(std::move(spec));
          }
          core::BatchOptions bopt;
          bopt.shards = 1;
          auto rr = batch.run_all(bopt);
          if (comm.is_root()) {
            pass.wall_ms = rr.wall_seconds * 1e3;
            pass.shard_rebuilds = rr.shard_rebuilds;
            for (const auto& s : rr.summary) {
              pass.attempts += s.attempts;
              if (s.outcome == core::JobOutcome::kDone) ++pass.recovered;
              pass.converged = pass.converged && s.converged;
            }
          }
        },
        sopts);
    return pass;
  };

  double clean_best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto clean = run_pass(/*faulted=*/false);
    if (rep == 0 || clean.wall_ms < clean_best) clean_best = clean.wall_ms;
    out.all_converged = out.all_converged && clean.converged;
  }
  const auto faulted = run_pass(/*faulted=*/true);
  out.clean_wall_ms = clean_best;
  out.fault_wall_ms = faulted.wall_ms;
  out.retry_overhead_ms =
      faulted.wall_ms > clean_best ? faulted.wall_ms - clean_best : 0;
  out.recovered_rate = static_cast<double>(faulted.recovered) / kJobs;
  out.total_attempts = faulted.attempts;
  out.shard_rebuilds = faulted.shard_rebuilds;
  out.all_converged = out.all_converged && faulted.converged;
  return out;
}

void print_pair(const char* label, const Leg& seq, const Leg& sharded) {
  std::printf("%s sequential: %d jobs in %.2f s  (%.3f registrations/s)\n",
              label, kJobs, seq.wall_seconds, seq.rate);
  std::printf("%s sharded:    %d jobs in %.2f s  (%.3f registrations/s, "
              "%d shards, %d+%d+%d plan builds on the root shard)\n",
              label, kJobs, sharded.wall_seconds, sharded.rate,
              sharded.shards, sharded.stats.decomp_builds,
              sharded.stats.spectral_builds,
              sharded.stats.transport_builds);
}

void emit_pair(std::FILE* f, index_t n, const Leg& seq, const Leg& sharded,
               double speedup) {
  std::fprintf(f,
               "    {\"case\": \"sequential\", \"size\": %lld, \"ranks\": %d, "
               "\"jobs\": %d, \"wall_ms\": %.1f, \"throughput_rate\": %.4f, "
               "\"all_converged\": %d},\n",
               static_cast<long long>(n), kRanks, kJobs,
               seq.wall_seconds * 1e3, seq.rate, seq.all_converged ? 1 : 0);
  std::fprintf(f,
               "    {\"case\": \"sharded\", \"size\": %lld, \"ranks\": %d, "
               "\"jobs\": %d, \"shards\": %d, \"wall_ms\": %.1f, "
               "\"throughput_rate\": %.4f, \"speedup_vs_sequential_rate\": "
               "%.4f, \"decomp_builds\": %d, \"spectral_builds\": %d, "
               "\"transport_builds\": %d, \"all_converged\": %d},\n",
               static_cast<long long>(n), kRanks, kJobs, sharded.shards,
               sharded.wall_seconds * 1e3, sharded.rate, speedup,
               sharded.stats.decomp_builds, sharded.stats.spectral_builds,
               sharded.stats.transport_builds,
               sharded.all_converged ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_batch.json";

  // Headline: 32^3 jobs at the repo-default step count.
  const core::RegistrationOptions opt32 = job_options(4, 5);
  const Leg seq32 = run_sequential(32, opt32, /*reps=*/2);
  const Leg shard32 = run_batch(32, opt32, /*shards=*/0,
                                /*want_deformed=*/false, /*reps=*/2);
  const double speedup32 = shard32.rate / seq32.rate;

  // Comm-bound regime: 16^3, default nt.
  const core::RegistrationOptions opt16 = job_options(4, 12);
  const Leg seq16 = run_sequential(16, opt16, /*reps=*/3);
  const Leg shard16 = run_batch(16, opt16, /*shards=*/0,
                                /*want_deformed=*/false, /*reps=*/3);
  const double speedup16 = shard16.rate / seq16.rate;

  // Registry persistence + per-job deformed-template transports.
  const core::RegistrationOptions optc = job_options(4, 5);
  const Leg cores = run_batch(32, optc, /*shards=*/1, /*want_deformed=*/true,
                              /*reps=*/2);

  // Fault recovery: seeded crash, comm-bound 16^3 jobs.
  const FaultLeg fault = run_fault_recovery(16, opt16, /*reps=*/2);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "batch_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"batch\",\n  \"flags\": \"%s\",\n"
               "  \"records\": [\n",
               bench::arch_flags());
  emit_pair(f, 32, seq32, shard32, speedup32);
  emit_pair(f, 16, seq16, shard16, speedup16);
  std::fprintf(f,
               "    {\"case\": \"coresident\", \"size\": %d, \"ranks\": %d, "
               "\"jobs\": %d, \"wall_ms\": %.1f, \"throughput_rate\": %.4f, "
               "\"decomp_builds\": %d, \"spectral_builds\": %d, "
               "\"transport_builds\": %d, \"rebatch_extra_builds\": %llu, "
               "\"all_converged\": %d},\n",
               32, kRanks, kJobs, cores.wall_seconds * 1e3, cores.rate,
               cores.stats.decomp_builds, cores.stats.spectral_builds,
               cores.stats.transport_builds,
               static_cast<unsigned long long>(cores.rebatch_extra_builds),
               cores.all_converged ? 1 : 0);
  std::fprintf(f,
               "    {\"case\": \"fault_recovery\", \"size\": %d, "
               "\"ranks\": %d, \"jobs\": %d, \"wall_ms\": %.1f, "
               "\"clean_wall_ms\": %.1f, \"retry_overhead_ms\": %.1f, "
               "\"recovered_jobs_rate\": %.4f, \"total_attempts\": %d, "
               "\"shard_rebuilds\": %d, \"all_converged\": %d}\n",
               16, 2, kJobs, fault.fault_wall_ms, fault.clean_wall_ms,
               fault.retry_overhead_ms, fault.recovered_rate,
               fault.total_attempts, fault.shard_rebuilds,
               fault.all_converged ? 1 : 0);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  print_pair("32^3", seq32, shard32);
  print_pair("16^3", seq16, shard16);
  std::printf("coresident 32^3: %d jobs in %.2f s  (%.3f registrations/s, "
              "rebatch built %llu plans)\n",
              kJobs, cores.wall_seconds, cores.rate,
              static_cast<unsigned long long>(cores.rebatch_extra_builds));
  std::printf("fault recovery 16^3: %d jobs, seeded crash -> %.0f%% "
              "recovered in %d attempts (%d shard rebuilds, retry overhead "
              "%.0f ms over the %.0f ms clean pass)\n",
              kJobs, fault.recovered_rate * 100, fault.total_attempts,
              fault.shard_rebuilds, fault.retry_overhead_ms,
              fault.clean_wall_ms);
  std::printf("batch speedup: %.2fx at 32^3, %.2fx at 16^3 comm-bound "
              "(target >= 1.5x; single-core hosts cap the 32^3 headline "
              "near the p=4/p=1 cost ratio)\n",
              speedup32, speedup16);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

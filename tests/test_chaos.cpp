// Chaos tests of the fault-tolerant runtime: the fault-spec grammar (with a
// seeded mutation fuzzer), the transparency of benign perturbations (delay,
// checksums), and — the core contract — that every injected failure mode
// ends in a STRUCTURED error (CommTimeoutError / CommIntegrityError /
// RankCrashError) on a bounded clock instead of a hang or a silently wrong
// answer. The CI chaos job runs the regular suites under these same specs
// via DIFFREG_FAULT_SPEC.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

#include "mpisim/backend.hpp"
#include "mpisim/communicator.hpp"
#include "mpisim/fault_injection.hpp"
#include "mutate.hpp"

namespace diffreg::mpisim {
namespace {

TEST(FaultSpec, ParsesTheFullGrammar) {
  const FaultSpec spec = FaultSpec::parse(
      "seed=7,drop=0.25,dup=0.5,truncate=0.125,bitflip=1,delay_ms=2.5,"
      "delay_prob=0.5,crash_rank=1,crash_at=40,checksum=1");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.drop, 0.25);
  EXPECT_DOUBLE_EQ(spec.dup, 0.5);
  EXPECT_DOUBLE_EQ(spec.truncate, 0.125);
  EXPECT_DOUBLE_EQ(spec.bitflip, 1.0);
  EXPECT_DOUBLE_EQ(spec.delay_ms, 2.5);
  EXPECT_DOUBLE_EQ(spec.delay_prob, 0.5);
  EXPECT_EQ(spec.crash_rank, 1);
  EXPECT_EQ(spec.crash_at, 40);
  EXPECT_TRUE(spec.checksum);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(FaultSpec{}.enabled());
  // Checksums alone are not a perturbation.
  EXPECT_FALSE(FaultSpec::parse("checksum=1").enabled());
  // The empty spec is valid (no faults).
  EXPECT_FALSE(FaultSpec::parse("").enabled());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSpec::parse("warp=0.5"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("drop=banana"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("drop=1.5"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("drop=-0.1"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("drop"), CommConfigError);
  // crash_rank without a step is a schedule with no trigger.
  EXPECT_THROW(FaultSpec::parse("crash_rank=0"), CommConfigError);
}

// Every number of a spec must be a finite value of its key's type: a NaN
// probability compares false against every roll, an infinite delay
// overflows sleep_for's duration cast, and an out-of-range integer cast is
// undefined.
TEST(FaultSpec, RejectsNanProbability) {
  EXPECT_THROW(FaultSpec::parse("drop=nan"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("delay_prob=-nan"), CommConfigError);
}

TEST(FaultSpec, RejectsInfiniteDelay) {
  EXPECT_THROW(FaultSpec::parse("delay_ms=inf"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("delay_ms=1e300"), CommConfigError);
  EXPECT_DOUBLE_EQ(FaultSpec::parse("delay_ms=3.6e6").delay_ms, 3.6e6);
}

TEST(FaultSpec, RejectsOutOfRangeSeed) {
  EXPECT_THROW(FaultSpec::parse("seed=1e300"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("seed=-1"), CommConfigError);
  EXPECT_THROW(FaultSpec::parse("seed=1.5"), CommConfigError);
  EXPECT_EQ(FaultSpec::parse("seed=1e15").seed, 1000000000000000u);
}

TEST(FaultSpec, RejectsOutOfRangeCrashRank) {
  EXPECT_THROW(FaultSpec::parse("crash_rank=1e20,crash_at=5"),
               CommConfigError);
  EXPECT_THROW(FaultSpec::parse("crash_rank=1,crash_at=1e20"),
               CommConfigError);
  EXPECT_THROW(FaultSpec::parse("checksum=2"), CommConfigError);
}

TEST(FaultSpec, SeededMutantsParseOrThrowConfigError) {
  // Seeded mutation fuzzing of the grammar (tests/mutate.hpp). Every mutant
  // either parses to a spec inside the documented ranges or throws
  // CommConfigError; any other exception fails the test, and the sanitizer
  // job turns an undefined cast into a failure.
  const std::string valid =
      "seed=7,drop=0.25,dup=0.5,truncate=0.125,bitflip=1,delay_ms=2.5,"
      "delay_prob=0.5,crash_rank=1,crash_at=40,crash_repeat=0,checksum=1";
  std::mt19937_64 rng(26);
  int parsed = 0, rejected = 0;
  for (int k = 0; k < 20000; ++k) {
    const std::string mutant = fuzz::mutate(valid, rng);
    try {
      const FaultSpec spec = FaultSpec::parse(mutant);
      ++parsed;
      for (const double p :
           {spec.drop, spec.dup, spec.truncate, spec.bitflip, spec.delay_prob})
        ASSERT_TRUE(p >= 0 && p <= 1) << mutant;
      ASSERT_TRUE(spec.delay_ms >= 0 && spec.delay_ms <= 3.6e6) << mutant;
    } catch (const CommConfigError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Chaos, DelayOnlySpecIsTransparent) {
  // Delays reorder nothing (per-pair FIFO holds) and corrupt nothing: every
  // collective must still produce exact results.
  SpmdOptions opts;
  opts.fault_spec = "seed=3,delay_ms=1,delay_prob=0.5";
  std::atomic<int> checked{0};
  run_spmd(
      4,
      [&](Communicator& comm) {
        const int sum = comm.allreduce_sum(comm.rank() + 1);
        if (sum == 1 + 2 + 3 + 4) ++checked;
        std::vector<double> data;
        if (comm.rank() == 2) data = {2.5, -1.25};
        comm.broadcast(data, 2);
        if (data == std::vector<double>{2.5, -1.25}) ++checked;
        comm.barrier();
      },
      opts);
  EXPECT_EQ(checked.load(), 8);
}

TEST(Chaos, ChecksumTrailersAreTransparentWithoutCorruption) {
  SpmdOptions opts;
  opts.fault_spec = "checksum=1";
  std::atomic<int> checked{0};
  run_spmd(
      3,
      [&](Communicator& comm) {
        const auto all = comm.allgather(index_t(10 * comm.rank()));
        if (all == std::vector<index_t>{0, 10, 20}) ++checked;
      },
      opts);
  EXPECT_EQ(checked.load(), 3);
}

TEST(Chaos, WatchdogTimesOutOnAMissingMessage) {
  // Rank 0 blocks on a receive nobody will ever send: the watchdog must
  // convert the would-be deadlock into a diagnosis naming the peer.
  SpmdOptions opts;
  opts.comm_timeout_ms = 150;
  try {
    run_spmd(
        2,
        [&](Communicator& comm) {
          if (comm.rank() == 0) comm.recv<double>(1, /*tag=*/5);
        },
        opts);
    FAIL() << "expected CommTimeoutError";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.diagnosis().rank, 0);
    EXPECT_EQ(e.diagnosis().src, 1);
    EXPECT_EQ(e.diagnosis().tag, 5);
    EXPECT_GE(e.diagnosis().waited_ms, 100.0);
    const std::string what = e.what();
    EXPECT_NE(what.find("CommTimeoutError"), std::string::npos);
    EXPECT_NE(what.find("blocked in recv"), std::string::npos);
    EXPECT_NE(what.find("src=1"), std::string::npos);
  }
}

TEST(Chaos, WatchdogTimesOutOnAnAbandonedBarrier) {
  SpmdOptions opts;
  opts.comm_timeout_ms = 150;
  try {
    run_spmd(
        2,
        [&](Communicator& comm) {
          if (comm.rank() == 0) comm.barrier();  // rank 1 never joins
        },
        opts);
    FAIL() << "expected CommTimeoutError";
  } catch (const CommTimeoutError& e) {
    EXPECT_EQ(e.diagnosis().operation, "barrier");
  }
}

TEST(Chaos, WatchdogNonblockingWaitReportsTheMissingPeer) {
  // A posted receive whose peer never sends: wait() must time out with the
  // outstanding (src, tag) in the diagnosis, not block forever.
  SpmdOptions opts;
  opts.comm_timeout_ms = 150;
  std::atomic<int> diagnosed{0};
  try {
    run_spmd(
        2,
        [&](Communicator& comm) {
          if (comm.rank() == 1) return;  // never sends
          std::vector<double> a(1);
          auto req = comm.irecv_into(std::span<double>(a), 1, /*tag=*/12);
          try {
            req.wait();
          } catch (const CommTimeoutError& e) {
            if (e.diagnosis().operation == "nonblocking wait" &&
                e.diagnosis().missing ==
                    std::vector<std::pair<int, int>>{{1, 12}})
              ++diagnosed;
            throw;
          }
        },
        opts);
    FAIL() << "expected CommTimeoutError";
  } catch (const CommTimeoutError&) {
    EXPECT_EQ(diagnosed.load(), 1);
  }
}

TEST(Chaos, WatchdogBlockingAlltoallvNamesTheMissingPeer) {
  // The blocking alltoallv completes its own post: when a peer passes the
  // entry checks but never ships its chunk, the waiting rank's watchdog
  // must name the missing (src, tag) instead of blocking forever. Rank 1
  // runs the tag-consistency allreduce (one send, one receive) and crashes
  // on its payload send, backend step 3.
  SpmdOptions opts;
  opts.comm_timeout_ms = 150;
  opts.fault_spec = "seed=1,crash_rank=1,crash_at=2";
  std::atomic<int> diagnosed{0};
  try {
    run_spmd(
        2,
        [&](Communicator& comm) {
          const std::vector<index_t> counts{1, 1};
          const std::vector<double> send{1.0, 2.0};
          std::vector<double> recv(2);
          try {
            comm.alltoallv(std::span<const double>(send), counts,
                           std::span<double>(recv), counts, /*tag=*/17);
          } catch (const CommTimeoutError& e) {
            const CommDiagnosis& d = e.diagnosis();
            if (comm.rank() == 0 && d.operation == "alltoallv" &&
                d.src == 1 && d.tag == 17 &&
                d.missing == std::vector<std::pair<int, int>>{{1, 17}})
              ++diagnosed;
            throw;
          }
        },
        opts);
    FAIL() << "expected a structured CommError";
  } catch (const CommError&) {
    EXPECT_EQ(diagnosed.load(), 1);
  }
}

TEST(Chaos, DroppedMessagesEndInTimeoutNotHang) {
  // drop=1 destroys every payload; the watchdog must surface the loss as a
  // structured timeout on the receiving side.
  SpmdOptions opts;
  opts.fault_spec = "seed=7,drop=1";
  opts.comm_timeout_ms = 150;
  EXPECT_THROW(run_spmd(
                   2,
                   [&](Communicator& comm) {
                     const double x = 3.5;
                     if (comm.rank() == 0)
                       comm.send(std::span<const double>(&x, 1), 1, 9);
                     else
                       comm.recv<double>(0, 9);
                   },
                   opts),
               CommTimeoutError);
}

TEST(Chaos, BitflipSurfacesAsIntegrityError) {
  SpmdOptions opts;
  opts.fault_spec = "seed=11,bitflip=1,checksum=1";
  try {
    run_spmd(
        2,
        [&](Communicator& comm) {
          const double x = 3.5;
          if (comm.rank() == 0)
            comm.send(std::span<const double>(&x, 1), 1, 9);
          else
            comm.recv<double>(0, 9);
        },
        opts);
    FAIL() << "expected CommIntegrityError";
  } catch (const CommIntegrityError& e) {
    EXPECT_EQ(e.src(), 0);
    EXPECT_EQ(e.tag(), 9);
    EXPECT_NE(std::string(e.what()).find("corrupt payload"),
              std::string::npos);
  }
}

TEST(Chaos, TruncationSurfacesAsIntegrityError) {
  SpmdOptions opts;
  opts.fault_spec = "seed=13,truncate=1,checksum=1";
  EXPECT_THROW(run_spmd(
                   2,
                   [&](Communicator& comm) {
                     const double x = 3.5;
                     if (comm.rank() == 0)
                       comm.send(std::span<const double>(&x, 1), 1, 9);
                     else
                       comm.recv<double>(0, 9);
                   },
                   opts),
               CommIntegrityError);
}

TEST(Chaos, CrashedRankEndsTheRunStructured) {
  // Rank 0 dies after its third backend operation; rank 1's watchdog kicks
  // in for whatever rank 0 never sent. The run must end in a CommError
  // (the crash itself, registered first) — never a hang.
  SpmdOptions opts;
  opts.fault_spec = "seed=1,crash_rank=0,crash_at=3";
  opts.comm_timeout_ms = 200;
  try {
    run_spmd(
        2,
        [&](Communicator& comm) {
          const double x = 1.0;
          for (int k = 0; k < 8; ++k) {
            if (comm.rank() == 0)
              comm.send(std::span<const double>(&x, 1), 1, 40 + k);
            else
              comm.recv<double>(0, 40 + k);
          }
        },
        opts);
    FAIL() << "expected a structured CommError";
  } catch (const CommError& e) {
    EXPECT_NE(std::string(e.what()).find("RankCrashError"),
              std::string::npos);
  }
}

TEST(Chaos, DropFaultsWithScheduleVerifierEndStructuredNotHung) {
  // Chaos leg of the schedule verifier: with messages being destroyed on
  // the wire AND verification on, a run must still die structured — either
  // the watchdog fires on the missing payload (CommTimeoutError) or the
  // verifier catches the resulting schedule divergence
  // (ScheduleDivergenceError). Never a hang, never a silent mispairing.
  SpmdOptions opts;
  opts.fault_spec = "seed=19,drop=0.3";
  opts.comm_timeout_ms = 150;
  opts.verify_schedule = true;
  try {
    run_spmd(
        3,
        [&](Communicator& comm) {
          std::vector<index_t> counts(3, 4);
          std::vector<double> buf(12, comm.rank()), out(12);
          for (int round = 0; round < 8; ++round) {
            comm.alltoallv(std::span<const double>(buf), counts,
                           std::span<double>(out), counts, 600 + round);
            comm.barrier();
          }
        },
        opts);
    FAIL() << "expected a structured CommError under drop faults";
  } catch (const CommTimeoutError&) {
  } catch (const ScheduleDivergenceError&) {
  }
}

TEST(Chaos, EnvironmentHooksConfigureTheDefaultRunSpmd) {
  // DIFFREG_FAULT_SPEC / DIFFREG_COMM_TIMEOUT_MS let the chaos CI job run
  // unmodified test suites under a fault schedule.
  ::setenv("DIFFREG_FAULT_SPEC", "seed=2,drop=1", 1);
  ::setenv("DIFFREG_COMM_TIMEOUT_MS", "150", 1);
  EXPECT_THROW(run_spmd(2,
                        [&](Communicator& comm) {
                          const double x = 1.0;
                          if (comm.rank() == 0)
                            comm.send(std::span<const double>(&x, 1), 1, 3);
                          else
                            comm.recv<double>(0, 3);
                        }),
               CommTimeoutError);
  ::unsetenv("DIFFREG_FAULT_SPEC");
  ::unsetenv("DIFFREG_COMM_TIMEOUT_MS");
}

// DIFFREG_COMM_TIMEOUT_MS is parsed strictly and held to the watchdog cap:
// a rejected value throws CommConfigError from run_spmd before any rank
// starts (atof used to read junk as 0, the watchdog off, and inf or 1e300
// overflowed the deadline's clock conversion).
int ranks_started_with_timeout_env(const char* value) {
  struct Unset {
    ~Unset() { ::unsetenv("DIFFREG_COMM_TIMEOUT_MS"); }
  } unset;
  ::setenv("DIFFREG_COMM_TIMEOUT_MS", value, 1);
  std::atomic<int> started{0};
  run_spmd(2, [&](Communicator&) { started.fetch_add(1); });
  return started.load();
}

TEST(Chaos, CommTimeoutEnvironmentJunkIsRejected) {
  for (const char* junk : {"junk", "150ms", ""})
    EXPECT_THROW(ranks_started_with_timeout_env(junk), CommConfigError)
        << junk;
}

TEST(Chaos, CommTimeoutEnvironmentInfinityIsRejected) {
  for (const char* value : {"inf", "nan"})
    EXPECT_THROW(ranks_started_with_timeout_env(value), CommConfigError)
        << value;
}

TEST(Chaos, CommTimeoutEnvironmentAboveTheCapIsRejected) {
  EXPECT_THROW(ranks_started_with_timeout_env("1e300"), CommConfigError);
  EXPECT_THROW(ranks_started_with_timeout_env("-1"), CommConfigError);
  EXPECT_EQ(ranks_started_with_timeout_env("8.64e7"), 2);
}

TEST(Chaos, CommTimeoutOptionAboveTheCapIsRejected) {
  // The same cap holds for SpmdOptions (checked before any rank starts) and
  // for Communicator::set_comm_timeout_ms.
  SpmdOptions opts;
  opts.comm_timeout_ms = 1e300;
  std::atomic<int> started{0};
  EXPECT_THROW(run_spmd(2, [&](Communicator&) { started.fetch_add(1); },
                        opts),
               CommConfigError);
  EXPECT_EQ(started.load(), 0);
  Timings timings;
  Communicator comm = single_rank(timings);
  EXPECT_THROW(comm.set_comm_timeout_ms(kMaxCommTimeoutMs * 2),
               CommConfigError);
  comm.set_comm_timeout_ms(kMaxCommTimeoutMs);
  EXPECT_EQ(comm.comm_timeout_ms(), kMaxCommTimeoutMs);
}

TEST(Chaos, VerifyScheduleEnvironmentHookArmsTheVerifier) {
  // DIFFREG_VERIFY_SCHEDULE reruns unmodified suites under schedule
  // verification, exactly like the fault/watchdog hooks.
  ::setenv("DIFFREG_VERIFY_SCHEDULE", "1", 1);
  std::atomic<int> armed{0};
  run_spmd(2, [&](Communicator& comm) {
    if (comm.verify_schedule()) armed.fetch_add(1);
    comm.barrier();
  });
  ::unsetenv("DIFFREG_VERIFY_SCHEDULE");
  EXPECT_EQ(armed.load(), 2);
}

TEST(Chaos, VerifyScheduleEnvironmentTakesOnlyZeroOrOne) {
  // Like DIFFREG_COMM_TIMEOUT_MS, the hook is parsed strictly, so a
  // misspelling cannot leave the verifier silently off: any value but 0 or 1
  // throws CommConfigError before a rank starts, and 0 arms no rank.
  struct Unset {
    ~Unset() { ::unsetenv("DIFFREG_VERIFY_SCHEDULE"); }
  } unset;
  std::atomic<int> started{0}, armed{0};
  const auto body = [&](Communicator& comm) {
    started.fetch_add(1);
    if (comm.verify_schedule()) armed.fetch_add(1);
    comm.barrier();
  };
  for (const char* junk : {"on", "true", "junk", ""}) {
    ::setenv("DIFFREG_VERIFY_SCHEDULE", junk, 1);
    EXPECT_THROW(run_spmd(2, body), CommConfigError) << junk;
  }
  EXPECT_EQ(started.load(), 0);
  ::setenv("DIFFREG_VERIFY_SCHEDULE", "0", 1);
  run_spmd(2, body);
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(armed.load(), 0);
}

TEST(Chaos, SplitRendezvousHonorsTheWatchdogWhenAPeerDied) {
  // Regression: the backend's split() rendezvous used to wait on an
  // untimed barrier, so a rank that died after the collective agreement
  // (e.g. on a checksum failure) stranded the survivors forever. With the
  // watchdog armed, the lone arrival must get nullptr within the deadline
  // instead of hanging.
  auto state = std::make_shared<detail::SharedState>(2);
  MailboxBackend backend(state, 0);
  EXPECT_EQ(backend.split(/*color=*/0, /*new_rank=*/0, /*new_size=*/1,
                          /*timeout_ms=*/150),
            nullptr);
}

TEST(Chaos, PeerDeathBeforeSplitEndsInTimeoutNotHang) {
  // End-to-end version: one rank dies before ever entering split(); the
  // survivor's split must end (its timeout fires, the run rethrows the
  // first failure) instead of hanging the join. run_spmd reports the
  // first-registered error, which is the dying rank's own exception.
  SpmdOptions opts;
  opts.comm_timeout_ms = 150;
  EXPECT_ANY_THROW(run_spmd(
      2,
      [&](Communicator& comm) {
        if (comm.rank() == 1)
          throw std::runtime_error("rank 1 dies before split");
        Communicator sub = comm.split(0);
      },
      opts));
}

TEST(FaultSpec, ParsesCrashRepeat) {
  // crash_repeat keeps the rank down across recovery attempts; the default
  // crash is one-shot (a restarted rank whose retries can succeed).
  EXPECT_FALSE(
      FaultSpec::parse("crash_rank=1,crash_at=5").crash_repeat);
  EXPECT_TRUE(
      FaultSpec::parse("crash_rank=1,crash_at=5,crash_repeat=1").crash_repeat);
  EXPECT_FALSE(
      FaultSpec::parse("crash_rank=1,crash_at=5,crash_repeat=0").crash_repeat);
}

TEST(Chaos, RecoverAfterFaultDrainsStaleInFlightMessages) {
  // The drain contract behind every batch retry: a message abandoned by a
  // faulted exchange must NOT be matched by the next exchange on the same
  // (src, tag). Without the drain, the post-recovery recv below would read
  // the stale payload.
  std::atomic<int> checked{0};
  run_spmd(2, [&](Communicator& comm) {
    const double stale = 2.0, fresh = 42.0;
    if (comm.rank() == 0)
      comm.send(std::span<const double>(&stale, 1), 1, /*tag=*/7);
    // Rank 1 never receives it — the exchange "died" here.
    EXPECT_TRUE(comm.recover_after_fault(1000));
    if (comm.rank() == 0) {
      comm.send(std::span<const double>(&fresh, 1), 1, /*tag=*/7);
    } else {
      if (comm.recv<double>(0, /*tag=*/7) == std::vector<double>{fresh})
        ++checked;
    }
    comm.barrier();
  });
  EXPECT_EQ(checked.load(), 1);
}

TEST(Chaos, OneShotCrashIsRecoverable) {
  // The default crash fires ONCE per rank family: after the victim catches
  // its RankCrashError and the ranks run fault recovery (which also drains
  // the undelivered payloads of the dead exchange), the wire works again.
  SpmdOptions opts;
  opts.fault_spec = "seed=1,crash_rank=1,crash_at=2";
  std::atomic<int> crashed{0}, recovered{0}, clean{0};
  run_spmd(
      2,
      [&](Communicator& comm) {
        try {
          const double x = 2.0;
          for (int k = 0; k < 4; ++k) {
            if (comm.rank() == 0)
              comm.send(std::span<const double>(&x, 1), 1, 7);
            else
              comm.recv<double>(0, 7);  // third recv trips the crash
          }
        } catch (const RankCrashError&) {
          ++crashed;
        }
        if (comm.recover_after_fault(1000)) ++recovered;
        const double fresh = 42.0;
        if (comm.rank() == 0) {
          comm.send(std::span<const double>(&fresh, 1), 1, 7);
        } else {
          // One-shot: the recv must not rethrow. Drained: it must see the
          // post-recovery payload, not a stale 2.0 left by the crash.
          if (comm.recv<double>(0, 7) == std::vector<double>{fresh}) ++clean;
        }
        if (comm.allreduce_sum(comm.rank() + 1) == 3) ++clean;
      },
      opts);
  EXPECT_EQ(crashed.load(), 1);
  EXPECT_EQ(recovered.load(), 2);
  EXPECT_EQ(clean.load(), 3);
}

TEST(Chaos, PermanentCrashMakesRecoveryFail) {
  // With crash_repeat the node stays down: its own recovery rendezvous
  // keeps throwing (reported as unrecoverable, never rethrown) and the
  // survivor times out of the rendezvous — both sides learn the
  // communicator is beyond repair, which is what triggers shard failover
  // in the batch service.
  SpmdOptions opts;
  opts.fault_spec = "seed=1,crash_rank=1,crash_at=2,crash_repeat=1";
  std::atomic<int> unrecoverable{0};
  run_spmd(
      2,
      [&](Communicator& comm) {
        try {
          const double x = 1.0;
          for (int k = 0; k < 4; ++k) {
            if (comm.rank() == 0)
              comm.send(std::span<const double>(&x, 1), 1, 7);
            else
              comm.recv<double>(0, 7);
          }
        } catch (const RankCrashError&) {
        }
        if (!comm.recover_after_fault(200)) ++unrecoverable;
      },
      opts);
  EXPECT_EQ(unrecoverable.load(), 2);
}

TEST(Chaos, SplitCommunicatorsInheritWatchdogAndFaults) {
  // The pencil decomposition runs its transposes on row/col
  // sub-communicators: the watchdog must follow the split.
  SpmdOptions opts;
  opts.comm_timeout_ms = 150;
  EXPECT_THROW(run_spmd(
                   4,
                   [&](Communicator& comm) {
                     Communicator sub = comm.split(comm.rank() % 2);
                     if (comm.rank() == 0) sub.recv<double>(1, 77);
                   },
                   opts),
               CommTimeoutError);
}

}  // namespace
}  // namespace diffreg::mpisim

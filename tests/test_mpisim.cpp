// Tests of the thread-backed message-passing runtime: point-to-point
// ordering, collectives, alltoallv with uneven buffers, splitting, and
// exception propagation.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "common/logger.hpp"
#include "mpisim/communicator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DIFFREG_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DIFFREG_TEST_SANITIZED 1
#endif
#endif

namespace diffreg::mpisim {
namespace {

class SpmdSize : public ::testing::TestWithParam<int> {};

TEST_P(SpmdSize, RankAndSize) {
  const int p = GetParam();
  std::vector<int> seen(p, -1);
  run_spmd(p, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), p);
    seen[comm.rank()] = comm.rank();
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(seen[r], r);
}

TEST_P(SpmdSize, SendRecvRing) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  std::vector<double> received(p, -1);
  run_spmd(p, [&](Communicator& comm) {
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() - 1 + p) % p;
    const double payload = 100.0 + comm.rank();
    auto got = comm.sendrecv(std::span<const double>(&payload, 1), next, prev,
                             /*tag=*/7);
    ASSERT_EQ(got.size(), 1u);
    received[comm.rank()] = got[0];
  });
  for (int r = 0; r < p; ++r)
    EXPECT_DOUBLE_EQ(received[r], 100.0 + (r - 1 + p) % p);
}

TEST_P(SpmdSize, PerPairTagOrderingIsFifo) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  std::vector<std::vector<int>> got(p);
  run_spmd(p, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 10; ++k)
        for (int r = 1; r < p; ++r)
          comm.send(std::span<const int>(&k, 1), r, /*tag=*/3);
    } else {
      for (int k = 0; k < 10; ++k)
        got[comm.rank()].push_back(comm.recv<int>(0, 3)[0]);
    }
  });
  for (int r = 1; r < p; ++r) {
    ASSERT_EQ(got[r].size(), 10u);
    for (int k = 0; k < 10; ++k) EXPECT_EQ(got[r][k], k);
  }
}

TEST_P(SpmdSize, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::atomic<int> failures{0};
    run_spmd(p, [&](Communicator& comm) {
      std::vector<double> data;
      if (comm.rank() == root) data = {1.5, 2.5, 3.5};
      comm.broadcast(data, root);
      if (data != std::vector<double>{1.5, 2.5, 3.5}) ++failures;
    });
    EXPECT_EQ(failures.load(), 0) << "root " << root;
  }
}

TEST_P(SpmdSize, AllreduceSumMaxMin) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    const double sum = comm.allreduce_sum(static_cast<double>(comm.rank() + 1));
    const int mx = comm.allreduce_max(comm.rank());
    const int mn = comm.allreduce_min(comm.rank() + 5);
    if (sum != p * (p + 1) / 2.0 || mx != p - 1 || mn != 5) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(SpmdSize, AllgatherOrdered) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    auto all = comm.allgather(comm.rank() * 10);
    for (int r = 0; r < p; ++r)
      if (all[r] != r * 10) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(SpmdSize, BarrierSeparatesPhases) {
  const int p = GetParam();
  std::atomic<int> phase_counter{0};
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      ++phase_counter;
      comm.barrier();
      // After the barrier every rank of this round has incremented.
      if (phase_counter.load() < (round + 1) * p) ++failures;
      comm.barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(SpmdSize, SplitRowsAndColumns) {
  const int p = GetParam();
  if (p % 2 != 0) GTEST_SKIP();
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    // Two colors: even and odd ranks.
    Communicator sub = comm.split(comm.rank() % 2);
    const int expected_size = p / 2;
    if (sub.size() != expected_size) ++failures;
    if (sub.rank() != comm.rank() / 2) ++failures;
    // The sub-communicator must work for collectives.
    const int sum = sub.allreduce_sum(1);
    if (sum != expected_size) ++failures;
    // A second split from the same parent must also work.
    Communicator sub2 = comm.split(comm.rank() % 2 == 0 ? 7 : 9);
    if (sub2.size() != expected_size) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpmdSize, ::testing::Values(1, 2, 3, 4, 8));

// Cross-checks of the logarithmic collectives against a serial reference,
// covering the power-of-two (2, 8) and non-power-of-two (3) code paths of
// the recursive-doubling fold/unfold phases and the Bruck dissemination.
class CollectiveVsSerial : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveVsSerial, TreeBroadcastMatchesSerialPayload) {
  const int p = GetParam();
  // Reference: what a single rank holds is what every rank must end up with.
  std::vector<double> reference(257);
  std::iota(reference.begin(), reference.end(), 0.25);
  for (int root = 0; root < p; ++root) {
    std::atomic<int> failures{0};
    run_spmd(p, [&](Communicator& comm) {
      std::vector<double> data;
      if (comm.rank() == root) data = reference;
      comm.broadcast(data, root);
      if (data != reference) ++failures;
    });
    EXPECT_EQ(failures.load(), 0) << "p " << p << " root " << root;
  }
}

TEST_P(CollectiveVsSerial, AllreduceMatchesSerialReference) {
  const int p = GetParam();
  // Integer-valued doubles: the tree combination order cannot change the
  // result, so the comparison against the serial loop is exact.
  auto contribution = [](int rank) { return static_cast<double>(3 * rank + 1); };
  double ref_sum = 0, ref_max = contribution(0), ref_min = contribution(0);
  for (int r = 0; r < p; ++r) {
    ref_sum += contribution(r);
    ref_max = std::max(ref_max, contribution(r));
    ref_min = std::min(ref_min, contribution(r));
  }
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    if (comm.allreduce_sum(contribution(comm.rank())) != ref_sum) ++failures;
    if (comm.allreduce_max(contribution(comm.rank())) != ref_max) ++failures;
    if (comm.allreduce_min(contribution(comm.rank())) != ref_min) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectiveVsSerial, AllreduceIsIdenticalOnEveryRank) {
  // With "messy" floating-point contributions the tree sum may round
  // differently from a serial loop, but all ranks must agree bitwise and
  // match the serial reference to rounding accuracy.
  const int p = GetParam();
  auto contribution = [](int rank) { return 0.1 * (rank + 1) + 1e-13 * rank; };
  double ref_sum = 0;
  for (int r = 0; r < p; ++r) ref_sum += contribution(r);
  std::vector<double> per_rank(p);
  run_spmd(p, [&](Communicator& comm) {
    per_rank[comm.rank()] = comm.allreduce_sum(contribution(comm.rank()));
  });
  for (int r = 1; r < p; ++r) EXPECT_EQ(per_rank[r], per_rank[0]);
  EXPECT_NEAR(per_rank[0], ref_sum, 1e-12 * std::abs(ref_sum));
}

TEST_P(CollectiveVsSerial, VectorAllreduceSumMaxMin) {
  const int p = GetParam();
  const size_t n = 33;
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    const int r = comm.rank();
    std::vector<double> sums(n), maxs(n), mins(n);
    for (size_t i = 0; i < n; ++i) {
      sums[i] = r + static_cast<double>(i);
      maxs[i] = (r * 7 + static_cast<int>(i) * 3) % 11;
      mins[i] = maxs[i];
    }
    comm.allreduce_sum(sums);
    comm.allreduce_max(maxs);
    comm.allreduce_min(mins);
    for (size_t i = 0; i < n; ++i) {
      double ref_sum = 0;
      double ref_max = std::numeric_limits<double>::lowest();
      double ref_min = std::numeric_limits<double>::max();
      for (int q = 0; q < p; ++q) {
        ref_sum += q + static_cast<double>(i);
        const double v = (q * 7 + static_cast<int>(i) * 3) % 11;
        ref_max = std::max(ref_max, v);
        ref_min = std::min(ref_min, v);
      }
      if (sums[i] != ref_sum || maxs[i] != ref_max || mins[i] != ref_min)
        ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectiveVsSerial, AllgatherMatchesSerialReference) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    auto all = comm.allgather(7.5 * comm.rank() - 3);
    for (int r = 0; r < p; ++r)
      if (all[r] != 7.5 * r - 3) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollectiveVsSerial,
                         ::testing::Values(1, 2, 3, 8));

TEST(Collectives, VectorAllreduceRejectsMismatchedLengths) {
  EXPECT_THROW(run_spmd(2,
                        [&](Communicator& comm) {
                          std::vector<double> data(comm.rank() == 0 ? 4 : 5,
                                                   1.0);
                          comm.allreduce_sum(data);
                        }),
               std::runtime_error);
  // Zero-length vs non-zero-length must also be caught (the poison marker is
  // an empty buffer, the sentinel element disambiguates a clean empty batch).
  EXPECT_THROW(run_spmd(3,
                        [&](Communicator& comm) {
                          std::vector<double> data(comm.rank() == 1 ? 3 : 0,
                                                   1.0);
                          comm.allreduce_sum(data);
                        }),
               std::runtime_error);
}

TEST(Collectives, VectorAllreduceEmptyBatchIsClean) {
  std::atomic<int> failures{0};
  run_spmd(3, [&](Communicator& comm) {
    std::vector<double> data;
    comm.allreduce_sum(data);
    if (!data.empty()) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(SpmdSize, SpanAlltoallvUnevenPayloads) {
  // The flat-buffer alltoallv delivers every per-peer chunk, uneven sizes
  // and the self chunk included, to the right offset: r sends r+q+1 values
  // "r*1000 + q" to q.
  const int p = GetParam();
  std::atomic<int> failures{0};
  run_spmd(p, [&](Communicator& comm) {
    const int r = comm.rank();
    std::vector<index_t> send_counts(p), recv_counts(p);
    for (int q = 0; q < p; ++q) {
      send_counts[q] = r + q + 1;
      recv_counts[q] = q + r + 1;
    }
    index_t stotal = 0, rtotal = 0;
    for (int q = 0; q < p; ++q) {
      stotal += send_counts[q];
      rtotal += recv_counts[q];
    }
    std::vector<int> send(stotal), recv(rtotal);
    index_t pos = 0;
    for (int q = 0; q < p; ++q)
      for (index_t i = 0; i < send_counts[q]; ++i) send[pos++] = r * 1000 + q;
    comm.alltoallv(std::span<const int>(send),
                   std::span<const index_t>(send_counts),
                   std::span<int>(recv), std::span<const index_t>(recv_counts),
                   /*tag=*/31);
    pos = 0;
    for (int q = 0; q < p; ++q)
      for (index_t i = 0; i < recv_counts[q]; ++i)
        if (recv[pos++] != q * 1000 + r) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Collectives, SpanAlltoallvRejectsBadCounts) {
  EXPECT_THROW(
      run_spmd(2,
               [&](Communicator& comm) {
                 std::vector<int> send(4), recv(4);
                 std::vector<index_t> counts{2, 2};
                 std::vector<index_t> bad{1, 2};  // sums to 3, buffer has 4
                 comm.alltoallv(std::span<const int>(send),
                                std::span<const index_t>(bad),
                                std::span<int>(recv),
                                std::span<const index_t>(counts), 33);
               }),
      std::runtime_error);
}

TEST(Collectives, SendAccountsBytesAndMessages) {
  auto timings = run_spmd(2, [&](Communicator& comm) {
    comm.set_time_kind(TimeKind::kFftComm);
    comm.timings().clear();
    const int peer = 1 - comm.rank();
    std::vector<double> payload(16, 1.0);
    comm.send(std::span<const double>(payload), peer, /*tag=*/7);
    (void)comm.recv<double>(peer, /*tag=*/7);
  });
  for (const auto& t : timings) {
    EXPECT_EQ(t.messages(TimeKind::kFftComm), 1u);
    EXPECT_EQ(t.bytes(TimeKind::kFftComm), 16 * sizeof(double));
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 0u);
  }
}

/// An alltoallv with zero counts everywhere: nothing moves, but the entry
/// checks (tag consistency included) still run.
void empty_alltoallv(Communicator& comm, int tag) {
  const std::vector<index_t> zeros(comm.size(), 0);
  comm.alltoallv(std::span<const int>(), std::span<const index_t>(zeros),
                 std::span<int>(), std::span<const index_t>(zeros), tag);
}

TEST(Collectives, AlltoallvDetectsCollectiveMismatch) {
  // Ranks disagreeing on which alltoallv they entered must be caught by the
  // consistency self-check instead of silently mixing exchanges.
  EXPECT_THROW(run_spmd(2,
                        [&](Communicator& comm) {
                          empty_alltoallv(comm, comm.rank() == 0 ? 21 : 22);
                        }),
               std::runtime_error);
}

TEST(Collectives, UnitCountAlltoallvMatchesReference) {
  // The count-exchange pattern of variable-size plans: an alltoallv with one
  // element per peer delivers element j of rank r's send buffer to recv[r]
  // on rank j, in one exchange.
  for (int p : {1, 2, 3, 4, 6}) {
    auto timings = run_spmd(p, [&](Communicator& comm) {
      comm.set_time_kind(TimeKind::kInterpComm);
      const std::vector<index_t> ones(p, 1);
      std::vector<index_t> send(p), recv(p, -1);
      for (int j = 0; j < p; ++j) send[j] = 100 * comm.rank() + j;
      comm.alltoallv(std::span<const index_t>(send),
                     std::span<const index_t>(ones), std::span<index_t>(recv),
                     std::span<const index_t>(ones), /*tag=*/31);
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(recv[r], 100 * r + comm.rank()) << "p=" << p;
    });
    for (const auto& t : timings)
      EXPECT_EQ(t.exchanges(TimeKind::kInterpComm), 1u) << "p=" << p;
  }
}

TEST(Spmd, ExceptionPropagatesToLauncher) {
  EXPECT_THROW(
      run_spmd(3,
               [&](Communicator& comm) {
                 comm.barrier();
                 if (comm.rank() == 1)
                   throw std::runtime_error("rank 1 failed");
               }),
      std::runtime_error);
}

/// This process's virtual memory size in bytes (VmSize), 0 if unknown.
std::size_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string key; status >> key;) {
    if (key == "VmSize:") {
      std::size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST(Spmd, RankThreadSpawnFailureThrowsConfigError) {
#ifdef DIFFREG_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory conflicts with RLIMIT_AS";
#endif
  // A forked child caps its address space 64 MB above its current size, so
  // only a few of 32 rank stacks fit. The launcher must release and join
  // the ranks it started and throw CommConfigError naming the failed rank
  // and p, instead of destroying joinable threads (std::terminate).
  const std::size_t vm = vm_size_bytes();
  ASSERT_GT(vm, 0u);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 1;
    try {
      rlimit cap{};
      cap.rlim_cur = cap.rlim_max = vm + (std::size_t{64} << 20);
      if (setrlimit(RLIMIT_AS, &cap) != 0) _exit(5);
      run_spmd(32, [](Communicator& comm) { comm.barrier(); });
      code = 2;  // every rank started: the cap did not bite
    } catch (const CommConfigError& e) {
      const std::string what = e.what();
      const auto has = [&](const char* s) {
        return what.find(s) != std::string::npos;
      };
      code = has("cannot start rank thread") && has("of p = 32") ? 0 : 3;
    } catch (...) {
      code = 4;
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(Spmd, TimingsReturnedPerRank) {
  auto timings = run_spmd(2, [&](Communicator& comm) {
    comm.set_time_kind(TimeKind::kFftComm);
    comm.barrier();
    ScopedTimer t(comm.timings(), TimeKind::kInterpExec);
  });
  ASSERT_EQ(timings.size(), 2u);
  for (const auto& t : timings) {
    EXPECT_GE(t.get(TimeKind::kFftComm), 0.0);
    EXPECT_GE(t.get(TimeKind::kInterpExec), 0.0);
  }
}

TEST(Spmd, LargeMessageRoundTrip) {
  const size_t n = 1 << 18;  // 2 MB of doubles
  run_spmd(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> data(n);
      std::iota(data.begin(), data.end(), 0.0);
      comm.send(std::span<const double>(data), 1, 5);
    } else {
      auto got = comm.recv<double>(0, 5);
      ASSERT_EQ(got.size(), n);
      EXPECT_DOUBLE_EQ(got[12345], 12345.0);
      EXPECT_DOUBLE_EQ(got[n - 1], static_cast<double>(n - 1));
    }
  });
}

TEST(Nonblocking, IalltoallvMatchesBlocking) {
  // The nonblocking alltoallv must deliver bitwise what the blocking call
  // does — same payloads, same counters — for every process count; the
  // self chunk must already be valid at post time (before wait()).
  for (int p : {1, 2, 4, 6}) {
    run_spmd(p, [&](Communicator& comm) {
      const int r = comm.rank();
      std::vector<index_t> send_counts(p), recv_counts(p);
      index_t stotal = 0, rtotal = 0;
      for (int q = 0; q < p; ++q) {
        send_counts[q] = r + q + 1;
        recv_counts[q] = q + r + 1;
        stotal += send_counts[q];
        rtotal += recv_counts[q];
      }
      std::vector<double> send(stotal), blocking(rtotal), nb(rtotal, -1);
      for (index_t i = 0; i < stotal; ++i)
        send[i] = 0.25 + r + i * 0.9162907318741551;

      comm.set_time_kind(TimeKind::kFftComm);
      const Timings t0 = comm.timings();
      comm.alltoallv(std::span<const double>(send),
                     std::span<const index_t>(send_counts),
                     std::span<double>(blocking),
                     std::span<const index_t>(recv_counts), 71);
      const Timings t1 = comm.timings();
      auto req = comm.ialltoallv(std::span<const double>(send),
                                 std::span<const index_t>(send_counts),
                                 std::span<double>(nb),
                                 std::span<const index_t>(recv_counts), 72);
      // The self chunk never crosses the wire: it is delivered at post.
      index_t self_off = 0;
      for (int q = 0; q < r; ++q) self_off += recv_counts[q];
      for (index_t i = 0; i < recv_counts[r]; ++i)
        ASSERT_EQ(nb[self_off + i], blocking[self_off + i])
            << "p=" << p << " rank=" << r;
      req.wait();
      const Timings t2 = comm.timings();

      for (index_t i = 0; i < rtotal; ++i)
        ASSERT_EQ(nb[i], blocking[i]) << "p=" << p << " rank=" << r;
      EXPECT_TRUE(req.done());

      // Identical message schedule: the counter deltas of the two calls
      // match exactly.
      const Timings db = timings_delta(t0, t1);
      const Timings dn = timings_delta(t1, t2);
      EXPECT_EQ(db.messages(TimeKind::kFftComm),
                dn.messages(TimeKind::kFftComm));
      EXPECT_EQ(db.bytes(TimeKind::kFftComm), dn.bytes(TimeKind::kFftComm));
      EXPECT_EQ(dn.exchanges(TimeKind::kFftComm), 1u);
    });
  }
}

TEST(Nonblocking, CommCallWhileRequestOutstandingThrows) {
  // One outstanding request at a time: any receive posted before wait()
  // must be rejected loudly instead of racing the pending matches.
  std::atomic<int> threw{0};
  run_spmd(2, [&](Communicator& comm) {
    const int r = comm.rank();
    const int peer = 1 - r;
    const std::vector<index_t> counts{1, 1};
    std::vector<double> send{static_cast<double>(10 + r),
                             static_cast<double>(10 + r)};
    std::vector<double> recv(2, -1);
    auto req = comm.ialltoallv(std::span<const double>(send),
                               std::span<const index_t>(counts),
                               std::span<double>(recv),
                               std::span<const index_t>(counts), 75);
    EXPECT_FALSE(req.done());
    try {
      (void)comm.recv<double>(peer, /*tag=*/99);
    } catch (const std::runtime_error&) {
      ++threw;
    }
    req.wait();
    EXPECT_EQ(recv[r], 10.0 + r);        // self chunk
    EXPECT_EQ(recv[peer], 10.0 + peer);  // wire chunk
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(Nonblocking, WaitRejectsMismatchedPayloadSize) {
  // A pending receive whose posted buffer disagrees with the payload that
  // actually arrives must fail at wait() (exact-size contract).
  std::atomic<int> threw{0};
  run_spmd(2, [&](Communicator& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> payload(4, 1.5);
    comm.send(std::span<const double>(payload), peer, /*tag=*/76);
    std::vector<double> small(3);
    auto req = comm.irecv_into(std::span<double>(small), peer, /*tag=*/76);
    try {
      req.wait();
    } catch (const std::runtime_error&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(Nonblocking, MoveAssignOverALiveRequestCompletesIt) {
  // Regression: assigning over a live request used to drop it unfinished,
  // leaving the one-outstanding-request slot taken, so the next receive
  // threw CommContractError. The overwritten request must be completed
  // (its payload delivered) exactly as the destructor would.
  run_spmd(2, [&](Communicator& comm) {
    const int peer = 1 - comm.rank();
    const double mine[2] = {1.5 + comm.rank(), 7.0 + comm.rank()};
    comm.send(std::span<const double>(&mine[0], 1), peer, /*tag=*/85);
    double first = -1;
    auto req = comm.irecv_into(std::span<double>(&first, 1), peer, 85);
    CommRequest done_request;
    req = std::move(done_request);
    EXPECT_TRUE(req.done());
    EXPECT_EQ(first, 1.5 + peer);

    comm.send(std::span<const double>(&mine[1], 1), peer, /*tag=*/86);
    double second = -1;
    EXPECT_NO_THROW(
        comm.irecv_into(std::span<double>(&second, 1), peer, /*tag=*/86)
            .wait());
    EXPECT_EQ(second, 7.0 + peer);
  });
}

TEST(Nonblocking, HiddenTimeAccountsOverlappedFlight) {
  // Compute performed between post and wait must surface as hidden comm
  // time; a blocking exchange hides nothing. Hidden time is clamped to the
  // span between a rank's OWN post and the last arrival, so the rank that
  // posts last may legitimately hide nothing (its peer's payload already
  // landed) — the invariant is per-rank nonnegativity plus a positive total
  // for the earlier poster.
  auto timings = run_spmd(2, [&](Communicator& comm) {
    comm.set_time_kind(TimeKind::kFftComm);
    comm.timings().clear();
    const std::vector<index_t> counts{8, 8};
    std::vector<double> send(16, 1.0), recv(16);
    comm.alltoallv(std::span<const double>(send),
                   std::span<const index_t>(counts), std::span<double>(recv),
                   std::span<const index_t>(counts), 78);
    EXPECT_EQ(comm.timings().hidden(TimeKind::kFftComm), 0.0);

    const Timings before = comm.timings();
    auto req = comm.ialltoallv(std::span<const double>(send),
                               std::span<const index_t>(counts),
                               std::span<double>(recv),
                               std::span<const index_t>(counts), 79);
    // "Compute" under the flight, so the payload lands before wait().
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    req.wait();
    const Timings d = timings_delta(before, comm.timings());
    EXPECT_GE(d.hidden(TimeKind::kFftComm), 0.0);
    // The delta carries exactly what the full counter accumulated.
    EXPECT_EQ(d.hidden(TimeKind::kFftComm),
              comm.timings().hidden(TimeKind::kFftComm));
  });
  double total = 0;
  for (const auto& t : timings) total += t.hidden(TimeKind::kFftComm);
  EXPECT_GT(total, 0.0);
}

TEST(Collectives, AlltoallvConsistencyThrowsOnEveryRank) {
  // The consistency self-check's contract is collective failure: when any
  // rank disagrees on the alltoallv tag, ALL ranks must throw (none may
  // hang waiting for an exchange that will never match up).
  std::atomic<int> threw{0};
  EXPECT_THROW(run_spmd(4,
                        [&](Communicator& comm) {
                          try {
                            empty_alltoallv(comm, comm.rank() == 2 ? 22 : 21);
                          } catch (const std::runtime_error&) {
                            ++threw;
                            throw;
                          }
                        }),
               std::runtime_error);
  EXPECT_EQ(threw.load(), 4);
}

TEST(Nonblocking, DrainOnDestroyLogsRatedWarning) {
  // Dropping a CommRequest without wait() is a correctness smell (failures
  // it would have surfaced are swallowed): the destructor must drain the
  // pending receives and say so through the logger, with enough context to
  // find the call site.
  std::vector<std::string> warnings;
  set_log_sink([&](const std::string& m) { warnings.push_back(m); });
  run_spmd(2, [&](Communicator& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> payload(4, 1.5), out(4);
    comm.send(std::span<const double>(payload), peer, /*tag=*/83);
    {
      auto req = comm.irecv_into(std::span<double>(out), peer, /*tag=*/83);
      // req destroyed without wait(): must drain and warn, not throw.
    }
    comm.barrier();
  });
  set_log_sink(nullptr);
  ASSERT_EQ(warnings.size(), 2u);  // one per rank
  for (const auto& w : warnings) {
    EXPECT_NE(w.find("CommRequest destroyed before wait()"),
              std::string::npos);
    EXPECT_NE(w.find("tag=83"), std::string::npos);
  }
}

TEST(Nonblocking, DrainWarningIsRateLimited) {
  // The drain warning fires per destroyed request; the rate limiter must
  // cap the noise at 3 emissions (the last one carrying the suppression
  // notice) no matter how many leaks follow.
  std::vector<std::string> warnings;
  set_log_sink([&](const std::string& m) { warnings.push_back(m); });
  run_spmd(1, [&](Communicator& comm) {
    for (int k = 0; k < 6; ++k) {
      std::vector<double> payload(1, 1.0), out(1);
      comm.send(std::span<const double>(payload), 0, /*tag=*/84);
      auto req = comm.irecv_into(std::span<double>(out), 0, /*tag=*/84);
    }
  });
  set_log_sink(nullptr);
  ASSERT_EQ(warnings.size(), 3u);
  EXPECT_NE(warnings.back().find("suppressing"), std::string::npos);
}

// Concurrency stress of the thread-shared runtime paths. These tests exist
// primarily for the TSan CI leg: each one drives a path where rank threads
// contend on shared state (the logger's rate-limit counters, mailbox probes
// racing sends, watchdog deadline pops, repeated barrier generations, split
// rendezvous) hard enough that a missing happens-before edge shows up as a
// ThreadSanitizer report. They assert functional outcomes too, so they stay
// meaningful in plain builds.
TEST(ConcurrencyStress, RatedWarningsRaceAcrossRanks) {
  // Six rank threads hammer three rate-limited keys: the shared counters
  // must let exactly 3 warnings through per key.
  // Static: a sink left installed by a throwing run must not dangle.
  static std::atomic<int> emitted;
  emitted = 0;
  set_log_sink([](const std::string& m) {
    if (m.rfind("stress", 0) == 0) ++emitted;  // not the runtime's own
  });
  run_spmd(6, [](Communicator& comm) {
    for (int i = 0; i < 100; ++i)
      log_warn_rated("test.stress.key" + std::to_string(i % 3), "stress");
    comm.barrier();
  });
  set_log_sink(nullptr);
  EXPECT_EQ(emitted.load(), 3 * 3);
}

TEST(ConcurrencyStress, ProbesAndDeadlinePopsRaceBufferedSends) {
  // Mailbox hammer: every rank blasts tagged messages at every peer while
  // the receivers interleave nonblocking probes with deadline pops — the
  // buffered-send/probe contention the watchdog snapshot path relies on.
  run_spmd(6, [](Communicator& comm) {
    const int p = comm.size();
    for (int round = 0; round < 30; ++round) {
      for (int peer = 0; peer < p; ++peer) {
        if (peer == comm.rank()) continue;
        const double payload = 100.0 * comm.rank() + round;
        comm.send(std::span<const double>(&payload, 1), peer, round % 5);
      }
      for (int peer = 0; peer < p; ++peer) {
        if (peer == comm.rank()) continue;
        comm.backend()->probe(peer, round % 5);
        auto got = comm.backend()->recv_bytes(peer, round % 5, 5000.0);
        ASSERT_TRUE(got.has_value());
        double value = 0;
        ASSERT_EQ(got->data.size(), sizeof value);
        std::memcpy(&value, got->data.data(), sizeof value);
        EXPECT_DOUBLE_EQ(value, 100.0 * peer + round);
      }
    }
    comm.barrier();
  });
}

TEST(ConcurrencyStress, RepeatedSplitsRaceRendezvousState) {
  // Split storm: the (epoch, color) exchange board and the two rendezvous
  // barriers under repeated sub-communicator creation and traffic.
  run_spmd(6, [](Communicator& comm) {
    for (int round = 0; round < 15; ++round) {
      Communicator sub = comm.split(comm.rank() % 2);
      int expected = 0;
      for (int r = comm.rank() % 2; r < 6; r += 2) expected += r;
      EXPECT_EQ(sub.allreduce_sum(comm.rank()), expected);
      sub.barrier();
    }
  });
}

// Collective-schedule verifier (--verify-schedule / SpmdOptions): the
// rolling per-rank schedule hash cross-checked at barrier/exchange entry.

// A comm workload touching every recorded op class: uneven span alltoallvs,
// scalar and vector allreduces, a broadcast, an allgather, split traffic,
// and barriers. Returns a per-rank digest of every value that arrived, so
// two runs can be compared bitwise.
std::vector<double> schedule_probe_workload(Communicator& comm) {
  const int p = comm.size();
  std::vector<double> digest;
  for (int round = 0; round < 3; ++round) {
    // Pair-symmetric counts (c(a, b) == c(b, a)), so one table serves as
    // both send_counts and recv_counts on every rank and transposes.
    std::vector<index_t> counts(p);
    for (int r = 0; r < p; ++r) counts[r] = 1 + (comm.rank() + r + round) % 3;
    index_t total = 0;
    for (index_t c : counts) total += c;
    std::vector<double> send(static_cast<size_t>(total));
    for (size_t i = 0; i < send.size(); ++i)
      send[i] = 1000.0 * comm.rank() + 10.0 * round + static_cast<double>(i);
    std::vector<double> recv(static_cast<size_t>(total));
    comm.alltoallv(std::span<const double>(send), counts,
                   std::span<double>(recv), counts, /*tag=*/500 + round);
    digest.insert(digest.end(), recv.begin(), recv.end());
    digest.push_back(comm.allreduce_sum(0.5 + comm.rank() + round));
    digest.push_back(comm.allreduce_max(0.5 + comm.rank() + round));
    std::vector<double> batch(3, comm.rank() + round);
    comm.allreduce_sum(batch);
    digest.insert(digest.end(), batch.begin(), batch.end());
    comm.barrier();
  }
  std::vector<double> seed{comm.is_root() ? 42.0 : 0.0};
  comm.broadcast(seed, 0);
  digest.push_back(seed[0]);
  auto all = comm.allgather(static_cast<double>(comm.rank()));
  digest.insert(digest.end(), all.begin(), all.end());
  Communicator sub = comm.split(comm.rank() % 2);
  digest.push_back(sub.allreduce_sum(static_cast<double>(comm.rank())));
  sub.barrier();
  comm.barrier();
  return digest;
}

TEST(ScheduleVerify, OnIsBitwiseIdenticalToOffWithEqualExchangeCounts) {
  // Acceptance gate: verification must be pure observation — identical
  // payload results bit for bit, identical exchange counters. (The
  // checkpoint allreduce may add MESSAGES; it must never add exchanges.)
  const int p = 4;
  std::vector<std::vector<double>> digest_off(p), digest_on(p);
  SpmdOptions off;  // defaults: verifier off
  auto t_off = run_spmd(
      p, [&](Communicator& comm) {
        digest_off[comm.rank()] = schedule_probe_workload(comm);
      },
      off);
  SpmdOptions on;
  on.verify_schedule = true;
  auto t_on = run_spmd(
      p, [&](Communicator& comm) {
        EXPECT_TRUE(comm.verify_schedule());
        digest_on[comm.rank()] = schedule_probe_workload(comm);
      },
      on);
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(digest_off[r].size(), digest_on[r].size());
    ASSERT_EQ(std::memcmp(digest_off[r].data(), digest_on[r].data(),
                          digest_off[r].size() * sizeof(double)),
              0)
        << "rank " << r << " payload results differ with --verify-schedule";
    EXPECT_EQ(t_off[r].total_exchanges(), t_on[r].total_exchanges());
    // The checkpoints really ran: their allreduce traffic is visible in the
    // message counters.
    EXPECT_GT(t_on[r].total_messages(), t_off[r].total_messages());
  }
}

TEST(ScheduleVerify, SkippedExchangeRaisesOnEveryRankNamingTheFirstOp) {
  // Rank 1 skips the second of three alltoallvs. The entry checkpoint of
  // its NEXT exchange meets the peers' checkpoint of the skipped one (the
  // verifier traffic rides a dedicated tag), so every rank throws a
  // structured divergence instead of deadlocking on mismatched payload
  // tags — and the recovery pass pins the first mismatching op index.
  const int p = 4;
  std::vector<long> index(p, -2);
  std::vector<std::string> description(p);
  SpmdOptions opts;
  opts.verify_schedule = true;
  run_spmd(
      p,
      [&](Communicator& comm) {
        std::vector<index_t> counts(p, 2);
        std::vector<double> buf(2 * p, comm.rank()), out(2 * p);
        try {
          for (int tag : {401, 402, 403}) {
            if (comm.rank() == 1 && tag == 402) continue;
            comm.alltoallv(std::span<const double>(buf), counts,
                           std::span<double>(out), counts, tag);
          }
          comm.barrier();
        } catch (const ScheduleDivergenceError& e) {
          index[comm.rank()] = e.first_mismatch_index();
          description[comm.rank()] = e.op_description();
        }
      },
      opts);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(index[r], 1) << "rank " << r;
    EXPECT_NE(description[r].find("alltoallv"), std::string::npos);
    // Each rank names ITS op at the diverging index: the skipping rank had
    // already moved on to tag 403, everyone else was entering tag 402.
    EXPECT_NE(description[r].find(r == 1 ? "403" : "402"), std::string::npos)
        << "rank " << r << ": " << description[r];
  }
}

TEST(ScheduleVerify, MixedReductionOpsAreCaughtAtTheNextBarrier) {
  // All three scalar allreduces share one wire tag, so a rank calling
  // allreduce_max while its peers call allreduce_sum combines values and
  // returns garbage SILENTLY — only the schedule hash (which folds the
  // reduction-op identity) can catch it. The divergence surfaces at the
  // next barrier checkpoint, naming op 0.
  const int p = 3;
  std::atomic<int> caught{0};
  std::vector<long> index(p, -2);
  SpmdOptions opts;
  opts.verify_schedule = true;
  run_spmd(
      p,
      [&](Communicator& comm) {
        try {
          if (comm.rank() == 0)
            comm.allreduce_max(1.0 * comm.rank());
          else
            comm.allreduce_sum(1.0 * comm.rank());
          comm.barrier();
        } catch (const ScheduleDivergenceError& e) {
          caught.fetch_add(1);
          index[comm.rank()] = e.first_mismatch_index();
          EXPECT_NE(std::string(e.what()).find("allreduce"),
                    std::string::npos);
        }
      },
      opts);
  EXPECT_EQ(caught.load(), p);
  for (int r = 0; r < p; ++r) EXPECT_EQ(index[r], 0) << "rank " << r;
}

TEST(ScheduleVerify, SkippedMarkRaisesDivergenceAtPhaseEntry) {
  // verify_mark is the hook for symmetric point-to-point phases (the
  // ghost-halo exchange): a rank that skips the marked phase diverges at
  // op 0 even though no collective was involved — and because marks
  // checkpoint at entry, the divergence is caught before the phase's p2p
  // traffic could strand anyone.
  const int p = 3;
  std::atomic<int> caught{0};
  SpmdOptions opts;
  opts.verify_schedule = true;
  run_spmd(
      p,
      [&](Communicator& comm) {
        try {
          if (comm.rank() != 2) comm.verify_mark(/*tag=*/7);
          comm.barrier();
        } catch (const ScheduleDivergenceError& e) {
          caught.fetch_add(1);
          EXPECT_EQ(e.first_mismatch_index(), 0);
          if (comm.rank() != 2) {
            EXPECT_NE(e.op_description().find("mark"), std::string::npos);
          }
        }
      },
      opts);
  EXPECT_EQ(caught.load(), p);
}

TEST(ScheduleVerify, SubCommunicatorsInheritVerificationWithFreshState) {
  const int p = 4;
  std::atomic<int> caught{0};
  SpmdOptions opts;
  opts.verify_schedule = true;
  run_spmd(
      p,
      [&](Communicator& comm) {
        Communicator sub = comm.split(comm.rank() / 2);
        EXPECT_TRUE(sub.verify_schedule());
        // A clean sub-communicator schedule passes its own checkpoints...
        sub.barrier();
        EXPECT_EQ(sub.allreduce_sum(1), 2);
        // ...and a divergence WITHIN one split is caught there: in the
        // first sub-communicator, sub-rank 0 skips a marked phase.
        try {
          if (comm.rank() != 0) sub.verify_mark(/*tag=*/11);
          sub.barrier();
        } catch (const ScheduleDivergenceError&) {
          caught.fetch_add(1);
        }
      },
      opts);
  // Only the diverging split's two members throw; the other split's
  // schedule is internally consistent.
  EXPECT_EQ(caught.load(), 2);
}

}  // namespace
}  // namespace diffreg::mpisim

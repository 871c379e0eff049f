// Grid module tests: pencil decomposition geometry, gather/scatter
// round trips, periodic ghost exchange (edges and corners), distributed
// field math reductions.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <random>
#include <utility>

#include "grid/decomposition.hpp"
#include "grid/field_io.hpp"
#include "grid/field_math.hpp"
#include "grid/ghost_exchange.hpp"
#include "mpisim/communicator.hpp"

namespace diffreg::grid {
namespace {

std::vector<real_t> random_full(const Int3& dims, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1, 1);
  std::vector<real_t> x(dims.prod());
  for (auto& v : x) v = dist(rng);
  return x;
}

TEST(ProcessGrid, NearSquareFactorization) {
  EXPECT_EQ(choose_process_grid(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(choose_process_grid(2), (std::pair<int, int>{1, 2}));
  EXPECT_EQ(choose_process_grid(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(choose_process_grid(6), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(choose_process_grid(8), (std::pair<int, int>{2, 4}));
  EXPECT_EQ(choose_process_grid(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(choose_process_grid(7), (std::pair<int, int>{1, 7}));
}

struct DecompCase {
  Int3 dims;
  int p1, p2;
};

class DecompGeometry : public ::testing::TestWithParam<DecompCase> {};

TEST_P(DecompGeometry, BlocksTileTheGrid) {
  const auto [dims, p1, p2] = GetParam();
  mpisim::run_spmd(p1 * p2, [&, dims = dims, p1 = p1,
                             p2 = p2](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, p1, p2);
    // Sum of local sizes over all ranks equals the grid size.
    const index_t total = comm.allreduce_sum(decomp.local_real_size());
    EXPECT_EQ(total, dims.prod());
    const index_t stotal = comm.allreduce_sum(decomp.local_spectral_size());
    EXPECT_EQ(stotal, (dims[2] / 2 + 1) * dims[1] * dims[0]);
    // owner_of agrees with my own ranges.
    for (index_t i1 = decomp.range1().begin; i1 < decomp.range1().end; ++i1)
      for (index_t i2 = decomp.range2().begin; i2 < decomp.range2().end; ++i2)
        EXPECT_EQ(decomp.owner_of(i1, i2), comm.rank());
    // Row/col communicators have the advertised sizes.
    EXPECT_EQ(decomp.row_comm().size(), p2);
    EXPECT_EQ(decomp.col_comm().size(), p1);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompGeometry,
    ::testing::Values(DecompCase{{8, 8, 8}, 1, 1}, DecompCase{{8, 8, 8}, 2, 2},
                      DecompCase{{16, 12, 8}, 2, 3},
                      DecompCase{{10, 7, 6}, 4, 2},
                      DecompCase{{9, 9, 9}, 3, 3}));

TEST(FieldIo, GatherScatterRoundTrip) {
  const Int3 dims{10, 7, 6};
  auto full = random_full(dims, 5);
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, 2, 2);
    auto local = scatter_from_root(
        decomp, comm.is_root() ? std::span<const real_t>(full)
                               : std::span<const real_t>());
    EXPECT_EQ(static_cast<index_t>(local.size()), decomp.local_real_size());
    auto gathered = gather_to_root(decomp, local);
    if (comm.is_root()) {
      ASSERT_EQ(gathered.size(), full.size());
      for (size_t i = 0; i < full.size(); ++i)
        EXPECT_DOUBLE_EQ(gathered[i], full[i]);
    }
    // gather_to_all gives everyone the full volume.
    auto everywhere = gather_to_all(decomp, local);
    ASSERT_EQ(everywhere.size(), full.size());
    EXPECT_DOUBLE_EQ(everywhere[3], full[3]);
  });
}

TEST(FieldIo, ScatterPlacesBlocksCorrectly) {
  const Int3 dims{8, 8, 4};
  // full[i] encodes its own (i1, i2, i3).
  std::vector<real_t> full(dims.prod());
  for (index_t i1 = 0; i1 < dims[0]; ++i1)
    for (index_t i2 = 0; i2 < dims[1]; ++i2)
      for (index_t i3 = 0; i3 < dims[2]; ++i3)
        full[linear_index(i1, i2, i3, dims)] =
            100 * i1 + 10 * i2 + i3;
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, 2, 2);
    auto local = scatter_from_root(
        decomp, comm.is_root() ? std::span<const real_t>(full)
                               : std::span<const real_t>());
    const Int3 ld = decomp.local_real_dims();
    for (index_t a = 0; a < ld[0]; ++a)
      for (index_t b = 0; b < ld[1]; ++b)
        for (index_t c = 0; c < ld[2]; ++c) {
          const real_t expected = 100 * (decomp.range1().begin + a) +
                                  10 * (decomp.range2().begin + b) + c;
          EXPECT_DOUBLE_EQ(local[linear_index(a, b, c, ld)], expected);
        }
  });
}

struct GhostCase {
  Int3 dims;
  int p1, p2;
  index_t width;
};

class GhostExchangeSweep : public ::testing::TestWithParam<GhostCase> {};

TEST_P(GhostExchangeSweep, HaloMatchesPeriodicFullArray) {
  const auto [dims, p1, p2, width] = GetParam();
  auto full = random_full(dims, 17);
  mpisim::run_spmd(p1 * p2, [&, dims = dims, p1 = p1, p2 = p2,
                             width = width](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, p1, p2);
    auto local = scatter_from_root(
        decomp, comm.is_root() ? std::span<const real_t>(full)
                               : std::span<const real_t>());
    GhostExchange gx(decomp, width);
    std::vector<real_t> ghosted;
    gx.exchange(local, ghosted);

    const Int3 gd = gx.ghost_dims();
    const index_t lo1 = decomp.range1().begin, lo2 = decomp.range2().begin;
    for (index_t a = 0; a < gd[0]; ++a)
      for (index_t b = 0; b < gd[1]; ++b)
        for (index_t c = 0; c < gd[2]; ++c) {
          const index_t g1 = periodic_index(lo1 + a - width, dims[0]);
          const index_t g2 = periodic_index(lo2 + b - width, dims[1]);
          const index_t g3 = periodic_index(c - width, dims[2]);
          ASSERT_DOUBLE_EQ(ghosted[linear_index(a, b, c, gd)],
                           full[linear_index(g1, g2, g3, dims)])
              << "ghost (" << a << "," << b << "," << c << ")";
        }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GhostExchangeSweep,
    ::testing::Values(GhostCase{{8, 8, 8}, 1, 1, 2},
                      GhostCase{{8, 8, 8}, 2, 2, 2},
                      GhostCase{{8, 8, 8}, 2, 2, 1},
                      GhostCase{{12, 10, 6}, 2, 3, 2},
                      GhostCase{{10, 7, 6}, 2, 2, 3},
                      GhostCase{{8, 8, 4}, 4, 2, 2},
                      GhostCase{{9, 9, 9}, 3, 3, 2}));

TEST(GhostExchange, BatchedExchangeMatchesSequential) {
  // exchange_many must produce, per field, exactly what exchange produces —
  // while packing all fields into the same four neighbour messages.
  const Int3 dims{12, 10, 8};
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, 2, 2);
    GhostExchange gx(decomp, 2);
    const index_t n = decomp.local_real_size();
    constexpr int kFields = 3;
    std::array<std::vector<real_t>, kFields> fields;
    for (int f = 0; f < kFields; ++f) {
      fields[f].resize(n);
      for (index_t i = 0; i < n; ++i)
        fields[f][i] = std::sin(0.01 * static_cast<real_t>(i) + f) +
                       comm.rank();
    }

    std::vector<real_t> batched(kFields * gx.ghost_size());
    const real_t* ptrs[kFields] = {fields[0].data(), fields[1].data(),
                                   fields[2].data()};
    const auto msgs_before = comm.timings().messages(TimeKind::kInterpComm);
    gx.exchange_many(std::span<const real_t* const>(ptrs, kFields), batched);
    const auto batched_msgs =
        comm.timings().messages(TimeKind::kInterpComm) - msgs_before;
    // 2x2 grid: two neighbour messages per distributed dimension,
    // independent of the batch size.
    EXPECT_EQ(batched_msgs, 4u);

    std::vector<real_t> single;
    for (int f = 0; f < kFields; ++f) {
      gx.exchange(fields[f], single);
      for (index_t i = 0; i < gx.ghost_size(); ++i)
        ASSERT_DOUBLE_EQ(batched[f * gx.ghost_size() + i], single[i])
            << "field " << f << " at " << i;
    }
  });
}

TEST(GhostExchange, ReusedExchangerIsDeterministic) {
  // The persistent pack buffers must not leak state between calls.
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    GhostExchange gx(decomp, 2);
    std::vector<real_t> f(decomp.local_real_size());
    for (size_t i = 0; i < f.size(); ++i)
      f[i] = static_cast<real_t>((i * 2654435761u) % 997);
    std::vector<real_t> g1, g2;
    gx.exchange(f, g1);
    gx.exchange(f, g2);
    ASSERT_EQ(g1.size(), g2.size());
    for (size_t i = 0; i < g1.size(); ++i) ASSERT_EQ(g1[i], g2[i]);
  });
}

TEST(GhostExchange, RejectsOversizedHalo) {
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8}, 2, 2);
    EXPECT_THROW(GhostExchange(decomp, 5), std::invalid_argument);
  });
}

TEST(FieldMath, DistributedDotMatchesSerial) {
  const Int3 dims{8, 6, 4};
  auto a = random_full(dims, 1);
  auto b = random_full(dims, 2);
  real_t serial = 0;
  for (index_t i = 0; i < dims.prod(); ++i) serial += a[i] * b[i];
  serial *= cell_volume(dims);

  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, 2, 2);
    auto la = scatter_from_root(decomp, comm.is_root()
                                            ? std::span<const real_t>(a)
                                            : std::span<const real_t>());
    auto lb = scatter_from_root(decomp, comm.is_root()
                                            ? std::span<const real_t>(b)
                                            : std::span<const real_t>());
    EXPECT_NEAR(dot(decomp, la, lb), serial, 1e-12 * std::abs(serial) + 1e-14);
    EXPECT_NEAR(norm_l2(decomp, la) * norm_l2(decomp, la),
                dot(decomp, la, la), 1e-12);
  });
}

TEST(FieldMath, NormInfIsGlobalMax) {
  const Int3 dims{8, 8, 8};
  std::vector<real_t> full(dims.prod(), 0.5);
  full[linear_index(7, 7, 3, dims)] = -9.25;  // owned by the last rank
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims, 2, 2);
    auto local = scatter_from_root(
        decomp, comm.is_root() ? std::span<const real_t>(full)
                               : std::span<const real_t>());
    EXPECT_DOUBLE_EQ(norm_inf(decomp, local), 9.25);
  });
}

TEST(FieldMath, VectorFieldOps) {
  VectorField x(10), y(10);
  x.fill(2.0);
  y.fill(1.0);
  axpy(3.0, x, y);  // y = 1 + 3*2 = 7
  for (int d = 0; d < 3; ++d)
    for (real_t v : y[d]) EXPECT_DOUBLE_EQ(v, 7.0);
  scale(0.5, y);
  for (int d = 0; d < 3; ++d)
    for (real_t v : y[d]) EXPECT_DOUBLE_EQ(v, 3.5);
  VectorField z;
  copy(y, z);
  EXPECT_EQ(z.local_size(), y.local_size());
  EXPECT_DOUBLE_EQ(z[2][9], 3.5);
}

TEST(GhostExchange, HalosHideWireTime) {
  // The second slab of each dimension is packed and sent under the first
  // halo's flight, so for p > 1 some wire time must surface as hidden.
  const Int3 dims{12, 10, 8};
  for (auto [p1, p2] : {std::pair{2, 1}, {2, 2}, {3, 2}}) {
    auto timings = mpisim::run_spmd(
        p1 * p2, [&, p1 = p1, p2 = p2](mpisim::Communicator& comm) {
          grid::PencilDecomp decomp(comm, dims, p1, p2);
          ScalarField field(decomp.local_real_size(), 1.0);
          GhostExchange gx(decomp, 2, TimeKind::kInterpComm);
          std::vector<real_t> ghosted;
          comm.timings().clear();
          gx.exchange(field, ghosted);
        });
    double hidden = 0;
    for (const auto& t : timings) hidden += t.hidden(TimeKind::kInterpComm);
    EXPECT_GT(hidden, 0.0) << "p1=" << p1 << " p2=" << p2;
  }
}

TEST(GhostExchange, SkippedExchangeIsCaughtByScheduleVerifier) {
  // The halo exchange is pure point-to-point, but it calls
  // Communicator::verify_mark per distributed dimension — so under
  // --verify-schedule a rank that skips a whole exchange round (the classic
  // lockstep bug: divergent control flow around an exchange) is caught at
  // the next barrier, naming the first diverging op, instead of feeding its
  // stale halos into the interpolation.
  mpisim::SpmdOptions opts;
  opts.verify_schedule = true;
  std::atomic<int> caught{0};
  mpisim::run_spmd(
      4,
      [&](mpisim::Communicator& comm) {
        PencilDecomp decomp(comm, {16, 16, 8});
        GhostExchange ghost(decomp, /*width=*/2);
        std::vector<real_t> local(decomp.local_real_size(), comm.rank());
        std::vector<real_t> ghosted;
        try {
          ghost.exchange(local, ghosted);  // round every rank runs
          if (comm.rank() != 3) ghost.exchange(local, ghosted);
          // The decomp holds its own copy of the communicator, and the
          // verifier history lives per object — barrier on the same comm
          // the exchange marked, as solver code does.
          decomp.comm().barrier();
        } catch (const mpisim::ScheduleDivergenceError& e) {
          caught.fetch_add(1);
          // The decomp's schedule is: two ctor splits at two recorded ops
          // each (the split plus its internal allgather, ops 0-3), then
          // the first exchange's two marked dimension phases (ops 4-5);
          // the skipped second exchange diverges at its first mark, op 6.
          EXPECT_EQ(e.first_mismatch_index(), 6) << "rank " << comm.rank();
        }
      },
      opts);
  EXPECT_EQ(caught.load(), 4);
}

}  // namespace
}  // namespace diffreg::grid

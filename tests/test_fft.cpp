// FFT stack tests: the 1D engine against a naive DFT at every size up to 130
// (every radix mix, both sides of the Bluestein boundary), its batched and
// out-of-place entry points, Parseval/linearity properties, serial 3D round
// trips and spectral values, and the distributed pencil FFT against the
// serial reference for several process grids and uneven block sizes, with
// allocation-free warm transforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>

#include "fft/fft1d.hpp"
#include "fft/fft3d_distributed.hpp"
#include "fft/fft3d_serial.hpp"
#include "grid/field_io.hpp"
#include "mpisim/communicator.hpp"

// Global allocation counter backing the zero-allocation assertion below
// (same pattern as test_interp: replacing global operator new/delete is the
// only portable way to observe heap traffic; counting is gated).
namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// GCC pairs the std::free here with the replaced operator new above and
// (wrongly) reports a mismatched allocation function when both ends inline
// into the same caller; the pair is malloc/free by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace diffreg::fft {
namespace {

std::vector<complex_t> naive_dft(std::span<const complex_t> x) {
  const index_t n = static_cast<index_t>(x.size());
  std::vector<complex_t> out(n);
  for (index_t j = 0; j < n; ++j) {
    complex_t sum(0, 0);
    for (index_t k = 0; k < n; ++k) {
      // jk mod n keeps the phase below 2 pi, so the reference itself stays
      // accurate to a few ulps at every size.
      const real_t phase = -kTwoPi * static_cast<real_t>(j * k % n) / n;
      sum += x[k] * complex_t(std::cos(phase), std::sin(phase));
    }
    out[j] = sum;
  }
  return out;
}

std::vector<complex_t> random_signal(index_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1, 1);
  std::vector<complex_t> x(n);
  for (auto& v : x) v = complex_t(dist(rng), dist(rng));
  return x;
}

class Fft1dSize : public ::testing::TestWithParam<index_t> {};

TEST_P(Fft1dSize, MatchesNaiveDft) {
  const index_t n = GetParam();
  auto x = random_signal(n, 42 + static_cast<unsigned>(n));
  const auto expected = naive_dft(x);
  Fft1d plan(n);
  plan.forward(x.data());
  real_t err = 0, scale = 0;
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(x[j].real(), expected[j].real(), 1e-9 * n) << "j=" << j;
    EXPECT_NEAR(x[j].imag(), expected[j].imag(), 1e-9 * n) << "j=" << j;
    err = std::max(err, std::abs(x[j] - expected[j]));
    scale = std::max(scale, std::abs(expected[j]));
  }
  // A wrong twiddle shifts the result by far more than roundoff; the
  // engine stays within a few ulps of the reference at every size.
  EXPECT_LE(err, 1e-14 * scale) << "n=" << n;
}

TEST_P(Fft1dSize, InverseRoundTrip) {
  const index_t n = GetParam();
  auto x = random_signal(n, 7 + static_cast<unsigned>(n));
  const auto original = x;
  Fft1d plan(n);
  plan.forward(x.data());
  plan.inverse(x.data());
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(x[j].real(), original[j].real(), 1e-10 * n);
    EXPECT_NEAR(x[j].imag(), original[j].imag(), 1e-10 * n);
  }
}

TEST_P(Fft1dSize, ParsevalHolds) {
  const index_t n = GetParam();
  auto x = random_signal(n, 3 + static_cast<unsigned>(n));
  real_t time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1d plan(n);
  plan.forward(x.data());
  real_t freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-8 * n * time_energy);
}

// Every size up to 130: each radix mix (4, 2 and the table-driven odd
// primes up to 61), both sides of the 61/67 Bluestein boundary, and the
// primes 61, 67 and 127.
INSTANTIATE_TEST_SUITE_P(EverySizeTo130, Fft1dSize,
                         ::testing::Range(index_t{1}, index_t{131}));
// An even Bluestein size (134 = 2*67), a larger power of two, and the
// paper's brain-grid axis (300 = 2^2*3*5^2).
INSTANTIATE_TEST_SUITE_P(LargeSizes, Fft1dSize,
                         ::testing::Values(134, 256, 300));

TEST(Fft1d, LinearityAndDelta) {
  // DFT of a delta at k0 is a pure exponential.
  const index_t n = 16;
  std::vector<complex_t> x(n, complex_t(0, 0));
  x[3] = complex_t(1, 0);
  Fft1d plan(n);
  plan.forward(x.data());
  for (index_t j = 0; j < n; ++j) {
    const real_t phase = -kTwoPi * 3.0 * j / n;
    EXPECT_NEAR(x[j].real(), std::cos(phase), 1e-12);
    EXPECT_NEAR(x[j].imag(), std::sin(phase), 1e-12);
  }
}

// Batched entry points. 101 rows is no multiple of the engine's row block
// at any of these sizes, so the last block is partial.
class Fft1dBatch : public ::testing::TestWithParam<index_t> {};
constexpr index_t kBatchRows = 101;

TEST_P(Fft1dBatch, BatchTransformsRowsIndependently) {
  // forward_batch runs the same arithmetic as per-row forward: bitwise.
  const index_t n = GetParam();
  auto all = random_signal(n * kBatchRows, 11);
  auto expected = all;
  Fft1d plan(n);
  for (index_t r = 0; r < kBatchRows; ++r)
    plan.forward(expected.data() + r * n);
  plan.forward_batch(all.data(), kBatchRows);
  for (index_t i = 0; i < n * kBatchRows; ++i) {
    ASSERT_EQ(all[i].real(), expected[i].real()) << "i=" << i;
    ASSERT_EQ(all[i].imag(), expected[i].imag()) << "i=" << i;
  }
}

TEST_P(Fft1dBatch, InverseNoscaleOverloadsAgree) {
  // The in-place and out-of-place unnormalized inverses agree bitwise, and
  // both equal n * inverse per row.
  const index_t n = GetParam();
  const auto src = random_signal(n * kBatchRows, 12);
  Fft1d plan(n);
  auto in_place = src;
  plan.inverse_batch_noscale(in_place.data(), kBatchRows);
  std::vector<complex_t> out_of_place(src.size());
  plan.inverse_batch_noscale(src.data(), out_of_place.data(), kBatchRows);
  auto scaled = src;
  for (index_t r = 0; r < kBatchRows; ++r) plan.inverse(scaled.data() + r * n);
  for (index_t i = 0; i < n * kBatchRows; ++i) {
    ASSERT_EQ(in_place[i].real(), out_of_place[i].real()) << "i=" << i;
    ASSERT_EQ(in_place[i].imag(), out_of_place[i].imag()) << "i=" << i;
    const complex_t ref = scaled[i] * static_cast<real_t>(n);
    ASSERT_NEAR(in_place[i].real(), ref.real(), 1e-12 * n) << "i=" << i;
    ASSERT_NEAR(in_place[i].imag(), ref.imag(), 1e-12 * n) << "i=" << i;
  }
}

// Powers of two, the brain-48 axes (48 = 2^4*3, 56 = 2^3*7), an odd and an
// even Bluestein size, and the paper's 300.
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dBatch,
                         ::testing::Values(32, 48, 56, 64, 67, 134, 300));

TEST(Fft1d, ThrowsOnNonPositiveSize) {
  EXPECT_THROW(Fft1d(0), std::invalid_argument);
  EXPECT_THROW(Fft1d(-4), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Serial 3D.

std::vector<real_t> random_real(index_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1, 1);
  std::vector<real_t> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

class SerialFftDims : public ::testing::TestWithParam<Int3> {};

TEST_P(SerialFftDims, RoundTripIsIdentity) {
  const Int3 dims = GetParam();
  SerialFft3d fft(dims);
  auto x = random_real(dims.prod(), 99);
  std::vector<complex_t> spec(fft.spectral_size());
  std::vector<real_t> back(dims.prod());
  fft.forward(x, spec);
  fft.inverse(spec, back);
  for (index_t i = 0; i < dims.prod(); ++i)
    EXPECT_NEAR(back[i], x[i], 1e-10) << "i=" << i;
}

TEST_P(SerialFftDims, ConstantFieldHasOnlyMeanMode) {
  const Int3 dims = GetParam();
  SerialFft3d fft(dims);
  std::vector<real_t> x(dims.prod(), 2.5);
  std::vector<complex_t> spec(fft.spectral_size());
  fft.forward(x, spec);
  EXPECT_NEAR(spec[0].real(), 2.5 * dims.prod(), 1e-8 * dims.prod());
  EXPECT_NEAR(spec[0].imag(), 0.0, 1e-9 * dims.prod());
  real_t rest = 0;
  for (size_t i = 1; i < spec.size(); ++i) rest += std::abs(spec[i]);
  EXPECT_NEAR(rest, 0.0, 1e-7 * dims.prod());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerialFftDims,
                         ::testing::Values(Int3{8, 8, 8}, Int3{4, 8, 16},
                                           Int3{8, 12, 10}, Int3{6, 5, 7}));

TEST(SerialFft3d, SingleCosineModeLandsOnOneCoefficient) {
  const Int3 dims{8, 8, 8};
  SerialFft3d fft(dims);
  std::vector<real_t> x(dims.prod());
  // cos(2 x1) -> modes (±2, 0, 0); the half-spectrum keeps both.
  const real_t h = kTwoPi / dims[0];
  for (index_t i1 = 0; i1 < 8; ++i1)
    for (index_t i2 = 0; i2 < 8; ++i2)
      for (index_t i3 = 0; i3 < 8; ++i3)
        x[linear_index(i1, i2, i3, dims)] = std::cos(2 * i1 * h);
  std::vector<complex_t> spec(fft.spectral_size());
  fft.forward(x, spec);
  const Int3 sd = fft.spectral_dims();
  const index_t total = dims.prod();
  for (index_t k1 = 0; k1 < sd[0]; ++k1)
    for (index_t k2 = 0; k2 < sd[1]; ++k2)
      for (index_t k3 = 0; k3 < sd[2]; ++k3) {
        const complex_t v = spec[linear_index(k1, k2, k3, sd)];
        if ((k1 == 2 || k1 == 6) && k2 == 0 && k3 == 0)
          EXPECT_NEAR(v.real(), total / 2.0, 1e-8 * total);
        else
          EXPECT_NEAR(std::abs(v), 0.0, 1e-8 * total);
      }
}

// --------------------------------------------------------------------------
// Distributed 3D against the serial reference.

struct DistCase {
  Int3 dims;
  int p1, p2;
};

class DistributedFft : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedFft, MatchesSerialForwardAndInverse) {
  const auto [dims, p1, p2] = GetParam();
  const int p = p1 * p2;

  // Serial reference.
  auto full = random_real(dims.prod(), 1234);
  SerialFft3d serial(dims);
  std::vector<complex_t> serial_spec(serial.spectral_size());
  serial.forward(full, serial_spec);

  mpisim::run_spmd(p, [&, dims = dims, p1 = p1, p2 = p2](
                           mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, p1, p2);
    DistributedFft3d fft(decomp);

    auto local = grid::scatter_from_root(
        decomp, comm.is_root() ? std::span<const real_t>(full)
                               : std::span<const real_t>());
    std::vector<complex_t> spec(fft.local_spectral_size());
    fft.forward(local, spec);

    // Check every local spectral value against the serial layout
    // [k1][k2][k3c] (distributed layout is [k3c][k2][k1]).
    const Int3 sd = decomp.local_spectral_dims();
    const Int3 serial_sd = serial.spectral_dims();
    for (index_t a = 0; a < sd[0]; ++a) {
      const index_t k3 = decomp.srange3().begin + a;
      for (index_t b = 0; b < sd[1]; ++b) {
        const index_t k2 = decomp.srange2().begin + b;
        for (index_t c = 0; c < sd[2]; ++c) {
          const complex_t mine = spec[(a * sd[1] + b) * sd[2] + c];
          const complex_t ref =
              serial_spec[linear_index(c, k2, k3, serial_sd)];
          ASSERT_NEAR(mine.real(), ref.real(), 1e-8 * dims.prod());
          ASSERT_NEAR(mine.imag(), ref.imag(), 1e-8 * dims.prod());
        }
      }
    }

    // Round trip.
    std::vector<real_t> back(fft.local_real_size());
    fft.inverse(spec, back);
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      ASSERT_NEAR(back[i], local[i], 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(
    ProcessGrids, DistributedFft,
    ::testing::Values(DistCase{{8, 8, 8}, 1, 1}, DistCase{{8, 8, 8}, 1, 2},
                      DistCase{{8, 8, 8}, 2, 1}, DistCase{{8, 8, 8}, 2, 2},
                      DistCase{{16, 8, 12}, 2, 2},
                      DistCase{{8, 12, 8}, 2, 3},
                      DistCase{{12, 10, 6}, 3, 2},
                      // Uneven blocks: 10 over 4 and 7 over 2/3.
                      DistCase{{10, 7, 8}, 4, 2},
                      DistCase{{7, 10, 6}, 2, 3}));

// r2c/c2r axis-3 coverage: even/odd/mixed-radix/Bluestein N3, including odd
// local row counts (exercising the unpaired-last-row path) and the
// transpose-correctness sweep over p in {1, 2, 4, 6}.
INSTANTIATE_TEST_SUITE_P(
    RealTransformSizes, DistributedFft,
    ::testing::Values(DistCase{{5, 5, 5}, 1, 1},     // odd N3, odd rows
                      DistCase{{5, 5, 8}, 1, 2},     // odd local rows, p = 2
                      DistCase{{6, 6, 9}, 2, 2},     // mixed-radix odd N3
                      DistCase{{8, 6, 12}, 2, 3},    // mixed-radix even N3
                      DistCase{{5, 4, 67}, 1, 2},    // Bluestein N3
                      DistCase{{67, 4, 6}, 2, 1},    // Bluestein N1
                      DistCase{{4, 67, 6}, 2, 2},    // Bluestein N2
                      DistCase{{9, 7, 10}, 1, 4},    // p = 4, uneven
                      DistCase{{10, 9, 7}, 4, 1},    // p = 4, col-only
                      DistCase{{12, 7, 9}, 6, 1},    // p = 6, col-only
                      DistCase{{7, 12, 9}, 1, 6}));  // p = 6, row-only

// Every process-grid shape the transpose handles: 1x1 (no peers at all),
// one degenerate pencil dimension either way, and 2-D grids. 10x9x7 splits
// unevenly over all of them (k3 has 4 half-spectrum modes).
struct GridCase {
  int p1, p2;
};

class DistributedFft3dGrid : public ::testing::TestWithParam<GridCase> {};

const Int3 kUnevenDims{10, 9, 7};

TEST_P(DistributedFft3dGrid, BatchedManyMatchesSequentialBitwise) {
  // forward_many/inverse_many must agree bitwise with per-component
  // transforms: the batch changes the exchange schedule, not the arithmetic.
  const auto [p1, p2] = GetParam();
  mpisim::run_spmd(p1 * p2, [&, p1 = p1, p2 = p2](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, kUnevenDims, p1, p2);
    DistributedFft3d fft(decomp);
    const index_t nr = fft.local_real_size();
    const index_t ns = fft.local_spectral_size();

    std::vector<std::vector<real_t>> x(3);
    for (int c = 0; c < 3; ++c)
      x[c] = random_real(nr, 100 + 7 * static_cast<unsigned>(c) +
                                 static_cast<unsigned>(comm.rank()));

    // Sequential reference.
    std::vector<std::vector<complex_t>> spec_seq(3);
    for (int c = 0; c < 3; ++c) {
      spec_seq[c].resize(ns);
      fft.forward(x[c], spec_seq[c]);
    }
    std::vector<std::vector<real_t>> back_seq(3);
    for (int c = 0; c < 3; ++c) {
      back_seq[c].resize(nr);
      fft.inverse(spec_seq[c], back_seq[c]);
    }

    // Batched.
    std::vector<std::vector<complex_t>> spec_many(3);
    for (auto& s : spec_many) s.resize(ns);
    const real_t* reals[3] = {x[0].data(), x[1].data(), x[2].data()};
    complex_t* specs[3] = {spec_many[0].data(), spec_many[1].data(),
                           spec_many[2].data()};
    fft.forward_many(std::span<const real_t* const>(reals),
                     std::span<complex_t* const>(specs));
    for (int c = 0; c < 3; ++c)
      for (index_t i = 0; i < ns; ++i) {
        ASSERT_EQ(spec_many[c][i].real(), spec_seq[c][i].real());
        ASSERT_EQ(spec_many[c][i].imag(), spec_seq[c][i].imag());
      }

    std::vector<std::vector<real_t>> back_many(3);
    for (auto& b : back_many) b.resize(nr);
    const complex_t* cspecs[3] = {spec_many[0].data(), spec_many[1].data(),
                                  spec_many[2].data()};
    real_t* backs[3] = {back_many[0].data(), back_many[1].data(),
                        back_many[2].data()};
    fft.inverse_many(std::span<const complex_t* const>(cspecs),
                     std::span<real_t* const>(backs));
    for (int c = 0; c < 3; ++c)
      for (index_t i = 0; i < nr; ++i)
        ASSERT_EQ(back_many[c][i], back_seq[c][i]);
  });
}

TEST_P(DistributedFft3dGrid, CommCountersTrackExchangesAndBytes) {
  // Every transform = 2 alltoallv exchanges (row + col), scalar or batched,
  // whatever the grid. Bytes and messages are attributed to the FFT comm
  // category: none at 1x1, where every chunk stays on the rank, and some
  // on every other grid. Batching scales the chunks, not the messages.
  const auto [p1, p2] = GetParam();
  const bool alone = p1 * p2 == 1;
  auto timings = mpisim::run_spmd(p1 * p2, [&, p1 = p1, p2 = p2](
                                               mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, kUnevenDims, p1, p2);
    DistributedFft3d fft(decomp);
    std::vector<std::vector<real_t>> x(
        3, std::vector<real_t>(fft.local_real_size(), 1.0));
    std::vector<std::vector<complex_t>> spec(
        3, std::vector<complex_t>(fft.local_spectral_size()));
    const Timings& t = comm.timings();
    comm.timings().clear();
    fft.forward(x[0], spec[0]);
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 2u);
    const std::uint64_t scalar_messages = t.messages(TimeKind::kFftComm);
    fft.inverse(spec[0], x[0]);
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 4u);

    const real_t* creals[3] = {x[0].data(), x[1].data(), x[2].data()};
    real_t* reals[3] = {x[0].data(), x[1].data(), x[2].data()};
    complex_t* specs[3] = {spec[0].data(), spec[1].data(), spec[2].data()};
    const complex_t* cspecs[3] = {spec[0].data(), spec[1].data(),
                                  spec[2].data()};
    const std::uint64_t before_many = t.messages(TimeKind::kFftComm);
    fft.forward_many(std::span<const real_t* const>(creals),
                     std::span<complex_t* const>(specs));
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 6u);
    EXPECT_EQ(t.messages(TimeKind::kFftComm) - before_many, scalar_messages);
    fft.inverse_many(std::span<const complex_t* const>(cspecs),
                     std::span<real_t* const>(reals));
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 8u);
  });
  for (const auto& t : timings) {
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 8u);
    if (alone) {
      EXPECT_EQ(t.bytes(TimeKind::kFftComm), 0u);
      EXPECT_EQ(t.messages(TimeKind::kFftComm), 0u);
    } else {
      EXPECT_GT(t.bytes(TimeKind::kFftComm), 0u);
      EXPECT_GT(t.messages(TimeKind::kFftComm), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, DistributedFft3dGrid,
                         ::testing::Values(GridCase{1, 1}, GridCase{1, 3},
                                           GridCase{3, 1}, GridCase{2, 2},
                                           GridCase{2, 3}));

TEST(DistributedFft3d, RepeatedTransformsReuseBuffersBitwise) {
  // All pack/unpack scratch lives in the plan; running the same transform
  // twice must produce bit-identical results with the buffers reused.
  // WarmTransformsAreAllocationFree counts the allocations.
  const Int3 dims{12, 10, 8};
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft(decomp);
    auto x = random_real(fft.local_real_size(),
                         55 + static_cast<unsigned>(comm.rank()));
    std::vector<complex_t> spec1(fft.local_spectral_size());
    std::vector<complex_t> spec2(fft.local_spectral_size());
    std::vector<real_t> back1(fft.local_real_size());
    std::vector<real_t> back2(fft.local_real_size());
    fft.forward(x, spec1);
    fft.inverse(spec1, back1);
    fft.forward(x, spec2);
    fft.inverse(spec2, back2);
    for (index_t i = 0; i < fft.local_spectral_size(); ++i) {
      ASSERT_EQ(spec1[i].real(), spec2[i].real());
      ASSERT_EQ(spec1[i].imag(), spec2[i].imag());
    }
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      ASSERT_EQ(back1[i], back2[i]);
  });
}

TEST(DistributedFft3d, WarmTransformsAreAllocationFree) {
  // 12 = 4*3 and 14 = 2*7 run the Stockham engine, 67 runs Bluestein: after
  // one warm-up every transform entry point allocates nothing.
  const Int3 dims{12, 14, 67};
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    DistributedFft3d fft(decomp);
    const index_t nr = fft.local_real_size();
    const index_t ns = fft.local_spectral_size();
    std::vector<std::vector<real_t>> x(3);
    std::vector<std::vector<complex_t>> spec(3);
    for (int c = 0; c < 3; ++c) {
      x[c] = random_real(nr, 70 + static_cast<unsigned>(c));
      spec[c].resize(ns);
    }
    const real_t* creals[3] = {x[0].data(), x[1].data(), x[2].data()};
    real_t* reals[3] = {x[0].data(), x[1].data(), x[2].data()};
    complex_t* specs[3] = {spec[0].data(), spec[1].data(), spec[2].data()};
    const complex_t* cspecs[3] = {spec[0].data(), spec[1].data(),
                                  spec[2].data()};
    // Warm-up: one pass over every entry point.
    fft.forward(x[0], spec[0]);
    fft.inverse(spec[0], x[0]);
    fft.forward_many(std::span<const real_t* const>(creals),
                     std::span<complex_t* const>(specs));
    fft.inverse_many(std::span<const complex_t* const>(cspecs),
                     std::span<real_t* const>(reals));

    long long counts[4] = {-1, -1, -1, -1};
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    fft.forward(x[0], spec[0]);
    counts[0] = g_alloc_count.exchange(0);
    fft.inverse(spec[0], x[0]);
    counts[1] = g_alloc_count.exchange(0);
    fft.forward_many(std::span<const real_t* const>(creals),
                     std::span<complex_t* const>(specs));
    counts[2] = g_alloc_count.exchange(0);
    fft.inverse_many(std::span<const complex_t* const>(cspecs),
                     std::span<real_t* const>(reals));
    counts[3] = g_alloc_count.exchange(0);
    g_count_allocs.store(false);

    EXPECT_EQ(counts[0], 0) << "forward allocated";
    EXPECT_EQ(counts[1], 0) << "inverse allocated";
    EXPECT_EQ(counts[2], 0) << "forward_many allocated";
    EXPECT_EQ(counts[3], 0) << "inverse_many allocated";
  });
}

TEST(DistributedFft3d, TimingsAreAttributed) {
  const Int3 dims{16, 16, 16};
  auto timings = mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft(decomp);
    std::vector<real_t> x(fft.local_real_size(), 1.0);
    std::vector<complex_t> spec(fft.local_spectral_size());
    for (int rep = 0; rep < 3; ++rep) fft.forward(x, spec);
  });
  for (const auto& t : timings)
    EXPECT_GT(t.get(TimeKind::kFftExec), 0.0);
}

TEST(DistributedFft3d, TransposesHideWireTime) {
  // Every transpose copies its self chunk under the peer chunks' flight,
  // so for p > 1 some wire time must surface as hidden.
  const Int3 dims{20, 16, 12};
  for (int p : {2, 4, 6}) {
    auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      grid::PencilDecomp decomp(comm, dims);
      DistributedFft3d fft(decomp);
      auto x = random_real(fft.local_real_size(),
                           91 + static_cast<unsigned>(comm.rank()));
      std::vector<complex_t> spec(fft.local_spectral_size());
      comm.timings().clear();
      fft.forward(x, spec);
      fft.inverse(spec, x);
    });
    double hidden = 0;
    for (const auto& t : timings) hidden += t.hidden(TimeKind::kFftComm);
    EXPECT_GT(hidden, 0.0) << "p=" << p;
  }
}

}  // namespace
}  // namespace diffreg::fft

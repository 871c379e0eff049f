// Imaging module tests: synthetic generators (ranges, determinism,
// divergence-free property), reference construction, phantoms, IO round
// trips, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>

#include "grid/field_io.hpp"
#include "imaging/io.hpp"
#include "imaging/metrics.hpp"
#include "imaging/synthetic.hpp"
#include "mpisim/communicator.hpp"
#include "mutate.hpp"

namespace diffreg::imaging {
namespace {

using grid::PencilDecomp;

TEST(Synthetic, TemplateIsInUnitRangeAndMatchesFormula) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    auto rho = synthetic_template(decomp);
    for (real_t v : rho) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    // Spot check the formula at the block origin.
    const real_t h = kTwoPi / 16;
    const real_t x1 = decomp.range1().begin * h;
    const real_t x2 = decomp.range2().begin * h;
    const real_t expected =
        (std::sin(x1) * std::sin(x1) + std::sin(x2) * std::sin(x2)) / 3;
    EXPECT_NEAR(rho[0], expected, 1e-14);
  });
}

TEST(Synthetic, VelocityAmplitudeScales) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    auto v1 = synthetic_velocity(decomp, 1.0);
    auto v2 = synthetic_velocity(decomp, 2.0);
    for (int d = 0; d < 3; ++d)
      for (size_t i = 0; i < v1[d].size(); ++i)
        EXPECT_NEAR(v2[d][i], 2 * v1[d][i], 1e-14);
  });
}

TEST(Synthetic, DivFreeVelocityHasZeroDivergence) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto v = synthetic_velocity_divfree(decomp, 1.3);
    grid::ScalarField div;
    ops.divergence(v, div);
    EXPECT_LT(grid::norm_inf(decomp, div), 1e-11);
  });
}

TEST(Synthetic, ReferenceDiffersFromTemplateUnderFlow) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    auto rho_t = synthetic_template(decomp);
    auto v = synthetic_velocity(decomp, 0.5);
    auto rho_r = make_reference(ops, rho_t, v);
    EXPECT_GT(max_abs_difference(decomp, rho_r, rho_t), 0.01);
    // Zero velocity: reference equals template.
    grid::VectorField zero(decomp.local_real_size());
    auto same = make_reference(ops, rho_t, zero);
    EXPECT_LT(max_abs_difference(decomp, same, rho_t), 1e-12);
  });
}

TEST(Synthetic, SpherePhantomDecaysWithRadius) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    const Vec3 c{kTwoPi / 2, kTwoPi / 2, kTwoPi / 2};
    auto s = sphere_phantom(decomp, c, 1.0, 0.1);
    // Center voxel ~ 1, corner ~ 0.
    const real_t h = kTwoPi / 16;
    const index_t center =
        linear_index(8, 8, 8, decomp.local_real_dims());
    EXPECT_GT(s[center], 0.99);
    EXPECT_LT(s[0], 0.01);
    (void)h;
  });
}

TEST(Synthetic, BrainPhantomIsDeterministicPerSubject) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 20, 16});
    auto a1 = brain_phantom(decomp, 3);
    auto a2 = brain_phantom(decomp, 3);
    auto b = brain_phantom(decomp, 4);
    real_t same = 0, diff = 0;
    for (size_t i = 0; i < a1.size(); ++i) {
      same = std::max(same, std::abs(a1[i] - a2[i]));
      diff = std::max(diff, std::abs(a1[i] - b[i]));
    }
    EXPECT_EQ(same, 0.0) << "same subject must be bitwise identical";
    diff = comm.allreduce_max(diff);
    EXPECT_GT(diff, 0.05) << "different subjects must differ";
    for (real_t v : a1) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.2);
    }
  });
}

TEST(Synthetic, BrainPhantomHasTissueContrast) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {24, 28, 24});
    auto brain = brain_phantom(decomp, 1);
    real_t lo = 1e9, hi = -1e9;
    for (real_t v : brain) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_LT(lo, 0.05) << "background must be dark";
    EXPECT_GT(hi, 0.5) << "tissue must be bright";
  });
}

/// Writes `bytes` as `path`.raw.
void write_raw_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path + ".raw", std::ios::binary | std::ios::trunc) << bytes;
}

/// read_raw_volume(path, dims) must throw std::runtime_error naming
/// path.raw, with `expected` in its message.
void expect_read_throws(const std::string& path, const Int3& dims,
                        const std::string& expected) {
  try {
    read_raw_volume(path, dims);
    ADD_FAILURE() << "expected an error containing " << expected;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(expected), std::string::npos) << what;
    EXPECT_NE(what.find(path + ".raw"), std::string::npos) << what;
  }
}

TEST(Io, RawVolumeRoundTrip) {
  const Int3 dims{6, 5, 4};
  std::vector<real_t> vol(dims.prod());
  for (index_t i = 0; i < dims.prod(); ++i) vol[i] = 0.5 * i - 7;
  const std::string path = "/tmp/diffreg_test_volume";
  write_raw_volume(path, dims, vol);
  auto back = read_raw_volume(path, dims);
  ASSERT_EQ(back.size(), vol.size());
  for (size_t i = 0; i < vol.size(); ++i) EXPECT_DOUBLE_EQ(back[i], vol[i]);
  std::remove((path + ".raw").c_str());
  std::remove((path + ".mhd").c_str());
}

TEST(Io, TruncatedRawVolumeThrowsNamingTheFile) {
  // A partially written (or partially copied) volume must fail loudly with
  // the file name, not return a short buffer padded with stale memory.
  const Int3 dims{6, 5, 4};
  std::vector<real_t> vol(dims.prod(), 1.25);
  const std::string path = ::testing::TempDir() + "diffreg_truncated_volume";
  write_raw_volume(path, dims, vol);
  std::filesystem::resize_file(path + ".raw", 100);
  try {
    read_raw_volume(path, dims);
    FAIL() << "expected a truncated-file error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos);
    EXPECT_NE(what.find(path), std::string::npos);
  }
  // One byte short is as truncated, and so is a file read on a larger grid.
  std::filesystem::resize_file(path + ".raw", dims.prod() * 8 - 1);
  expect_read_throws(path, dims, "truncated");
  write_raw_volume(path, dims, vol);
  expect_read_throws(path, {6, 5, 5}, "truncated");
  std::remove((path + ".raw").c_str());
  std::remove((path + ".mhd").c_str());
}

TEST(Io, RawVolumeLongerThanTheGridThrows) {
  // A 6x5x4 volume read on a 6x5x3 grid: the reader used to take the first
  // 90 values and ignore the rest.
  const Int3 dims{6, 5, 4};
  const std::string path = ::testing::TempDir() + "diffreg_long_volume";
  write_raw_volume(path, dims, std::vector<real_t>(dims.prod(), 0.5));
  expect_read_throws(path, {6, 5, 3}, "oversized");
  // One byte too many is as wrong as a whole plane.
  std::filesystem::resize_file(path + ".raw", dims.prod() * 8 + 1);
  expect_read_throws(path, dims, "oversized");
  std::remove((path + ".raw").c_str());
  std::remove((path + ".mhd").c_str());
}

TEST(Io, RawVolumeWithANonFiniteValueThrows) {
  // A NaN in a template used to surface only inside the solve, as a
  // non-finite objective.
  const Int3 dims{4, 4, 4};
  const std::string path = ::testing::TempDir() + "diffreg_nan_volume";
  for (real_t bad : {std::numeric_limits<real_t>::quiet_NaN(),
                     -std::numeric_limits<real_t>::infinity()}) {
    std::vector<real_t> vol(dims.prod(), 0.25);
    vol[37] = bad;
    write_raw_volume(path, dims, vol);
    expect_read_throws(path, dims, "non-finite");
  }
  std::remove((path + ".raw").c_str());
  std::remove((path + ".mhd").c_str());
}

TEST(Io, SeededMutantsOfARawVolumeReadOrThrow) {
  // Seeded mutation fuzzing of an 8^3 .raw file (tests/mutate.hpp): each
  // mutant reads finite values from a file of exactly the grid's size, or
  // throws std::runtime_error.
  const Int3 dims{8, 8, 8};
  const std::string path = ::testing::TempDir() + "diffreg_fuzz_volume";
  std::vector<real_t> vol(dims.prod());
  for (index_t i = 0; i < dims.prod(); ++i)
    vol[i] = std::sin(0.1 * static_cast<real_t>(i));
  const std::string valid(reinterpret_cast<const char*>(vol.data()),
                          vol.size() * sizeof(real_t));
  std::mt19937_64 rng(29);
  int read = 0, threw = 0;
  for (int k = 0; k < 2000; ++k) {
    const std::string mutant = fuzz::mutate(valid, rng);
    write_raw_bytes(path, mutant);
    try {
      const std::vector<real_t> back = read_raw_volume(path, dims);
      EXPECT_EQ(mutant.size(), valid.size()) << k;
      EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                              [](real_t x) { return std::isfinite(x); }))
          << k;
      ++read;
    } catch (const std::runtime_error&) {
      ++threw;
    }
  }
  std::remove((path + ".raw").c_str());
  EXPECT_GT(read, 0);
  EXPECT_GT(threw, 0);
}

TEST(Io, RawVolumeThrowsWhenItsHeaderCannotBeWritten) {
  // Both files of a volume go through the one atomic writer: a header that
  // cannot be written throws, naming the file, instead of returning with
  // only the .raw written.
  const std::string dir = ::testing::TempDir() + "diffreg_unwritable_header";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/v.mhd");
  const Int3 dims{4, 3, 2};
  const std::vector<real_t> vol(dims.prod(), 0.5);
  try {
    write_raw_volume(dir + "/v", dims, vol);
    ADD_FAILURE() << "expected a write error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot write " + dir + "/v.mhd"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/v.mhd.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Io, PgmSliceHasCorrectHeaderAndSize) {
  const Int3 dims{4, 3, 5};
  std::vector<real_t> vol(dims.prod());
  for (index_t i = 0; i < dims.prod(); ++i) vol[i] = static_cast<real_t>(i);
  const std::string path = "/tmp/diffreg_test_slice.pgm";
  write_pgm_slice(path, dims, vol, 2);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> data(w * h);
  in.read(data.data(), w * h);
  EXPECT_EQ(in.gcount(), w * h);
  std::remove(path.c_str());
}

TEST(Io, PgmRejectsOutOfRangeSlice) {
  const Int3 dims{4, 3, 5};
  std::vector<real_t> vol(dims.prod(), 0.0);
  EXPECT_THROW(write_pgm_slice("/tmp/x.pgm", dims, vol, 4),
               std::invalid_argument);
  EXPECT_THROW(write_pgm_slice("/tmp/x.pgm", dims, vol, -1),
               std::invalid_argument);
}

TEST(Metrics, RelativeResidualBoundaryCases) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {8, 8, 8});
    auto a = synthetic_template(decomp);
    grid::ScalarField b = a;
    // Perfect match -> 0; no improvement (deformed == original) -> 1.
    grid::ScalarField shifted = a;
    for (auto& v : shifted) v += 0.25;
    EXPECT_NEAR(relative_residual(decomp, b, a, shifted), 0.0, 1e-14);
    EXPECT_NEAR(relative_residual(decomp, shifted, a, shifted), 1.0, 1e-12);
  });
}

}  // namespace
}  // namespace diffreg::imaging

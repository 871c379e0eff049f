// Minimal volume/slice IO: raw volumes with a MetaImage-style text header
// and PGM grayscale slice dumps (used to render the paper's figure panels).
// All functions operate on full (gathered) arrays and are intended for
// rank 0.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace diffreg::imaging {

/// Writes `full` as <path>.raw plus a small <path>.mhd-style header.
void write_raw_volume(const std::string& path, const Int3& dims,
                      std::span<const real_t> full);

/// Reads a volume written by write_raw_volume. Throws on size mismatch.
std::vector<real_t> read_raw_volume(const std::string& path,
                                    const Int3& dims);

/// Writes the axial slice i1 = `slice` of a [N1][N2][N3] volume as an 8-bit
/// PGM image (N2 x N3), normalized to [lo, hi] (hi <= lo -> auto range).
void write_pgm_slice(const std::string& path, const Int3& dims,
                     std::span<const real_t> full, index_t slice,
                     real_t lo = 0, real_t hi = -1);

}  // namespace diffreg::imaging

// Rank-0 file I/O: the one reader and the one atomic writer behind every
// file the library reads or writes (volumes, slices, solver checkpoints,
// batch manifests), the collective verdict that makes a rank-0 failure
// throw on every rank, and the volume formats themselves — raw volumes with
// a MetaImage-style text header and PGM grayscale slice dumps (used to
// render the paper's figure panels). The volume functions operate on full
// (gathered) arrays and are intended for rank 0.
#pragma once

#include <cstddef>
#include <exception>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mpisim/communicator.hpp"

namespace diffreg::imaging {

/// Fills `parts` in order from the start of `path`, then appends the rest
/// of the file to `*rest` when `rest` is set. Returns false, reading
/// nothing, when `path` does not exist. Throws std::runtime_error naming
/// the path when it exists but cannot be read ("cannot open", "cannot
/// read") or ends before `parts` are full ("truncated file").
[[nodiscard]] bool read_file(
    const std::string& path,
    std::initializer_list<std::span<std::byte>> parts,
    std::string* rest = nullptr);

/// Writes `parts` back to back to `path + ".tmp"` and renames it over
/// `path`, so a crash mid-write leaves the previous file in place. On
/// failure the temporary file is removed and std::runtime_error("cannot
/// write PATH") is thrown.
void write_file_atomic(
    const std::string& path,
    std::initializer_list<std::span<const std::byte>> parts);

/// Runs `io` on rank 0 of `comm` and broadcasts the text of any exception
/// it throws (empty: it returned). Every rank then throws `Error(text)`
/// together, so a failed read or write never strands the other ranks in a
/// collective. Collective.
template <typename Error, typename Io>
void root_io(mpisim::Communicator& comm, Io&& io) {
  std::string error;
  if (comm.is_root()) {
    try {
      io();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  comm.set_time_kind(TimeKind::kOther);
  comm.broadcast(error, 0);
  if (!error.empty()) throw Error(error);
}

/// Writes `full` as <path>.raw plus a small <path>.mhd-style header.
void write_raw_volume(const std::string& path, const Int3& dims,
                      std::span<const real_t> full);

/// Reads a volume written by write_raw_volume. Throws std::runtime_error
/// naming <path>.raw unless it holds exactly dims.prod() doubles (checked
/// before reading) and every one of them is finite.
std::vector<real_t> read_raw_volume(const std::string& path,
                                    const Int3& dims);

/// Writes the axial slice i1 = `slice` of a [N1][N2][N3] volume as an 8-bit
/// PGM image (N2 x N3), normalized to [lo, hi] (hi <= lo -> auto range).
void write_pgm_slice(const std::string& path, const Int3& dims,
                     std::span<const real_t> full, index_t slice,
                     real_t lo = 0, real_t hi = -1);

}  // namespace diffreg::imaging

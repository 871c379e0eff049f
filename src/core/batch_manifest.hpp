/// @file batch_manifest.hpp
/// Batch-level checkpoint/resume: the per-job outcome manifest.
///
/// A batch manifest is a small JSON file (`--batch-manifest state.json`)
/// recording, for every job of a batch, its last known outcome, attempt
/// count, completion time, and per-job solver-checkpoint path. A killed
/// `--batch` process rerun with the same job list and manifest path skips
/// the jobs the manifest marks final and warm-starts in-flight jobs from
/// their solver checkpoints (core/checkpoint.hpp) — the batch analogue of
/// the per-solve checkpoint/restart of docs/FAULT_MODEL.md.
///
/// File format (version 1, one job object per line so the parser can stay
/// line-based; paths must not contain '"'):
///
///     {
///       "version": 1,
///       "jobs": [
///         {"job_id": 1, "outcome": "done", "attempts": 1,
///          "completed_at_seconds": 1.25, "deadline_met": true,
///          "checkpoint": "state.json.job1.ckpt"},
///         ...
///       ]
///     }
///
/// Every number must be finite, and job_id, attempts and version must be
/// integers their fields hold (job_id is unsigned 64-bit, attempts an int):
/// anything else makes the manifest malformed.
///
/// Durability and collectivity follow core/checkpoint, through the same
/// imaging/io helpers: writes go to `path + ".tmp"` and rename into place
/// (a kill mid-write never corrupts the previous manifest), all I/O runs
/// on rank 0 of the calling communicator, and rank 0's verdict is
/// broadcast (imaging::root_io) so failures throw BatchManifestError on
/// EVERY rank instead of hanging the others. Updates
/// are read-merge-rewrite under a process-wide lock: in the thread-backed
/// mpisim runtime the shards of one batch are threads of one process and
/// funnel their shard-root writes through the same file. (A real-MPI port
/// would funnel through one writer rank or per-shard files instead.)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpisim/communicator.hpp"

namespace diffreg::core {

/// Raised (collectively) on unreadable, unparseable, or unwritable batch
/// manifests. Deliberately NOT a CommError: a manifest failure is an I/O
/// problem, never a transport fault the batch retry machinery should eat.
class BatchManifestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One job's persisted state. `outcome` holds the JobOutcome name used by
/// the batch layer ("pending", "retrying", "done", "degraded", "poisoned",
/// "deadline-exceeded"); unknown names degrade to "pending" on load so a
/// newer manifest re-runs rather than wedges an older binary.
struct BatchManifestEntry {
  std::uint64_t job_id = 0;
  std::string outcome = "pending";
  int attempts = 0;
  double completed_at_seconds = 0;
  bool deadline_met = true;
  std::string checkpoint_path;
};

/// Collective load: rank 0 reads and parses `path`, then broadcasts its
/// verdict and the text (one broadcast each); the other ranks parse the
/// identical text. A missing file yields an empty manifest everywhere;
/// read and parse failures throw BatchManifestError on every rank.
std::vector<BatchManifestEntry> load_manifest(mpisim::Communicator& comm,
                                              const std::string& path);

/// Collective update: rank 0 merges `updates` into the manifest (matched by
/// job_id; new ids append) and rewrites it atomically, under the
/// process-wide manifest lock; the verdict is broadcast and failures throw
/// BatchManifestError on every rank. All ranks of `comm` must call together.
void update_manifest(mpisim::Communicator& comm, const std::string& path,
                     const std::vector<BatchManifestEntry>& updates);

}  // namespace diffreg::core

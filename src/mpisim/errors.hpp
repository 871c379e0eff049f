/// @file errors.hpp
/// Structured communication failures for the fault-tolerant runtime.
///
/// The watchdog (Communicator timeouts on recv/wait/barrier) and the wire
/// checksum validation never report a bare "something broke": every failure
/// carries a machine-readable diagnosis — which rank, blocked on which
/// (src, tag), what was still missing, and a snapshot of the rank's comm
/// counters — so a hung or corrupted run dies with the information a
/// post-mortem needs instead of a stack of blocked threads. The class name
/// is embedded in what() so log greps (and the chaos CI job) can classify
/// failures without RTTI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace diffreg::mpisim {

/// FNV-1a 64-bit over a byte payload: the wire-checksum hash. Not
/// cryptographic — it only needs to make truncation and bit-flips loud.
// diffreg:zero-alloc
inline std::uint64_t fnv1a64(std::span<const std::byte> data) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::byte b : data) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Per-rank snapshot assembled at the moment a communication failure is
/// raised: who failed, inside which operation, waiting on whom, and how much
/// traffic the rank had moved up to that point (from its Timings).
struct CommDiagnosis {
  int rank = 0;
  int size = 0;
  std::string operation;  ///< "recv", "nonblocking wait", "barrier", ...
  int src = -1;           ///< Blocking source rank (-1: not a point-to-point).
  int tag = -1;           ///< Blocking tag (-1: not a point-to-point).
  double waited_ms = 0;   ///< The deadline the rank blocked for.
  /// Outstanding (src, tag) matches that had NOT arrived when the deadline
  /// expired (probe snapshot; nonblocking waits list every missing peer).
  std::vector<std::pair<int, int>> missing;
  std::uint64_t bytes_sent = 0;   ///< Timings total at failure time.
  std::uint64_t messages_sent = 0;
  std::uint64_t exchanges = 0;

  /// One-line human-readable rendering (embedded into what()).
  std::string describe() const;
};

/// Base of every structured communication failure.
class CommError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated the Communicator API contract: mismatched buffer
/// sizes, malformed count tables, misuse of the one-outstanding-request
/// rule. These are programming errors, not wire failures — but they are
/// structured all the same so src/mpisim has a single exception root (the
/// contract lint in tools/lint enforces that every throw derives from
/// CommError).
class CommContractError : public CommError {
 public:
  explicit CommContractError(const std::string& what)
      : CommError("CommContractError: " + what) {}
};

/// A malformed runtime-configuration string (e.g. a --fault-spec value):
/// rejected host-side before any ranks spawn.
class CommConfigError : public CommError {
 public:
  explicit CommConfigError(const std::string& what)
      : CommError("CommConfigError: " + what) {}
};

/// A watchdog deadline expired on a blocking receive, request wait, or
/// barrier. Carries the full per-rank diagnosis.
class CommTimeoutError : public CommError {
 public:
  explicit CommTimeoutError(CommDiagnosis diagnosis)
      : CommError("CommTimeoutError: " + diagnosis.describe()),
        diagnosis_(std::move(diagnosis)) {}

  const CommDiagnosis& diagnosis() const { return diagnosis_; }

 private:
  CommDiagnosis diagnosis_;
};

/// A received payload failed checksum validation (or was too short to carry
/// its trailer): the message was truncated or corrupted on the wire.
class CommIntegrityError : public CommError {
 public:
  CommIntegrityError(int rank, int src, int tag, std::size_t payload_bytes,
                     const std::string& detail)
      : CommError("CommIntegrityError: rank " + std::to_string(rank) +
                  " received a corrupt payload from rank " +
                  std::to_string(src) + " (tag " + std::to_string(tag) + ", " +
                  std::to_string(payload_bytes) + " bytes): " + detail),
        src_(src),
        tag_(tag) {}

  int src() const { return src_; }
  int tag() const { return tag_; }

 private:
  int src_ = -1;
  int tag_ = -1;
};

/// Raised by the fault injector when the configured crash step is reached:
/// models a rank dying mid-run (the surviving ranks then hit the watchdog).
class RankCrashError : public CommError {
 public:
  RankCrashError(int rank, long step)
      : CommError("RankCrashError: rank " + std::to_string(rank) +
                  " crashed by fault injection at backend step " +
                  std::to_string(step)) {}
};

/// Raised on EVERY rank by the opt-in collective-schedule verifier
/// (--verify-schedule) when the ranks of a communicator disagree on the
/// sequence of collective operations they issued — the bug class that
/// otherwise presents as a silent hang (some ranks inside exchange k, the
/// rest inside exchange k+1) or as data landing in the wrong exchange.
/// Carries the usual per-rank CommDiagnosis plus the first op index at
/// which the recorded schedules differ and THIS rank's operation at that
/// index, so the post-mortem names the exact call site class instead of a
/// stack of blocked threads.
class ScheduleDivergenceError : public CommError {
 public:
  ScheduleDivergenceError(CommDiagnosis diagnosis, long first_mismatch_index,
                          long ops_recorded, std::string op_description)
      : CommError(
            "ScheduleDivergenceError: " + diagnosis.describe() +
            " — collective schedules diverge at op index " +
            std::to_string(first_mismatch_index) + " (this rank recorded " +
            std::to_string(ops_recorded) + " collective op(s); op " +
            std::to_string(first_mismatch_index) + " on this rank: " +
            op_description + ")"),
        diagnosis_(std::move(diagnosis)),
        first_mismatch_index_(first_mismatch_index),
        ops_recorded_(ops_recorded),
        op_description_(std::move(op_description)) {}

  const CommDiagnosis& diagnosis() const { return diagnosis_; }
  /// First index (0-based, per communicator object) at which the per-rank
  /// schedule histories disagree; -1 when the rolling hashes diverged but
  /// the exchanged histories did not localize an index (only possible via
  /// hash collision).
  long first_mismatch_index() const { return first_mismatch_index_; }
  /// How many collective ops THIS rank had recorded when the divergence
  /// was detected.
  long ops_recorded() const { return ops_recorded_; }
  /// Human-readable signature of this rank's op at the mismatch index (or
  /// a note that the rank's schedule was already exhausted there).
  const std::string& op_description() const { return op_description_; }

 private:
  CommDiagnosis diagnosis_;
  long first_mismatch_index_ = -1;
  long ops_recorded_ = 0;
  std::string op_description_;
};

}  // namespace diffreg::mpisim

/// @file fault_injection.hpp
/// Deterministic seeded fault injection behind the Backend interface.
///
/// `FaultInjectingBackend` decorates any `mpisim::Backend` and perturbs the
/// byte stream the way a sick network or a dying node would: per-message
/// delivery delay, message drop, duplicate delivery, payload truncation,
/// payload bit-flips, and rank-crash-at-step. Every decision is drawn from a
/// counter-keyed hash of (seed, rank, message index), NOT from a shared RNG
/// stream, so a given spec perturbs the same messages on every run
/// regardless of thread scheduling — chaos tests are reproducible bug
/// reports, not flakes.
///
/// Specs are parsed from a flat key=value string (the `--fault-spec` CLI
/// flag and the DIFFREG_FAULT_SPEC environment hook):
///
///     "seed=7,drop=0.01,delay_ms=5,delay_prob=0.1"
///
/// Keys: seed (u64), drop / dup / truncate / bitflip (probabilities in
/// [0,1]), delay_ms (per-delayed-message sleep in ms, at most 3.6e6),
/// delay_prob (fraction of messages delayed; default 1 when delay_ms is
/// set), crash_rank /
/// crash_at (the given LAUNCH rank throws RankCrashError once a backend's
/// op count first exceeds crash_at), crash_repeat (0/1: with 0 — the
/// default — the crash fires ONCE per rank, modeling a transient node
/// death whose rank rejoins after the failure is caught and recovered;
/// with 1 every backend op past crash_at keeps throwing, modeling a node
/// that stays down), checksum (0/1: ask the Communicator to run wire
/// checksums so corruption surfaces as CommIntegrityError instead of wrong
/// answers). crash_rank names the rank of the LAUNCH communicator — the
/// crash follows that rank into every split sub-communicator instead of
/// re-triggering on whichever sub-rank happens to share the number.
/// Every value must be a finite number; integer keys must be integers
/// their type holds (crash_repeat and checksum: 0 or 1). Unknown keys and
/// malformed or out-of-range values throw CommConfigError (errors.hpp).
///
/// See docs/FAULT_MODEL.md for the fault taxonomy and how the chaos CI job
/// uses these specs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpisim/backend.hpp"

namespace diffreg::mpisim {

/// Parsed fault schedule. Default-constructed = no faults.
struct FaultSpec {
  std::uint64_t seed = 1;
  double drop = 0;      ///< P(message silently dropped on the wire).
  double dup = 0;       ///< P(message delivered twice).
  double truncate = 0;  ///< P(payload loses its trailing 1..8 bytes).
  double bitflip = 0;   ///< P(one payload bit inverted).
  double delay_ms = 0;  ///< Sleep applied to delayed messages.
  double delay_prob = 1.0;  ///< Fraction of messages delayed (when delay_ms>0).
  int crash_rank = -1;      ///< Launch rank that crashes (-1: nobody).
  long crash_at = -1;       ///< Backend step at which crash_rank throws.
  /// false: the crash fires once per rank (transient death — the rank
  /// rejoins after the failure is caught). true: every backend op past
  /// crash_at throws (the node stays down).
  bool crash_repeat = false;
  bool checksum = false;    ///< Request wire checksums from the Communicator.

  /// True when any perturbation is configured (checksum alone is not one).
  bool enabled() const {
    return drop > 0 || dup > 0 || truncate > 0 || bitflip > 0 ||
           delay_ms > 0 || crash_rank >= 0;
  }

  /// Parses the key=value spec grammar above; throws CommConfigError on
  /// unknown keys, malformed numbers, or out-of-range values.
  static FaultSpec parse(const std::string& spec);
};

/// Crash bookkeeping shared by every FaultInjectingBackend of one rank's
/// wrapper family (the launch wrapper and all its split() descendants).
/// `root_rank` pins the crash to a LAUNCH rank identity — sub-communicator
/// rank numbers are renumbered on split and must not re-match crash_rank —
/// and `crashed` makes the default crash one-shot across the whole family:
/// whichever backend instance first passes its crash_at step consumes the
/// crash for the rank.
struct FaultRankState {
  int root_rank = -1;    ///< Rank id on the launch communicator.
  bool crashed = false;  ///< The one-shot crash has already fired.
};

/// Backend decorator applying a FaultSpec to every message. Wraps the inner
/// transport 1:1 — same rank/size/clock — and rewraps sub-communicators on
/// split() so faults follow the rank into row/col exchanges.
class FaultInjectingBackend final : public Backend {
 public:
  FaultInjectingBackend(std::shared_ptr<Backend> inner, const FaultSpec& spec)
      : inner_(std::move(inner)),
        spec_(spec),
        rank_state_(std::make_shared<FaultRankState>(
            FaultRankState{inner_->rank(), false})) {}

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  void send_bytes(std::span<const std::byte> data, int dest,
                  int tag) override;
  std::optional<Incoming> recv_bytes(int src, int tag,
                                     double timeout_ms) override;
  bool probe(int src, int tag) override;
  bool barrier(double timeout_ms) override;
  std::shared_ptr<Backend> split(int color, int new_rank, int new_size,
                                 double timeout_ms) override;
  std::size_t drain() override { return inner_->drain(); }
  double now() const override { return inner_->now(); }

 private:
  /// Child constructor (split): inherits the parent's per-rank crash state
  /// so the one-shot crash is consumed once per rank, not once per
  /// sub-communicator.
  FaultInjectingBackend(std::shared_ptr<Backend> inner, const FaultSpec& spec,
                        std::shared_ptr<FaultRankState> rank_state)
      : inner_(std::move(inner)),
        spec_(spec),
        rank_state_(std::move(rank_state)) {}

  /// Deterministic uniform draw in [0, 1) for decision `salt` of message
  /// `message`: a splitmix64 hash of (seed, rank, message, salt).
  double roll(std::uint64_t message, std::uint64_t salt) const;
  /// Counts a backend operation and throws RankCrashError when this rank's
  /// configured crash step is reached.
  void step();

  std::shared_ptr<Backend> inner_;
  FaultSpec spec_;
  std::shared_ptr<FaultRankState> rank_state_;
  long op_count_ = 0;            ///< All backend calls (crash_at clock).
  std::uint64_t msg_count_ = 0;  ///< Sends only (per-message RNG key).
  std::vector<std::byte> scratch_;  ///< Corruption staging (reused).
};

}  // namespace diffreg::mpisim

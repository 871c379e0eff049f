/// @file communicator.hpp
/// mpisim: a thread-backed message-passing runtime.
///
/// The paper's solver is an MPI SPMD program (TACC Maverick/Stampede). This
/// machine has no MPI, so we reproduce the programming model: `run_spmd(p, f)`
/// launches p "ranks" (threads) that may only exchange data through a
/// Communicator — point-to-point messages are copied through per-rank
/// mailboxes, so all data movement that would be network traffic under MPI is
/// real buffer traffic here, and is accounted separately from computation via
/// the Timings categories (the comm/exec split of Tables I-IV).
///
/// The Communicator itself is transport-agnostic: every byte that moves goes
/// through the abstract `Backend` interface (backend.hpp). The collective
/// algorithms, consistency self-checks, wire-precision conversions, and all
/// Timings accounting live HERE, so a real-MPI backend inherits them — and
/// the entire test suite — by implementing six byte-level primitives.
///
/// Supported surface (what the solver needs): rank/size, barrier, send/recv,
/// sendrecv, broadcast, allreduce (sum/max/min, scalar and element-wise
/// vector), allgather, alltoall(v), nonblocking alltoallv / point-to-point
/// variants returning CommRequest completion handles, and communicator
/// splitting (row/col sub-communicators of the pencil grid).
///
/// Collective algorithms (all O(log p) message depth, no rank-0 funnel):
///   broadcast         binomial tree rooted at `root`
///   allgather         Bruck dissemination (works for any p)
///   allreduce scalar  recursive doubling; non-power-of-two ranks fold into
///                     the largest power-of-two group first and get the
///                     result back afterwards
///   allreduce vector  binomial-tree reduce to rank 0 + binomial broadcast
///                     (reduce-then-broadcast, for batched field norms)
///   alltoallv         pairwise exchange (p-1 rounds, bandwidth-bound by
///                     design) with a collective-consistency self-check; a
///                     span-based overload works over caller-owned flat
///                     buffers so hot paths (the FFT transposes) allocate
///                     nothing per call, and a converting overload
///                     (alltoallv_converted) down-converts the payload into
///                     caller-owned fp32 staging buffers before it hits the
///                     wire and up-converts on receive — half the bytes for
///                     ~1e-7 relative rounding (WirePrecision::kF32)
/// Scalar allreduce combines operands in subgroup order, so every rank
/// computes bitwise-identical results; the vector form broadcasts rank 0's
/// combination, which is likewise identical everywhere.
///
/// Every exchange has ONE implementation, the nonblocking post
/// (`ialltoallv`, `ialltoallv_converted`, `irecv_widened`, `irecv_into`):
/// it checks the call, pushes every outgoing message (sends are buffered and
/// complete at post), and defers the receives behind a `CommRequest`. The
/// blocking forms (`alltoallv`, `alltoallv_converted`, `recv_widened`) are
/// that post followed at once by completion, so both forms share tags,
/// payload order and byte / message / exchange counters by construction.
/// Between post and `wait()` the caller computes; the span of wire time that
/// elapsed under that compute is accounted to the Timings hidden-comm
/// counter, which is how the overlap efficiency of Tables I-IV's comm legs is
/// measured (a blocking call hides nothing and credits exactly 0). At most
/// ONE request may be outstanding per Communicator: any receive, barrier, or
/// collective while one is pending throws (wait-before-read enforcement),
/// which turns forgotten waits into loud errors instead of stolen messages.
/// Plain sends stay legal while a request is in flight — they are buffered
/// and cannot race the pending receives — which is what lets GhostExchange
/// push the second halo slab under the first one's flight.
///
/// Every send is also accounted to the rank's Timings as (bytes, messages)
/// under the communicator's current TimeKind, and each alltoallv entered
/// bumps an exchange counter — this is the comm-volume side of the paper's
/// comm/exec split (Tables I-IV report time; the counters make message-count
/// regressions visible too).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/precision.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "mpisim/backend.hpp"
#include "mpisim/errors.hpp"

namespace diffreg::mpisim {

class Communicator;

namespace detail {

/// One deferred receive of an outstanding request. The storage lives in the
/// owning Communicator (grow-only, reused across posts) so warm exchanges
/// allocate nothing.
struct PendingRecv {
  int src = 0;
  int tag = 0;
  /// Destination bytes: the final buffer (plain receives) or the Wide
  /// buffer a widening receive up-converts into.
  std::byte* dst = nullptr;
  /// Exact wire payload size the matching message must carry.
  size_t payload_bytes = 0;
  /// Element count of the receive (payload_bytes / wire element size).
  size_t elems = 0;
  /// Non-null for widening receives: up-converts `elems` Narrow elements of
  /// the wire payload straight into `dst`. Null receives memcpy instead.
  void (*widen)(const std::byte* payload, std::byte* dst, size_t elems) =
      nullptr;
};

/// Widening kernel instantiated per (Wide, Narrow) pair for PendingRecv.
template <typename Wide, typename Narrow>
void widen_payload(const std::byte* payload, std::byte* dst, size_t elems) {
  widen_into(
      std::span<const Narrow>(reinterpret_cast<const Narrow*>(payload), elems),
      std::span<Wide>(reinterpret_cast<Wide*>(dst), elems));
}

/// The deferred receive of `elems` Wide elements into `dst` that travel the
/// wire as Narrow (Narrow == Wide: a plain copy, no conversion).
template <typename Wide, typename Narrow>
PendingRecv pending_recv(int src, int tag, Wide* dst, size_t elems) {
  static_assert(std::is_trivially_copyable_v<Wide>);
  PendingRecv pr{src, tag, reinterpret_cast<std::byte*>(dst),
                 elems * sizeof(Narrow), elems};
  if constexpr (!std::is_same_v<Wide, Narrow>)
    pr.widen = &widen_payload<Wide, Narrow>;
  return pr;
}

}  // namespace detail

/// Collective-op classes recorded by the schedule verifier
/// (Communicator::set_verify_schedule). The numeric values are folded into
/// the per-rank schedule hash, so they are part of the verifier wire format
/// (docs/ANALYSIS.md): append new kinds at the end, never renumber.
enum class ScheduleOpKind : std::uint8_t {
  kBarrier = 0,
  kBroadcast,
  kAllreduce,
  kAllreduceVec,
  kAllgather,
  kAlltoall,
  kAlltoallv,
  kSplit,
  kMark,
};

namespace detail {

/// Rank-invariant signature of one recorded collective op: exactly the
/// fields the rolling schedule hash folds, retained per op so a detected
/// divergence can be reported as "op k on this rank was X" instead of a
/// bare hash mismatch.
struct ScheduleOpSig {
  ScheduleOpKind kind;
  int tag = 0;  ///< Exchange tag / broadcast root / reduction-op id.
  std::uint32_t wire_bits = 0;  ///< Per-element wire width in bits (0: n/a).
  std::uint64_t extra = 0;      ///< Kind-specific word (vector length).
};

}  // namespace detail

/// Completion handle of a posted exchange (MPI_Request analogue).
/// Move-only; produced by Communicator::ialltoallv and friends.
///
/// The posting call has already pushed every outgoing message (sends are
/// buffered and complete at post), so the handle tracks only the deferred
/// receives. `wait()` blocks until all of them have landed, scatters /
/// widens them into the destination buffers, and credits the wire time that
/// elapsed under the caller's compute to the Timings hidden-comm counter.
/// Destination buffers must not be read before wait()/test() succeeds —
/// and the owning Communicator enforces the discipline by throwing on any
/// receive or collective posted while this request is outstanding.
class CommRequest {
 public:
  /// An already-completed request (what posts with nothing to defer
  /// return).
  CommRequest() = default;

  CommRequest(CommRequest&& other) noexcept { *this = std::move(other); }
  /// Completes the request this handle still holds, exactly like the
  /// destructor does, before taking over `other`'s: dropping it unfinished
  /// would leave the communicator's one-outstanding-request slot taken.
  CommRequest& operator=(CommRequest&& other) noexcept {
    if (this == &other) return *this;
    abandon("overwritten");
    comm_ = std::exchange(other.comm_, nullptr);
    post_time_ = other.post_time_;
    kind_ = other.kind_;
    return *this;
  }
  CommRequest(const CommRequest&) = delete;
  CommRequest& operator=(const CommRequest&) = delete;

  /// Completes an abandoned request (swallowing errors — destructors must
  /// not throw) so the message schedule stays intact; call wait() yourself
  /// to surface failures.
  ~CommRequest() { abandon("destroyed"); }

  /// True once the request has completed (wait()/test() succeeded or the
  /// post had nothing to defer).
  bool done() const { return comm_ == nullptr; }

  /// Blocks until every deferred receive has landed and delivers the
  /// payloads. Time spent blocked is charged to the exchange's TimeKind as
  /// usual; the post-to-last-arrival span that elapsed BEFORE entering
  /// wait() is credited as hidden comm time. A watchdog expiry reports
  /// "nonblocking wait" and lists every posted (src, tag) still missing.
  void wait() { complete("nonblocking wait", /*credit_hidden=*/true); }

  /// Nonblocking completion probe: returns false while any message is still
  /// in flight; otherwise completes the request (equivalent to wait()) and
  /// returns true.
  bool test();

 private:
  friend class Communicator;
  CommRequest(Communicator* comm, double post_time, TimeKind kind)
      : comm_(comm), post_time_(post_time), kind_(kind) {}

  /// Delivers every deferred receive. `operation` names the call in a
  /// watchdog diagnosis; the blocking exchanges complete their own post
  /// with credit_hidden = false, since nothing ran under their flight.
  void complete(const char* operation, bool credit_hidden);
  /// Drains a request dropped unfinished (`how`: "destroyed" or
  /// "overwritten"), logging a rated warning and swallowing failures.
  void abandon(const char* how) noexcept;

  Communicator* comm_ = nullptr;  ///< Owning communicator; null once done.
  double post_time_ = 0.0;        ///< Backend-clock stamp of the post.
  TimeKind kind_ = TimeKind::kOther;  ///< Category captured at post time.
};

/// Handle through which one rank communicates. Cheap to copy (copies share
/// the transport); a Communicator with an outstanding CommRequest must not
/// be copied.
class Communicator {
 public:
  Communicator() = default;
  /// Wraps a transport endpoint. `timings` must outlive the communicator.
  Communicator(std::shared_ptr<Backend> backend, Timings* timings)
      : backend_(std::move(backend)),
        rank_(backend_ ? backend_->rank() : 0),
        size_(backend_ ? backend_->size() : 1),
        timings_(timings) {}

  /// This rank's id in [0, size()).
  int rank() const { return rank_; }
  /// Number of ranks in the communicator.
  int size() const { return size_; }
  bool is_root() const { return rank_ == 0; }

  /// The transport endpoint (for backend-aware tooling; solver code never
  /// needs it).
  Backend* backend() { return backend_.get(); }

  /// Category charged for time spent blocked in communication calls.
  void set_time_kind(TimeKind kind) { time_kind_ = kind; }
  TimeKind time_kind() const { return time_kind_; }
  Timings& timings() { return *timings_; }

  /// Watchdog deadline (milliseconds) for every blocking receive, request
  /// wait, and barrier: instead of hanging, the blocked call throws a
  /// CommTimeoutError carrying a per-rank diagnosis (errors.hpp). 0 (the
  /// default) keeps the historical block-forever behavior. Inherited by
  /// split() sub-communicators.
  void set_comm_timeout_ms(double timeout_ms) { timeout_ms_ = timeout_ms; }
  double comm_timeout_ms() const { return timeout_ms_; }

  /// Wire checksums: every sent payload gains an FNV-1a 64-bit trailer that
  /// is validated and stripped on receive, so truncation and bit-flips
  /// surface as CommIntegrityError instead of wrong answers. Off by default
  /// (the trailer changes the byte/message counters, so counter-gated
  /// benches run without it). Inherited by split() sub-communicators.
  void set_wire_checksums(bool on) { checksums_ = on; }
  bool wire_checksums() const { return checksums_; }

  /// Collective-schedule verification (--verify-schedule): every collective
  /// entered folds its rank-invariant signature (op kind, tag / root /
  /// reduction-op id, wire precision) into a per-rank rolling FNV hash, and
  /// every exchange folds its per-peer payload byte counts into a pair of
  /// transpose-consistency accumulators (sum over sender claims must equal
  /// sum over receiver expectations). At every barrier and exchange-class
  /// collective ENTRY — before any payload moves — the ranks cross-check the
  /// state with one packed allreduce and, on mismatch, throw
  /// ScheduleDivergenceError on EVERY rank naming the first mismatching op
  /// index, instead of deadlocking or silently mispairing exchanges.
  ///
  /// Off by default: when off the only cost is one predicted branch per
  /// collective. When on, the payload schedule is untouched — solver
  /// results stay bitwise identical and the exchange counters do not move
  /// (the checkpoint allreduce adds messages, never exchanges). Inherited
  /// by split() sub-communicators (with fresh hash state; copies of a
  /// communicator carry their own history, compared against the matching
  /// copies on the other ranks).
  void set_verify_schedule(bool on) { verify_ = on; }
  bool verify_schedule() const { return verify_; }

  /// Folds a caller-chosen marker into the schedule hash: the hook for
  /// symmetric point-to-point phases (e.g. the ghost-halo exchange) that
  /// never pass through a collective the verifier could observe. Marks are
  /// checkpointed at entry like the exchange-class collectives — BEFORE the
  /// phase's point-to-point traffic — so a rank skipping a marked phase is
  /// caught in the checkpoint allreduce instead of stranding its neighbours
  /// in blocking receives. No-op when verification is off.
  void verify_mark(int tag) {
    verify_record(ScheduleOpKind::kMark, tag, 0, 0);
    verify_checkpoint("mark");
  }

  /// Collective fault recovery: returns the communicator to a clean state
  /// after an exchange died mid-flight (rank crash, watchdog timeout,
  /// integrity failure). Abandoned request state and the schedule
  /// verifier's rolling hashes are reset on this copy, then the ranks
  /// rendezvous (deadline `timeout_ms`), each drains its own receive queue
  /// — discarding the dead exchange's stale in-flight payloads so the NEXT
  /// exchange cannot match them — and rendezvous again so no rank resumes
  /// sending before every queue is clean. Returns false (after resetting
  /// the local state) when a peer never arrives: the communicator is
  /// unrecoverable — a rank is truly down — and the caller should rebuild
  /// it instead. Never throws. Collective.
  bool recover_after_fault(double timeout_ms);

  /// Blocks until every rank entered. Collective.
  void barrier();

  /// Buffered point-to-point send: copies `data` onto the wire and returns
  /// immediately (never blocks on the receiver). Legal even while a
  /// nonblocking request is outstanding.
  template <typename T>
  void send(std::span<const T> data, int dest, int tag);

  /// Blocking receive of a whole message from (src, tag).
  template <typename T>
  std::vector<T> recv(int src, int tag);

  /// Receives into a caller-provided buffer (no allocation on the caller
  /// side); throws if the message payload does not match `out` exactly.
  template <typename T>
  void recv_into(std::span<T> out, int src, int tag);

  /// Exchanges buffers with a partner rank without deadlocking.
  template <typename T>
  std::vector<T> sendrecv(std::span<const T> send_data, int dest, int src,
                          int tag);

  template <typename T>
  void broadcast(std::vector<T>& data, int root);

  template <typename T>
  T allreduce_sum(T value);
  template <typename T>
  T allreduce_max(T value);
  template <typename T>
  T allreduce_min(T value);

  /// Element-wise in-place vector allreduce (reduce to rank 0, broadcast
  /// back): 2 log p rounds and 2(p-1) messages carrying the whole batch,
  /// versus log p rounds and p log p messages per scalar allreduce — batching
  /// k >= 2 field norms cuts messages, and from k >= 3 also depth. All ranks
  /// must pass the same number of elements; a mismatch poisons the reduction
  /// and throws (never hangs).
  template <typename T>
  void allreduce_sum(std::vector<T>& data);
  template <typename T>
  void allreduce_max(std::vector<T>& data);
  template <typename T>
  void allreduce_min(std::vector<T>& data);

  template <typename T>
  std::vector<T> allgather(T value);

  /// Personalized all-to-all: send_bufs[r] goes to rank r; returns one buffer
  /// per source rank. Self-exchange is a local move.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>> send_bufs,
                                        int tag);

  /// Zero-allocation personalized all-to-all over caller-provided flat
  /// buffers, posted nonblocking: rank r's chunk occupies
  /// send[sum(send_counts[0..r-1]) ..) and lands in recv at the offset
  /// implied by recv_counts. Both count arrays must have one entry per rank
  /// and sum to the corresponding span size; the caller owns (and can
  /// reuse) all four buffers across calls. The SELF chunk of `recv` is a
  /// local copy, already valid at return; the p-1 peer chunks arrive behind
  /// the returned CommRequest, so `recv` must stay untouched until
  /// wait()/test() succeeds. At most one request may be outstanding per
  /// communicator.
  template <typename T>
  [[nodiscard]] CommRequest ialltoallv(std::span<const T> send,
                                       std::span<const index_t> send_counts,
                                       std::span<T> recv,
                                       std::span<const index_t> recv_counts,
                                       int tag);

  /// Blocking span alltoallv: ialltoallv, then completion.
  template <typename T>
  void alltoallv(std::span<const T> send, std::span<const index_t> send_counts,
                 std::span<T> recv, std::span<const index_t> recv_counts,
                 int tag);

  /// Mixed-precision ialltoallv: every PEER chunk is down-converted into
  /// `send_stage`, shipped at Narrow width, and up-converted into `recv` on
  /// completion; the SELF chunk is a direct Wide copy (it never crosses the
  /// wire, so narrowing it would cost two conversion sweeps and fp32
  /// rounding for nothing). Counts are in ELEMENTS and identical to the
  /// fp64 call — only the per-element wire width changes, so the exchange
  /// schedule is the same. Timings record the narrow bytes that actually
  /// crossed the wire plus the volume the narrowing saved (bytes_saved).
  /// Staging buffers are caller-owned so warm plans allocate nothing; they
  /// must be at least as large as the corresponding payload span. The
  /// thread-backed transport widens straight from the wire payload, so
  /// `recv_stage` is only size-validated here — but a real-MPI backend
  /// lands narrow payloads in it, so callers must keep it alive and
  /// untouched until completion.
  template <typename Wide, typename Narrow>
  [[nodiscard]] CommRequest ialltoallv_converted(
      std::span<const Wide> send, std::span<const index_t> send_counts,
      std::span<Wide> recv, std::span<const index_t> recv_counts,
      std::span<Narrow> send_stage, std::span<Narrow> recv_stage, int tag);

  /// Blocking mixed-precision alltoallv: ialltoallv_converted, then
  /// completion.
  template <typename Wide, typename Narrow>
  void alltoallv_converted(std::span<const Wide> send,
                           std::span<const index_t> send_counts,
                           std::span<Wide> recv,
                           std::span<const index_t> recv_counts,
                           std::span<Narrow> send_stage,
                           std::span<Narrow> recv_stage, int tag);

  /// Narrowing point-to-point send: down-converts `data` into the
  /// caller-owned `stage` and ships the narrow payload (ghost-slab halos).
  /// Buffered like send(): complete when it returns.
  template <typename Wide, typename Narrow>
  void send_narrowed(std::span<const Wide> data, std::span<Narrow> stage,
                     int dest, int tag);

  /// Widening receive, the mirror of send_narrowed: registers the (src,
  /// tag) match and returns; completion pops the narrow payload and
  /// up-converts into `out`. `out` (and, under a real-MPI backend, `stage`)
  /// must stay untouched until completion.
  template <typename Wide, typename Narrow>
  [[nodiscard]] CommRequest irecv_widened(std::span<Wide> out,
                                          std::span<Narrow> stage, int src,
                                          int tag);

  /// Blocking widening receive: irecv_widened, then completion.
  template <typename Wide, typename Narrow>
  void recv_widened(std::span<Wide> out, std::span<Narrow> stage, int src,
                    int tag);

  /// Receive into a caller-owned buffer, posted nonblocking: completion
  /// pops the (src, tag) payload and copies it into `out` (exact size match
  /// enforced).
  template <typename T>
  [[nodiscard]] CommRequest irecv_into(std::span<T> out, int src, int tag);

  /// Fixed-count all-to-all: exactly one element to and from every rank,
  /// over caller-owned buffers of p elements each (zero allocation). This is
  /// the count-exchange primitive variable-size plans (e.g. the scattered
  /// interpolation plan) use to learn their alltoallv recv counts.
  template <typename T>
  void alltoall(std::span<const T> send, std::span<T> recv, int tag);

  /// Splits into sub-communicators by color; new ranks are ordered by the
  /// parent rank. Collective over the parent communicator.
  Communicator split(int color);

 private:
  friend class CommRequest;

  template <typename T>
  static std::vector<T> deserialize(std::vector<std::byte> bytes);

  /// Checks a span alltoallv's per-rank count tables against the payload
  /// element totals (and the self-chunk symmetry) and, in the same walk,
  /// fills chunk_offsets_ with their prefix sums.
  void check_alltoallv_counts(std::span<const index_t> send_counts,
                              std::span<const index_t> recv_counts,
                              size_t send_size, size_t recv_size);

  /// The one span alltoallv body, templated on the wire type: Narrow ==
  /// Wide ships each peer chunk straight from `send`; a narrower type
  /// stages it through `send_stage` and widens on completion (`recv_stage`
  /// is only size-checked, see ialltoallv_converted).
  template <typename Wide, typename Narrow>
  CommRequest post_alltoallv(std::span<const Wide> send,
                             std::span<const index_t> send_counts,
                             std::span<Wide> recv,
                             std::span<const index_t> recv_counts,
                             std::span<Narrow> send_stage,
                             std::span<Narrow> recv_stage, int tag);

  /// The one point-to-point receive post behind irecv_into (Narrow == Wide)
  /// and irecv_widened.
  template <typename Wide, typename Narrow>
  CommRequest post_recv(std::span<Wide> out, std::span<Narrow> stage, int src,
                        int tag);

  /// Wait-before-read enforcement: throws while a nonblocking request is
  /// outstanding. Guards every receive, barrier, collective, and post —
  /// but NOT plain sends (buffered sends cannot race the pending receives).
  void check_idle() const {
    if (pending_)
      throw CommContractError(
          "mpisim: communication attempted while a nonblocking request is "
          "outstanding — wait() the CommRequest first");
  }

  /// Registers the deferred receives staged in pending_recvs_ and hands out
  /// the completion handle (or a done request when nothing was deferred).
  CommRequest finish_post(double post_time);

  /// The single receive funnel: applies the watchdog deadline (throwing
  /// CommTimeoutError with a diagnosis when it expires) and the
  /// wire-checksum validation (throwing CommIntegrityError on corruption).
  /// Every receive path — recv, recv_into, the collectives built on them,
  /// and request completion — lands here. A timeout lists as missing every
  /// entry of `posted` that has not arrived (a request's deferred
  /// receives), or just (src, tag) when `posted` is empty.
  Incoming receive_payload(int src, int tag, const char* operation,
                           std::span<const detail::PendingRecv> posted = {});

  /// Appends the checksum trailer and ships payload+trailer as one message.
  void send_with_checksum(std::span<const std::byte> payload, int dest,
                          int tag);

  /// Validates and strips the checksum trailer of a received payload.
  void verify_and_strip_checksum(std::vector<std::byte>& data, int src,
                                 int tag) const;

  /// Assembles the per-rank failure snapshot attached to CommTimeoutError.
  CommDiagnosis make_diagnosis(
      const char* operation, int src, int tag, double waited_ms,
      std::vector<std::pair<int, int>> missing) const;

  // --- Collective-schedule verifier (set_verify_schedule) ----------------

  /// Folds one op signature into the rolling hash and the per-op history.
  /// No-op unless verification is on and this is not the verifier's own
  /// traffic (in_verify_) — and never at size() == 1.
  void verify_record(ScheduleOpKind kind, int tag, std::uint32_t wire_bits,
                     std::uint64_t extra);
  /// Folds one peer chunk into the transpose-consistency accumulators.
  /// Sender and receiver fold the identical (op index, src, dst, bytes)
  /// word, so globally sum(sender claims) == sum(receiver expectations)
  /// iff the per-peer count tables transpose.
  void verify_fold_send(int dest, std::uint64_t bytes);
  void verify_fold_recv(int src, std::uint64_t bytes);
  /// Folds both sides of a validated alltoallv count table (the self chunk
  /// is excluded: it never crosses the wire).
  void verify_fold_counts(std::span<const index_t> send_counts,
                          std::span<const index_t> recv_counts,
                          std::size_t elem_bytes);
  /// Cross-checks the rolling state across the communicator with one packed
  /// allreduce of (hash min, hash max, send sum, recv sum); on mismatch
  /// every rank enters verify_raise_divergence together.
  void verify_checkpoint(const char* operation);
  /// Localizes a detected divergence (per-op history allreduces, padded to
  /// the longest rank's schedule) and throws ScheduleDivergenceError.
  [[noreturn]] void verify_raise_divergence(const char* operation);
  std::string verify_describe_op(long index, bool counts_only) const;

  /// Recursive-doubling scalar allreduce with any associative commutative op.
  template <typename T, typename Op>
  T allreduce_op(T value, Op op, int tag);
  /// Binomial-tree reduce to rank 0 + broadcast, element-wise over `data`.
  template <typename T, typename Op>
  void allreduce_vec(std::vector<T>& data, Op op, int tag);
  /// Collective-consistency self-check: throws on EVERY rank (instead of
  /// hanging some of them) if `value` differs across the communicator. One
  /// O(log p) allreduce of a packed (min, max) pair.
  void check_collective_consistent(std::int64_t value, const char* what);

  std::shared_ptr<Backend> backend_;
  int rank_ = 0;
  int size_ = 1;
  Timings* timings_ = nullptr;
  TimeKind time_kind_ = TimeKind::kOther;

  /// Deferred receives of the (single) outstanding request. Grow-only and
  /// reused across posts, so warm exchanges allocate nothing.
  std::vector<detail::PendingRecv> pending_recvs_;
  bool pending_ = false;
  /// Prefix sums of the current span alltoallv's count tables ([0, p):
  /// send offsets, [p, 2p): recv offsets); sized once per communicator.
  std::vector<index_t> chunk_offsets_;

  double timeout_ms_ = 0;  ///< Watchdog deadline; 0 = block forever.
  bool checksums_ = false;  ///< FNV-1a trailer on every payload.
  /// Staging for checksummed sends (grow-only, reused across messages).
  std::vector<std::byte> checksum_stage_;

  bool verify_ = false;     ///< Schedule verification enabled.
  bool in_verify_ = false;  ///< Reentrancy guard: the verifier's own traffic.
  std::uint64_t verify_hash_ = 1469598103934665603ull;  ///< Rolling FNV.
  std::uint64_t verify_send_sum_ = 0;  ///< Σ sender-side chunk words.
  std::uint64_t verify_recv_sum_ = 0;  ///< Σ receiver-side chunk words.
  std::vector<std::uint64_t> verify_op_hashes_;  ///< Per-op sig hashes.
  std::vector<detail::ScheduleOpSig> verify_op_sigs_;  ///< For reporting.
  std::vector<std::uint64_t> verify_op_send_sums_;  ///< Per-op send words.
  std::vector<std::uint64_t> verify_op_recv_sums_;  ///< Per-op recv words.

  // Tags above this bound are reserved for collectives.
  static constexpr int kCollectiveTag = 1 << 20;
};

template <typename T>
void Communicator::alltoall(std::span<const T> send, std::span<T> recv,
                            int tag) {
  const int p = size();
  if (static_cast<int>(send.size()) != p ||
      static_cast<int>(recv.size()) != p)
    throw CommContractError("mpisim: alltoall needs one element per rank");
  check_idle();
  // Verifier checkpoints run at collective ENTRY, before any payload moves:
  // ranks that diverged into different collectives still meet in the
  // checkpoint allreduce (same dedicated tag) and all throw, instead of
  // blocking on each other's mismatched payload tags.
  verify_record(ScheduleOpKind::kAlltoall, tag, sizeof(T) * 8, 0);
  verify_checkpoint("alltoall");
  check_collective_consistent(tag, "alltoall tag");
  timings_->add_exchange(time_kind_);
  if (verify_) {
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      verify_fold_send(r, sizeof(T));
      verify_fold_recv(r, sizeof(T));
    }
  }
  recv[rank_] = send[rank_];
  for (int offset = 1; offset < p; ++offset) {
    const int dest = (rank_ + offset) % p;
    this->send(send.subspan(static_cast<size_t>(dest), 1), dest, tag);
  }
  for (int offset = 1; offset < p; ++offset) {
    const int src = (rank_ - offset + p) % p;
    recv_into(recv.subspan(static_cast<size_t>(src), 1), src, tag);
  }
}

/// Robustness knobs of an SPMD run (fault_injection.hpp, errors.hpp).
/// Default-constructed = the historical behavior: mailbox transport, no
/// faults, block-forever receives, no checksums.
struct SpmdOptions {
  /// Fault-injection spec (FaultSpec grammar); empty = no fault wrapper.
  std::string fault_spec;
  /// Watchdog deadline applied to every rank's communicator; 0 = off.
  double comm_timeout_ms = 0;
  /// Wire checksums on every rank (also enabled by `checksum=1` in the
  /// fault spec).
  bool wire_checksums = false;
  /// Collective-schedule verification on every rank
  /// (Communicator::set_verify_schedule; also enabled by the
  /// DIFFREG_VERIFY_SCHEDULE environment hook in the env-reading overload).
  bool verify_schedule = false;
};

/// Runs `body` on p ranks (threads) and returns the per-rank timings.
/// Exceptions thrown by any rank are rethrown (first one wins). This
/// overload reads the DIFFREG_FAULT_SPEC / DIFFREG_COMM_TIMEOUT_MS
/// environment hooks (the chaos CI mechanism: any existing suite can be
/// rerun under faults without recompiling).
std::vector<Timings> run_spmd(int p,
                              const std::function<void(Communicator&)>& body);

/// run_spmd with explicit robustness options (ignores the environment).
std::vector<Timings> run_spmd(int p,
                              const std::function<void(Communicator&)>& body,
                              const SpmdOptions& options);

/// Standalone single-rank communicator (no threads spawned); all collectives
/// degenerate to local moves. Useful for serial drivers and microbenchmarks.
/// `timings` must outlive the returned communicator.
inline Communicator single_rank(Timings& timings) {
  return Communicator(
      std::make_shared<MailboxBackend>(
          std::make_shared<detail::SharedState>(1), 0),
      &timings);
}

// ---------------------------------------------------------------------------
// Template implementations.

template <typename T>
std::vector<T> Communicator::deserialize(std::vector<std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() % sizeof(T) != 0)
    throw CommContractError("mpisim: message size does not match type");
  std::vector<T> data(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(data.data(), bytes.data(), bytes.size());
  return data;
}

template <typename T>
void Communicator::send(std::span<const T> data, int dest, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  ScopedTimer timer(*timings_, time_kind_);
  if (checksums_) {
    send_with_checksum(std::as_bytes(data), dest, tag);
    return;
  }
  timings_->add_message(time_kind_, data.size_bytes());
  backend_->send_bytes(std::as_bytes(data), dest, tag);
}

template <typename T>
std::vector<T> Communicator::recv(int src, int tag) {
  check_idle();
  ScopedTimer timer(*timings_, time_kind_);
  return deserialize<T>(receive_payload(src, tag, "recv").data);
}

template <typename T>
void Communicator::recv_into(std::span<T> out, int src, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_idle();
  ScopedTimer timer(*timings_, time_kind_);
  const Incoming in = receive_payload(src, tag, "recv_into");
  if (in.data.size() != out.size_bytes())
    throw CommContractError(
        "mpisim: recv_into buffer size does not match message payload");
  if (!in.data.empty()) std::memcpy(out.data(), in.data.data(), in.data.size());
}

template <typename T>
std::vector<T> Communicator::sendrecv(std::span<const T> send_data, int dest,
                                      int src, int tag) {
  // Sends are buffered (never block), so send-then-recv cannot deadlock.
  send(send_data, dest, tag);
  return recv<T>(src, tag);
}

template <typename T>
void Communicator::broadcast(std::vector<T>& data, int root) {
  const int tag = kCollectiveTag + 1;
  const int p = size();
  if (p == 1) return;
  // Record-only (no checkpoint): tree collectives are cheap and frequent,
  // so a divergence here is caught — with the right op index — at the next
  // barrier / exchange-class checkpoint.
  verify_record(ScheduleOpKind::kBroadcast, root, sizeof(T) * 8, 0);
  // Binomial tree in root-relative rank space: vrank 0 is the root; a rank
  // receives from the partner that clears its lowest set bit, then forwards
  // to every vrank obtained by setting a higher-order bit.
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      data = recv<T>((vrank - mask + root) % p, tag);
      break;
    }
    mask <<= 1;
  }
  // Forward to the subtree children: all bits below the receive bit are
  // clear, so vrank + mask addresses a distinct rank for each smaller mask.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p)
      send(std::span<const T>(data), (vrank + mask + root) % p, tag);
    mask >>= 1;
  }
}

template <typename T>
std::vector<T> Communicator::allgather(T value) {
  const int tag = kCollectiveTag + 2;
  const int p = size();
  verify_record(ScheduleOpKind::kAllgather, 0, sizeof(T) * 8, 0);
  // Bruck dissemination: after the round with distance d, this rank holds
  // the values of ranks rank .. rank+2d-1 (mod p) in shifted order. ceil(log2
  // p) rounds for any p.
  std::vector<T> shifted{value};
  for (int d = 1; d < p; d <<= 1) {
    const int dest = (rank_ - d + p) % p;
    const int src = (rank_ + d) % p;
    const int count = std::min(d, p - d);
    auto got = sendrecv(
        std::span<const T>(shifted.data(), static_cast<size_t>(count)), dest,
        src, tag);
    shifted.insert(shifted.end(), got.begin(), got.end());
  }
  std::vector<T> all(p);
  for (int j = 0; j < p; ++j) all[(rank_ + j) % p] = shifted[j];
  return all;
}

template <typename T, typename Op>
T Communicator::allreduce_op(T value, Op op, int tag) {
  const int p = size();
  if (p == 1) return value;
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;

  // Fold phase: the odd ranks below 2*rem hand their value to the even
  // neighbour, leaving a power-of-two group (group ids: even folded ranks
  // get rank/2, the rest rank - rem).
  T acc = value;
  int group_id = -1;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      send(std::span<const T>(&acc, 1), rank_ - 1, tag);
    } else {
      acc = op(acc, recv<T>(rank_ + 1, tag)[0]);
      group_id = rank_ / 2;
    }
  } else {
    group_id = rank_ - rem;
  }

  // Recursive doubling inside the power-of-two group. Both partners combine
  // (lower subgroup, higher subgroup) in that order, so every rank computes
  // the bitwise-identical result.
  if (group_id >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_id = group_id ^ mask;
      const int partner = partner_id < rem ? partner_id * 2 : partner_id + rem;
      T other = sendrecv(std::span<const T>(&acc, 1), partner, partner,
                         tag)[0];
      acc = group_id < partner_id ? op(acc, other) : op(other, acc);
    }
  }

  // Unfold phase: folded odd ranks get the finished result back.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1)
      acc = recv<T>(rank_ - 1, tag)[0];
    else
      send(std::span<const T>(&acc, 1), rank_ + 1, tag);
  }
  return acc;
}

template <typename T, typename Op>
void Communicator::allreduce_vec(std::vector<T>& data, Op op, int tag) {
  const int p = size();
  if (p == 1) return;
  // Binomial-tree reduce to rank 0 (mirror of the broadcast tree): receive
  // and fold the higher-rank subtrees, then send the partial to the parent.
  // Length validation piggybacks on the tree: a parent seeing a mismatched
  // child length "poisons" the reduction by forwarding an empty buffer, and
  // rank 0 broadcasts the result plus one sentinel element when clean or an
  // empty buffer when poisoned — so mismatches throw instead of hanging, at
  // no extra message cost.
  const size_t my_size = data.size();
  bool poisoned = false;
  int mask = 1;
  while (mask < p) {
    if (rank_ & mask) {
      if (poisoned) data.clear();
      send(std::span<const T>(data), rank_ ^ mask, tag);
      break;
    }
    if (rank_ + mask < p) {
      auto other = recv<T>(rank_ + mask, tag);
      if (other.size() != my_size) {
        poisoned = true;
      } else {
        for (size_t i = 0; i < my_size; ++i) data[i] = op(data[i], other[i]);
      }
    }
    mask <<= 1;
  }
  if (rank_ == 0) {
    if (poisoned)
      data.clear();
    else
      data.push_back(T{});  // sentinel: distinguishes a clean empty result
  }
  broadcast(data, 0);
  if (data.size() != my_size + 1)
    throw CommContractError(
        "mpisim: vector allreduce element counts differ across ranks");
  data.pop_back();
}

// The scalar/vector allreduce wrappers record the reduction-op IDENTITY
// (1 = sum, 2 = max, 3 = min) in the signature's tag slot: all three share
// one wire tag, so a rank doing allreduce_sum while its peers do
// allreduce_max combines values silently — the schedule hash is the only
// thing that can catch that class of divergence.

template <typename T>
T Communicator::allreduce_sum(T value) {
  verify_record(ScheduleOpKind::kAllreduce, 1, sizeof(T) * 8, 0);
  return allreduce_op(value, [](T a, T b) { return a + b; },
                      kCollectiveTag + 3);
}

template <typename T>
T Communicator::allreduce_max(T value) {
  verify_record(ScheduleOpKind::kAllreduce, 2, sizeof(T) * 8, 0);
  return allreduce_op(value, [](T a, T b) { return a > b ? a : b; },
                      kCollectiveTag + 3);
}

template <typename T>
T Communicator::allreduce_min(T value) {
  verify_record(ScheduleOpKind::kAllreduce, 3, sizeof(T) * 8, 0);
  return allreduce_op(value, [](T a, T b) { return a < b ? a : b; },
                      kCollectiveTag + 3);
}

template <typename T>
void Communicator::allreduce_sum(std::vector<T>& data) {
  verify_record(ScheduleOpKind::kAllreduceVec, 1, sizeof(T) * 8, data.size());
  allreduce_vec(data, [](T a, T b) { return a + b; }, kCollectiveTag + 4);
}

template <typename T>
void Communicator::allreduce_max(std::vector<T>& data) {
  verify_record(ScheduleOpKind::kAllreduceVec, 2, sizeof(T) * 8, data.size());
  allreduce_vec(data, [](T a, T b) { return a > b ? a : b; },
                kCollectiveTag + 4);
}

template <typename T>
void Communicator::allreduce_min(std::vector<T>& data) {
  verify_record(ScheduleOpKind::kAllreduceVec, 3, sizeof(T) * 8, data.size());
  allreduce_vec(data, [](T a, T b) { return a < b ? a : b; },
                kCollectiveTag + 4);
}

template <typename T>
std::vector<std::vector<T>> Communicator::alltoallv(
    std::vector<std::vector<T>> send_bufs, int tag) {
  if (static_cast<int>(send_bufs.size()) != size())
    throw CommContractError("mpisim: alltoallv needs one buffer per rank");
  check_idle();
  verify_record(ScheduleOpKind::kAlltoallv, tag, sizeof(T) * 8, 0);
  verify_checkpoint("alltoallv");
  // Every rank must have entered the same alltoallv (same tag) — a
  // mismatched schedule would otherwise deliver buffers to the wrong
  // exchange and corrupt data silently. O(log p) cost, negligible against
  // the pairwise payload exchange.
  check_collective_consistent(tag, "alltoallv tag");
  timings_->add_exchange(time_kind_);
  std::vector<std::vector<T>> recv_bufs(size());
  recv_bufs[rank_] = std::move(send_bufs[rank_]);
  for (int offset = 1; offset < size(); ++offset) {
    const int dest = (rank_ + offset) % size();
    // This overload learns its recv sizes from the arriving messages, so
    // the receiver folds what actually landed (below) instead of an
    // expectation — order divergence is still caught by the hash.
    verify_fold_send(dest, send_bufs[dest].size() * sizeof(T));
    send(std::span<const T>(send_bufs[dest]), dest, tag);
  }
  for (int offset = 1; offset < size(); ++offset) {
    const int src = (rank_ - offset + size()) % size();
    recv_bufs[src] = recv<T>(src, tag);
    verify_fold_recv(src, recv_bufs[src].size() * sizeof(T));
  }
  return recv_bufs;
}

inline void Communicator::check_alltoallv_counts(
    std::span<const index_t> send_counts,
    std::span<const index_t> recv_counts, size_t send_size,
    size_t recv_size) {
  const int p = size();
  if (static_cast<int>(send_counts.size()) != p ||
      static_cast<int>(recv_counts.size()) != p)
    throw CommContractError("mpisim: alltoallv needs one count per rank");
  chunk_offsets_.resize(2 * static_cast<size_t>(p));
  index_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    chunk_offsets_[r] = send_total;
    chunk_offsets_[p + r] = recv_total;
    send_total += send_counts[r];
    recv_total += recv_counts[r];
  }
  if (send_total != static_cast<index_t>(send_size) ||
      recv_total != static_cast<index_t>(recv_size))
    throw CommContractError("mpisim: alltoallv counts do not sum to buffers");
  if (send_counts[rank_] != recv_counts[rank_])
    throw CommContractError("mpisim: alltoallv self chunk size mismatch");
}

template <typename Wide, typename Narrow>
CommRequest Communicator::post_alltoallv(std::span<const Wide> send,
                                         std::span<const index_t> send_counts,
                                         std::span<Wide> recv,
                                         std::span<const index_t> recv_counts,
                                         std::span<Narrow> send_stage,
                                         std::span<Narrow> recv_stage,
                                         int tag) {
  constexpr bool kNarrow = !std::is_same_v<Wide, Narrow>;
  static_assert(std::is_trivially_copyable_v<Wide>);
  static_assert(!kNarrow || sizeof(Narrow) < sizeof(Wide));
  const int p = size();
  check_alltoallv_counts(send_counts, recv_counts, send.size(), recv.size());
  if (kNarrow &&
      (send_stage.size() < send.size() || recv_stage.size() < recv.size()))
    throw CommContractError(
        "mpisim: alltoallv_converted staging buffers too small");
  check_idle();
  // Verifier checkpoints run at collective ENTRY, before any payload moves.
  // The signature folds the WIRE width, so a rank disagreeing about the
  // wire precision of an exchange (fp64 vs fp32, same tag) hashes
  // differently.
  verify_record(ScheduleOpKind::kAlltoallv, tag, sizeof(Narrow) * 8, 0);
  verify_checkpoint("alltoallv");
  // Every rank must have entered the same alltoallv (same tag) — a
  // mismatched schedule would otherwise deliver buffers to the wrong
  // exchange and corrupt data silently. O(log p) cost, negligible against
  // the pairwise payload exchange.
  check_collective_consistent(tag, "alltoallv tag");
  timings_->add_exchange(time_kind_);
  verify_fold_counts(send_counts, recv_counts, sizeof(Narrow));

  // Self chunk: direct Wide copy (bit-exact, never on the wire).
  if (send_counts[rank_] > 0)
    std::memcpy(recv.data() + chunk_offsets_[p + rank_],
                send.data() + chunk_offsets_[rank_],
                static_cast<size_t>(send_counts[rank_]) * sizeof(Wide));

  const double post_time = backend_ ? backend_->now() : 0.0;
  for (int offset = 1; offset < p; ++offset) {
    const int dest = (rank_ + offset) % p;
    const auto off = static_cast<size_t>(chunk_offsets_[dest]);
    const auto count = static_cast<size_t>(send_counts[dest]);
    if constexpr (kNarrow) {
      // Conversion sweeps are charged to the current comm category — they
      // are wire-format work a native fp32 transport would not need — and
      // the volume they keep off the wire is accounted to the bytes_saved
      // counter (sender side, like add_message).
      {
        ScopedTimer timer(*timings_, time_kind_);
        narrow_into(send.subspan(off, count), send_stage.subspan(off, count));
      }
      timings_->add_saved(time_kind_, count * (sizeof(Wide) - sizeof(Narrow)));
      this->send(std::span<const Narrow>(send_stage.subspan(off, count)),
                 dest, tag);
    } else {
      this->send(send.subspan(off, count), dest, tag);
    }
  }
  pending_recvs_.clear();
  for (int offset = 1; offset < p; ++offset) {
    const int src = (rank_ - offset + p) % p;
    pending_recvs_.push_back(detail::pending_recv<Wide, Narrow>(
        src, tag, recv.data() + chunk_offsets_[p + src],
        static_cast<size_t>(recv_counts[src])));
  }
  return finish_post(post_time);
}

template <typename T>
CommRequest Communicator::ialltoallv(std::span<const T> send,
                                     std::span<const index_t> send_counts,
                                     std::span<T> recv,
                                     std::span<const index_t> recv_counts,
                                     int tag) {
  return post_alltoallv(send, send_counts, recv, recv_counts, std::span<T>(),
                        std::span<T>(), tag);
}

template <typename T>
void Communicator::alltoallv(std::span<const T> send,
                             std::span<const index_t> send_counts,
                             std::span<T> recv,
                             std::span<const index_t> recv_counts, int tag) {
  ialltoallv(send, send_counts, recv, recv_counts, tag)
      .complete("alltoallv", /*credit_hidden=*/false);
}

template <typename Wide, typename Narrow>
CommRequest Communicator::ialltoallv_converted(
    std::span<const Wide> send, std::span<const index_t> send_counts,
    std::span<Wide> recv, std::span<const index_t> recv_counts,
    std::span<Narrow> send_stage, std::span<Narrow> recv_stage, int tag) {
  static_assert(sizeof(Narrow) < sizeof(Wide));
  return post_alltoallv(send, send_counts, recv, recv_counts, send_stage,
                        recv_stage, tag);
}

template <typename Wide, typename Narrow>
void Communicator::alltoallv_converted(std::span<const Wide> send,
                                       std::span<const index_t> send_counts,
                                       std::span<Wide> recv,
                                       std::span<const index_t> recv_counts,
                                       std::span<Narrow> send_stage,
                                       std::span<Narrow> recv_stage, int tag) {
  ialltoallv_converted(send, send_counts, recv, recv_counts, send_stage,
                       recv_stage, tag)
      .complete("alltoallv", /*credit_hidden=*/false);
}

template <typename Wide, typename Narrow>
void Communicator::send_narrowed(std::span<const Wide> data,
                                 std::span<Narrow> stage, int dest, int tag) {
  static_assert(sizeof(Narrow) < sizeof(Wide));
  if (stage.size() < data.size())
    throw CommContractError("mpisim: send_narrowed staging buffer too small");
  {
    ScopedTimer timer(*timings_, time_kind_);
    narrow_into(data, stage.subspan(0, data.size()));
  }
  timings_->add_saved(time_kind_,
                      data.size_bytes() - data.size() * sizeof(Narrow));
  send(std::span<const Narrow>(stage.data(), data.size()), dest, tag);
}

template <typename Wide, typename Narrow>
CommRequest Communicator::post_recv(std::span<Wide> out,
                                    std::span<Narrow> stage, int src, int tag) {
  if (!std::is_same_v<Wide, Narrow> && stage.size() < out.size())
    throw CommContractError("mpisim: recv_widened staging buffer too small");
  check_idle();
  const double post_time = backend_ ? backend_->now() : 0.0;
  pending_recvs_.clear();
  pending_recvs_.push_back(
      detail::pending_recv<Wide, Narrow>(src, tag, out.data(), out.size()));
  return finish_post(post_time);
}

template <typename Wide, typename Narrow>
CommRequest Communicator::irecv_widened(std::span<Wide> out,
                                        std::span<Narrow> stage, int src,
                                        int tag) {
  static_assert(sizeof(Narrow) < sizeof(Wide));
  return post_recv(out, stage, src, tag);
}

template <typename Wide, typename Narrow>
void Communicator::recv_widened(std::span<Wide> out, std::span<Narrow> stage,
                                int src, int tag) {
  irecv_widened(out, stage, src, tag)
      .complete("recv_widened", /*credit_hidden=*/false);
}

template <typename T>
CommRequest Communicator::irecv_into(std::span<T> out, int src, int tag) {
  return post_recv(out, std::span<T>(), src, tag);
}

inline CommRequest Communicator::finish_post(double post_time) {
  if (pending_recvs_.empty()) return CommRequest();
  pending_ = true;
  return CommRequest(this, post_time, time_kind_);
}

}  // namespace diffreg::mpisim

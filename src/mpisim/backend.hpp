/// @file backend.hpp
/// Abstract byte-level transport behind mpisim::Communicator.
///
/// The Communicator owns everything a real-MPI port should NOT have to
/// reimplement: the O(log p) collective algorithms, the collective-
/// consistency self-checks, and the Timings byte/message/exchange/hidden
/// accounting. Everything that IS
/// transport-specific — moving bytes, blocking matches, barriers, splitting
/// the rank group — lives behind this interface. `MailboxBackend` is the
/// thread-backed in-process implementation (p ranks as threads, one receive
/// queue per rank); an `MpiBackend` wrapping MPI_Send/MPI_Recv/MPI_Comm_split
/// can drop in later and inherit the counters and the entire test suite
/// unchanged.
///
/// Transport contract (what callers and the Communicator rely on):
///  * `send_bytes` is BUFFERED: the payload is copied (or otherwise owned by
///    the transport) before the call returns, and the call never blocks on
///    the receiver. Overlapped callers reuse their pack buffers immediately
///    after posting a send — GhostExchange packs slab 2 into the same buffer
///    while slab 1 is still in flight — so an implementation that keeps a
///    reference to the caller's span would corrupt data. (MPI analogue:
///    MPI_Bsend semantics, or an eager-protocol MPI_Isend completed at post.)
///  * Messages between a (source, destination) pair are matched by tag in
///    FIFO order; `recv_bytes` blocks until a (src, tag) match arrives and
///    `probe` is its nonblocking counterpart.
///  * There is one receive and one barrier. Each takes the watchdog
///    deadline `timeout_ms` as a parameter: 0 (or less) means no deadline,
///    and a call that misses a positive deadline reports it (`recv_bytes`
///    returns std::nullopt, `barrier` false) instead of throwing — the
///    Communicator turns that into a CommTimeoutError with a diagnosis.
///  * `recv_bytes` reports each message's ARRIVAL time on the clock exposed
///    by `now()`. CommRequest::wait() uses it to split an exchange's wire
///    time into hidden (overlapped with compute between post and wait) and
///    blocked portions — see Timings::add_hidden.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace diffreg::mpisim {

/// A received payload plus its arrival timestamp (seconds on the owning
/// backend's `now()` clock).
struct Incoming {
  std::vector<std::byte> data;
  double arrival = 0.0;
};

/// Abstract rank-to-rank byte transport. One instance per rank per
/// communicator; instances of the same communicator share the underlying
/// channel state. All methods are called from the owning rank only.
class Backend {
 public:
  virtual ~Backend() = default;

  /// This rank's id within the communicator, in [0, size()).
  virtual int rank() const = 0;
  /// Number of ranks in the communicator.
  virtual int size() const = 0;

  /// Buffered, never-blocking send of `data` to `dest` under `tag`. The
  /// payload must be captured before returning (see the transport contract
  /// above — overlapped callers reuse send buffers right away).
  virtual void send_bytes(std::span<const std::byte> data, int dest,
                          int tag) = 0;

  /// Blocks until a message from `src` with `tag` is available and returns
  /// it together with its arrival timestamp. With `timeout_ms > 0` it
  /// blocks at most that long and returns std::nullopt when no match
  /// arrived in time; 0 means no deadline.
  virtual std::optional<Incoming> recv_bytes(int src, int tag,
                                             double timeout_ms) = 0;

  /// Nonblocking match probe: true iff recv_bytes(src, tag, ...) would not
  /// block.
  virtual bool probe(int src, int tag) = 0;

  /// Blocks until every rank of this communicator has entered and returns
  /// true. With `timeout_ms > 0` it returns false when not every rank
  /// arrived in time (this rank then withdraws from the barrier so the
  /// shared state stays consistent for the ranks that do show up later);
  /// 0 means no deadline.
  virtual bool barrier(double timeout_ms) = 0;

  /// Creates this rank's transport for the sub-communicator selected by
  /// `color`. The caller (Communicator::split) has already agreed on
  /// `new_rank`/`new_size` collectively; the backend only wires up the
  /// channels. Collective over the parent communicator. With
  /// `timeout_ms > 0` the internal rendezvous is deadline-bounded and
  /// returns nullptr when a peer never arrives (a rank that died after the
  /// caller's collective agreement must not strand the survivors here).
  virtual std::shared_ptr<Backend> split(int color, int new_rank,
                                         int new_size,
                                         double timeout_ms) = 0;

  /// Discards every undelivered message addressed to THIS rank, returning
  /// how many were dropped. The fault-recovery primitive: after an aborted
  /// exchange, in-flight payloads of the dead exchange sit in the receive
  /// queues and would otherwise be matched by the NEXT exchange on the same
  /// (src, tag) — a stale payload masquerading as fresh data. Callers must
  /// quiesce the communicator first (no rank still sending) or the drain
  /// races with live traffic; Communicator::recover_after_fault wraps the
  /// drain in that rendezvous. Default: no-op (transports with no local
  /// queue state have nothing to discard).
  virtual std::size_t drain() { return 0; }

  /// Monotonic wall clock, in seconds, on the same timebase as the arrival
  /// stamps returned by recv_bytes.
  virtual double now() const = 0;
};

namespace detail {

/// One in-flight message of the thread-backed transport.
struct Message {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> data;
  double arrival = 0.0;
};

/// One receive queue per rank; senders push, the owner pops by (src, tag).
class Mailbox {
 public:
  void push(Message message);
  /// Blocks until a message with the given source and tag is available;
  /// with `timeout_ms > 0`, nullopt when no match arrived in time.
  std::optional<Incoming> pop(int src, int tag, double timeout_ms);
  /// Nonblocking: true iff a (src, tag) match is queued.
  bool probe(int src, int tag);
  /// Discards every queued message; returns how many were dropped.
  std::size_t clear();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

/// State shared by all ranks of one thread-backed communicator.
struct SharedState {
  explicit SharedState(int size);

  const int size;
  std::vector<Mailbox> mailboxes;

  // Generation-counted central barrier.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_count = 0;
  long barrier_generation = 0;

  // Exchange board used by split(): the first rank of each (color, epoch)
  // creates the child state, everyone else in that color looks it up.
  std::mutex split_mutex;
  std::map<std::pair<long, int>, std::shared_ptr<SharedState>> split_states;
  long split_epoch = 0;
};

}  // namespace detail

/// Thread-backed Backend: ranks are threads of one process and the "wire" is
/// a copy through the destination rank's mailbox. The push copies the
/// payload at send time (the buffered-send contract) and stamps its arrival,
/// so all data movement that would be network traffic under MPI is real,
/// timestamped buffer traffic here.
class MailboxBackend final : public Backend {
 public:
  MailboxBackend(std::shared_ptr<detail::SharedState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return state_->size; }
  void send_bytes(std::span<const std::byte> data, int dest,
                  int tag) override;
  std::optional<Incoming> recv_bytes(int src, int tag,
                                     double timeout_ms) override;
  bool probe(int src, int tag) override;
  bool barrier(double timeout_ms) override;
  std::shared_ptr<Backend> split(int color, int new_rank, int new_size,
                                 double timeout_ms) override;
  std::size_t drain() override;
  double now() const override;

 private:
  std::shared_ptr<detail::SharedState> state_;
  int rank_ = 0;
};

}  // namespace diffreg::mpisim

#include "mpisim/communicator.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "common/logger.hpp"
#include "mpisim/fault_injection.hpp"

namespace diffreg::mpisim {

void Communicator::check_collective_consistent(std::int64_t value,
                                               const char* what) {
  if (size() == 1) return;
  struct Extent {
    std::int64_t lo, hi;
  };
  const Extent mine{value, value};
  const Extent global = allreduce_op(
      mine,
      [](Extent a, Extent b) {
        return Extent{a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
      },
      kCollectiveTag + 5);
  if (global.lo != global.hi)
    throw CommContractError(
        std::string("mpisim: ranks disagree on ") + what +
        " (collective-consistency self-check failed)");
}

namespace {

// splitmix64 finalizer: decorrelates the packed (op index, src, dst, bytes)
// words the transpose-consistency accumulators sum, so distinct mispairings
// cannot cancel each other out of the wrapping total.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a continuation over the 8 bytes of one word (little-endian order —
// part of the verifier wire format, see docs/ANALYSIS.md).
std::uint64_t fold_word(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

// The word both endpoints of one peer chunk fold: sender folds it into the
// send accumulator with (src = self), receiver into the recv accumulator
// with (dst = self). Globally sum(send) == sum(recv) iff the claimed and
// expected chunks pair up one-to-one.
std::uint64_t chunk_word(std::uint64_t op_index, int src, int dst,
                         std::uint64_t bytes) {
  std::uint64_t w = mix64(op_index);
  w = mix64(w + ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) |
                 static_cast<std::uint32_t>(dst)));
  return mix64(w + bytes);
}

}  // namespace

void Communicator::verify_record(ScheduleOpKind kind, int tag,
                                 std::uint32_t wire_bits,
                                 std::uint64_t extra) {
  if (!verify_ || in_verify_ || size_ == 1) return;
  std::uint64_t h = 1469598103934665603ull;
  h = fold_word(h, static_cast<std::uint64_t>(kind));
  h = fold_word(h, static_cast<std::uint32_t>(tag));
  h = fold_word(h, wire_bits);
  h = fold_word(h, extra);
  if (h == 0) h = 1;  // 0 is the recovery pass's "no op here" padding.
  verify_hash_ = fold_word(verify_hash_, h);
  verify_op_hashes_.push_back(h);
  verify_op_sigs_.push_back({kind, tag, wire_bits, extra});
  verify_op_send_sums_.push_back(0);
  verify_op_recv_sums_.push_back(0);
}

// diffreg:zero-alloc
void Communicator::verify_fold_send(int dest, std::uint64_t bytes) {
  if (!verify_ || in_verify_ || verify_op_hashes_.empty()) return;
  const std::uint64_t w =
      chunk_word(verify_op_hashes_.size() - 1, rank_, dest, bytes);
  verify_send_sum_ += w;
  verify_op_send_sums_.back() += w;
}

// diffreg:zero-alloc
void Communicator::verify_fold_recv(int src, std::uint64_t bytes) {
  if (!verify_ || in_verify_ || verify_op_hashes_.empty()) return;
  const std::uint64_t w =
      chunk_word(verify_op_hashes_.size() - 1, src, rank_, bytes);
  verify_recv_sum_ += w;
  verify_op_recv_sums_.back() += w;
}

void Communicator::verify_fold_counts(std::span<const index_t> send_counts,
                                      std::span<const index_t> recv_counts,
                                      std::size_t elem_bytes) {
  if (!verify_ || in_verify_ || size_ == 1) return;
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    verify_fold_send(r, static_cast<std::uint64_t>(send_counts[r]) *
                            elem_bytes);
    verify_fold_recv(r, static_cast<std::uint64_t>(recv_counts[r]) *
                            elem_bytes);
  }
}

void Communicator::verify_checkpoint(const char* operation) {
  if (!verify_ || in_verify_ || size_ == 1) return;
  // RAII reset: the checkpoint (and the recovery pass it may enter) uses
  // the ordinary collectives, which must not record themselves — and the
  // guard must clear even when the allreduce below throws (watchdog).
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{in_verify_};
  in_verify_ = true;
  // One packed allreduce: hashes agree iff min == max; the byte-count
  // accumulators transpose iff the wrapping sums of both sides agree.
  struct Packet {
    std::uint64_t lo, hi, send, recv;
  };
  const Packet mine{verify_hash_, verify_hash_, verify_send_sum_,
                    verify_recv_sum_};
  const Packet global = allreduce_op(
      mine,
      [](Packet a, Packet b) {
        return Packet{a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi,
                      a.send + b.send, a.recv + b.recv};
      },
      kCollectiveTag + 6);
  if (global.lo == global.hi && global.send == global.recv) return;
  verify_raise_divergence(operation);
}

void Communicator::verify_raise_divergence(const char* operation) {
  // Every rank saw the same mismatched global packet, so every rank enters
  // this recovery pass together: exchange the per-op histories (padded to
  // the longest rank's schedule) and agree on the FIRST index where either
  // the signatures or the byte sums differ — then all throw.
  const long my_count = static_cast<long>(verify_op_hashes_.size());
  const long max_count = allreduce_op(
      my_count, [](long a, long b) { return a > b ? a : b; },
      kCollectiveTag + 6);
  const auto min_op = [](std::uint64_t a, std::uint64_t b) {
    return a < b ? a : b;
  };
  const auto max_op = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a : b;
  };
  const auto sum_op = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  std::vector<std::uint64_t> hash_min(verify_op_hashes_);
  hash_min.resize(static_cast<std::size_t>(max_count), 0);
  std::vector<std::uint64_t> hash_max = hash_min;
  allreduce_vec(hash_min, min_op, kCollectiveTag + 6);
  allreduce_vec(hash_max, max_op, kCollectiveTag + 6);
  std::vector<std::uint64_t> send_sums(verify_op_send_sums_);
  send_sums.resize(static_cast<std::size_t>(max_count), 0);
  std::vector<std::uint64_t> recv_sums(verify_op_recv_sums_);
  recv_sums.resize(static_cast<std::size_t>(max_count), 0);
  allreduce_vec(send_sums, sum_op, kCollectiveTag + 6);
  allreduce_vec(recv_sums, sum_op, kCollectiveTag + 6);
  long first = -1;
  bool counts_only = false;
  for (long i = 0; i < max_count; ++i) {
    const auto j = static_cast<std::size_t>(i);
    if (hash_min[j] != hash_max[j] || send_sums[j] != recv_sums[j]) {
      first = i;
      counts_only = hash_min[j] == hash_max[j];
      break;
    }
  }
  throw ScheduleDivergenceError(make_diagnosis(operation, -1, -1, 0, {}),
                                first, my_count,
                                verify_describe_op(first, counts_only));
}

std::string Communicator::verify_describe_op(long index,
                                             bool counts_only) const {
  if (index < 0)
    return "not localizable — the per-op histories agree element-wise "
           "(rolling-hash collision?)";
  if (index >= static_cast<long>(verify_op_sigs_.size()))
    return "none — this rank's schedule was already exhausted";
  static constexpr const char* kNames[] = {
      "barrier",  "broadcast", "allreduce", "allreduce_vec", "allgather",
      "alltoall", "alltoallv", "split",     "mark"};
  const detail::ScheduleOpSig& sig =
      verify_op_sigs_[static_cast<std::size_t>(index)];
  std::string s = kNames[static_cast<int>(sig.kind)];
  s += " (tag/id " + std::to_string(sig.tag);
  if (sig.wire_bits != 0)
    s += ", wire " + std::to_string(sig.wire_bits) + "-bit";
  if (sig.extra != 0) s += ", n " + std::to_string(sig.extra);
  s += ")";
  if (counts_only) s += " [signatures agree; per-peer byte counts mismatch]";
  return s;
}

CommDiagnosis Communicator::make_diagnosis(
    const char* operation, int src, int tag, double waited_ms,
    std::vector<std::pair<int, int>> missing) const {
  CommDiagnosis d;
  d.rank = rank_;
  d.size = size_;
  d.operation = operation;
  d.src = src;
  d.tag = tag;
  d.waited_ms = waited_ms;
  d.missing = std::move(missing);
  d.bytes_sent = timings_->total_bytes();
  d.messages_sent = timings_->total_messages();
  d.exchanges = timings_->total_exchanges();
  return d;
}

void Communicator::send_with_checksum(std::span<const std::byte> payload,
                                      int dest, int tag) {
  checksum_stage_.resize(payload.size() + sizeof(std::uint64_t));
  if (!payload.empty())
    std::memcpy(checksum_stage_.data(), payload.data(), payload.size());
  const std::uint64_t sum = fnv1a64(payload);
  std::memcpy(checksum_stage_.data() + payload.size(), &sum, sizeof sum);
  timings_->add_message(time_kind_, checksum_stage_.size());
  backend_->send_bytes(checksum_stage_, dest, tag);
}

void Communicator::verify_and_strip_checksum(std::vector<std::byte>& data,
                                             int src, int tag) const {
  if (data.size() < sizeof(std::uint64_t))
    throw CommIntegrityError(rank_, src, tag, data.size(),
                             "payload shorter than its checksum trailer "
                             "(truncated on the wire)");
  const size_t payload_size = data.size() - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, data.data() + payload_size, sizeof stored);
  const std::uint64_t actual =
      fnv1a64(std::span<const std::byte>(data.data(), payload_size));
  if (stored != actual)
    throw CommIntegrityError(rank_, src, tag, payload_size,
                             "checksum mismatch (payload corrupted on the "
                             "wire)");
  data.resize(payload_size);
}

Incoming Communicator::receive_payload(
    int src, int tag, const char* operation,
    std::span<const detail::PendingRecv> posted) {
  std::optional<Incoming> in = backend_->recv_bytes(src, tag, timeout_ms_);
  if (!in) {
    // Deadline expired: snapshot which of the posted matches are STILL
    // missing (probe is nonblocking), so the diagnosis names every absent
    // peer of the exchange, not just the one we were blocked on.
    std::vector<std::pair<int, int>> missing;
    for (const detail::PendingRecv& pr : posted)
      if (!backend_->probe(pr.src, pr.tag))
        missing.emplace_back(pr.src, pr.tag);
    if (posted.empty()) missing.emplace_back(src, tag);
    throw CommTimeoutError(make_diagnosis(operation, src, tag, timeout_ms_,
                                          std::move(missing)));
  }
  if (checksums_) verify_and_strip_checksum(in->data, src, tag);
  return std::move(*in);
}

bool Communicator::recover_after_fault(double timeout_ms) {
  // Local reset first, unconditionally: an aborted exchange may have left
  // the one-outstanding-request slot taken, and the verifier's rolling
  // hashes diverged the moment the ranks left the exchange at different
  // points — both must clear even when the rendezvous below fails.
  pending_recvs_.clear();
  pending_ = false;
  verify_hash_ = 1469598103934665603ull;
  verify_send_sum_ = 0;
  verify_recv_sum_ = 0;
  verify_op_hashes_.clear();
  verify_op_sigs_.clear();
  verify_op_send_sums_.clear();
  verify_op_recv_sums_.clear();
  if (size_ == 1) {
    backend_->drain();
    return true;
  }
  // Quiesce → drain → resync, straight on the backend (the raw transport —
  // recovery is out-of-band and must not fold into the schedule hash it
  // just reset). The first rendezvous guarantees no rank is still sending
  // into a queue being drained; the second that no rank resumes sending
  // before every queue is clean. A peer that never arrives (truly down, or
  // still throwing its injected crash) fails the rendezvous: report
  // unrecoverable instead of hanging or rethrowing.
  const double deadline = timeout_ms > 0 ? timeout_ms : 1000;
  try {
    if (!backend_->barrier(deadline)) return false;
    const std::size_t dropped = backend_->drain();
    if (dropped > 0)
      log_warn_rated("mpisim.recover.drain",
                     "mpisim: fault recovery dropped " +
                         std::to_string(dropped) +
                         " stale in-flight message(s)");
    if (!backend_->barrier(deadline)) return false;
  } catch (const CommError&) {
    // The recovery attempt itself tripped the fault injector (a persistent
    // crash): the rank is effectively down for this communicator.
    return false;
  }
  return true;
}

void Communicator::broadcast(std::string& text, int root) {
  std::vector<char> bytes(text.begin(), text.end());
  broadcast(bytes, root);
  text.assign(bytes.begin(), bytes.end());
}

void Communicator::barrier() {
  check_idle();
  if (size() == 1) return;
  verify_record(ScheduleOpKind::kBarrier, 0, 0, 0);
  verify_checkpoint("barrier");
  ScopedTimer timer(*timings_, time_kind_);
  if (!backend_->barrier(timeout_ms_))
    throw CommTimeoutError(make_diagnosis("barrier", -1, -1, timeout_ms_, {}));
}

Communicator Communicator::split(int color) {
  check_idle();
  // The split itself is recorded before its internal allgather (which
  // records its own op): both entries are issued identically on every rank,
  // so the history stays rank-invariant. The color is rank-specific and
  // must NOT be folded.
  verify_record(ScheduleOpKind::kSplit, 0, 0, 0);
  verify_checkpoint("split");
  // Gather (color, parent rank) from everyone; members of each color are
  // ranked by parent rank. The backend only has to wire up the agreed-upon
  // channels — the collective agreement itself is transport-independent.
  struct Entry {
    int color;
    int rank;
  };
  auto entries = allgather(Entry{color, rank_});

  int new_rank = 0;
  int new_size = 0;
  for (const Entry& e : entries) {
    if (e.color != color) continue;
    if (e.rank < rank_) ++new_rank;
    ++new_size;
  }

  std::shared_ptr<Backend> child_backend =
      backend_->split(color, new_rank, new_size, timeout_ms_);
  if (!child_backend)
    throw CommTimeoutError(
        make_diagnosis("split", -1, -1, timeout_ms_, {}));
  Communicator child(std::move(child_backend), timings_);
  // Robustness settings follow the rank into sub-communicators: a hung
  // row/col exchange must trip the same watchdog as the parent's. The
  // schedule verifier restarts with fresh hash state — sub-communicator
  // histories are compared within the sub-communicator only.
  child.timeout_ms_ = timeout_ms_;
  child.checksums_ = checksums_;
  child.verify_ = verify_;
  return child;
}

void CommRequest::abandon(const char* how) noexcept {
  if (!comm_) return;
  // An abandoned request is a bug magnet: the drain below keeps the message
  // schedule intact but swallows any failure. Say so loudly (rated, so a
  // leak in a loop does not flood the log) with enough context to find the
  // post site.
  try {
    std::string context = std::string("mpisim: CommRequest ") + how +
                          " before wait(); draining " +
                          std::to_string(comm_->pending_recvs_.size()) +
                          " pending receive(s)";
    if (!comm_->pending_recvs_.empty()) {
      const detail::PendingRecv& first = comm_->pending_recvs_.front();
      context += " (first: src=" + std::to_string(first.src) +
                 ", tag=" + std::to_string(first.tag) + ")";
    }
    log_warn_rated("mpisim.commrequest.drain",
                   context + " — call wait() to surface failures");
    wait();
  } catch (const std::exception& e) {
    // The schedule is already poisoned, so the best we can do is make the
    // swallowed failure visible.
    log_warn_rated("mpisim.commrequest.drain-error",
                   std::string("mpisim: drain-on-destroy swallowed: ") +
                       e.what());
  } catch (...) {
  }
}

void CommRequest::complete(const char* operation, bool credit_hidden) {
  if (!comm_) return;
  Communicator* comm = std::exchange(comm_, nullptr);
  const double wait_entry = comm->backend_->now();
  double last_arrival = post_time_;
  try {
    // Time actually spent blocked (plus the delivery memcpy) is
    // charged to the category like a blocking receive would be.
    ScopedTimer timer(*comm->timings_, kind_);
    for (const detail::PendingRecv& pr : comm->pending_recvs_) {
      Incoming in = comm->receive_payload(pr.src, pr.tag, operation,
                                          comm->pending_recvs_);
      if (in.data.size() != pr.payload_bytes)
        throw CommContractError(
            "mpisim: received payload size does not match the posted "
            "buffer");
      if (!in.data.empty())
        std::memcpy(pr.dst, in.data.data(), in.data.size());
      last_arrival = std::max(last_arrival, in.arrival);
    }
  } catch (...) {
    // The exchange is unrecoverable; release the one-outstanding-request
    // slot so the failure propagates instead of cascading into
    // "communication attempted while a request is outstanding".
    comm->pending_recvs_.clear();
    comm->pending_ = false;
    throw;
  }
  comm->pending_recvs_.clear();
  comm->pending_ = false;
  // Hidden comm time: the wire was busy from the post until the last
  // message landed; whatever portion of that elapsed before the caller
  // blocked here was overlapped with compute.
  if (credit_hidden)
    comm->timings_->add_hidden(
        kind_, std::max(0.0, std::min(last_arrival, wait_entry) - post_time_));
}

void check_comm_timeout_ms(double timeout_ms) {
  // Written so that NaN fails too.
  if (timeout_ms >= 0 && timeout_ms <= kMaxCommTimeoutMs) return;
  char text[96];
  std::snprintf(text, sizeof text,
                "comm timeout %g ms is outside [0, %g] ms", timeout_ms,
                kMaxCommTimeoutMs);
  throw CommConfigError(text);
}

namespace {

/// The DIFFREG_COMM_TIMEOUT_MS value: the whole string must be one number
/// in [0, kMaxCommTimeoutMs]. Junk must not read as 0, which would turn the
/// watchdog off.
double parse_comm_timeout_env(const char* text) {
  double value = 0;
  const char* last = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, last, value);
  if (ec != std::errc() || ptr != last)
    throw CommConfigError(std::string("DIFFREG_COMM_TIMEOUT_MS: '") + text +
                          "' is not a number");
  check_comm_timeout_ms(value);
  return value;
}

}  // namespace

std::vector<Timings> run_spmd(
    int p, const std::function<void(Communicator&)>& body) {
  // Environment hooks let the chaos CI job rerun any existing suite under
  // faults/watchdog without recompiling; explicit SpmdOptions callers are
  // unaffected.
  // The getenv calls below run on the host thread BEFORE any rank thread
  // spawns, so the mt-unsafe lint does not apply (nothing concurrently
  // mutates the environment).
  SpmdOptions options;
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* spec = std::getenv("DIFFREG_FAULT_SPEC"))
    options.fault_spec = spec;
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* timeout = std::getenv("DIFFREG_COMM_TIMEOUT_MS"))
    options.comm_timeout_ms = parse_comm_timeout_env(timeout);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* verify = std::getenv("DIFFREG_VERIFY_SCHEDULE")) {
    if (std::strcmp(verify, "0") != 0 && std::strcmp(verify, "1") != 0)
      throw CommConfigError(std::string("DIFFREG_VERIFY_SCHEDULE: '") +
                            verify + "' is not 0 or 1");
    options.verify_schedule = verify[0] == '1';
  }
  return run_spmd(p, body, options);
}

std::vector<Timings> run_spmd(int p,
                              const std::function<void(Communicator&)>& body,
                              const SpmdOptions& options) {
  // Check up front so a malformed spec or timeout fails the launch, not
  // rank threads.
  check_comm_timeout_ms(options.comm_timeout_ms);
  std::optional<FaultSpec> spec;
  if (!options.fault_spec.empty())
    spec = FaultSpec::parse(options.fault_spec);
  const bool checksums = spec.has_value() && spec->checksum;

  auto state = std::make_shared<detail::SharedState>(p);
  std::vector<Timings> timings(p);
  std::vector<std::thread> threads;
  threads.reserve(p);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // Rank threads wait on a start gate until every rank is spawned: if a
  // spawn fails (thread limit, address space), the ranks already running
  // must not enter `body`, whose collectives would wait on the missing ones.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool aborted = false;
  const auto open_gate = [&](bool abort) {
    {
      std::scoped_lock lock(gate_mutex);
      gate_open = true;
      aborted = abort;
    }
    gate_cv.notify_all();
  };

  for (int r = 0; r < p; ++r) {
    const auto rank_main = [&, r] {
      {
        std::unique_lock lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
        if (aborted) return;
      }
      std::shared_ptr<Backend> backend =
          std::make_shared<MailboxBackend>(state, r);
      if (spec.has_value() && spec->enabled())
        backend = std::make_shared<FaultInjectingBackend>(std::move(backend),
                                                          *spec);
      Communicator comm(std::move(backend), &timings[r]);
      comm.set_comm_timeout_ms(options.comm_timeout_ms);
      comm.set_wire_checksums(checksums);
      comm.set_verify_schedule(options.verify_schedule);
      try {
        body(comm);
      } catch (...) {
        std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    };
    try {
      threads.emplace_back(rank_main);
    } catch (const std::exception& e) {
      open_gate(/*abort=*/true);
      for (auto& t : threads) t.join();
      throw CommConfigError("cannot start rank thread " + std::to_string(r) +
                            " of p = " + std::to_string(p) + ": " + e.what());
    }
  }
  open_gate(/*abort=*/false);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return timings;
}

}  // namespace diffreg::mpisim

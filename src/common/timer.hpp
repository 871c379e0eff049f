// Wall-clock timers with the accounting categories used in the paper's
// evaluation tables: FFT communication, FFT execution, interpolation
// communication, interpolation execution (Tables I-IV report exactly these).
// Alongside the wall-clock split, each category also accumulates
// communication *volume* (bytes and messages sent, and collective alltoallv
// exchanges entered), so a message-count regression is visible even when the
// wall-clock split looks unchanged. The byte counters record the payload
// bytes each rank put on the wire.
//
// Nonblocking exchanges (mpisim::Communicator::ialltoallv and friends)
// additionally report *hidden* communication time: the span between posting
// an exchange and the arrival of its last message, capped at the moment the
// caller blocked in CommRequest::wait(). That is the portion of the wire
// time that overlapped with useful compute. The overlap efficiency of a
// category is hidden / (hidden + timed comm); blocking exchanges contribute
// zero hidden time, so the ratio is exactly 0 for the legacy schedule.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace diffreg {

enum class TimeKind : int {
  kFftComm = 0,
  kFftExec,
  kInterpComm,
  kInterpExec,
  kOther,
  kCount,
};

constexpr int kNumTimeKinds = static_cast<int>(TimeKind::kCount);

std::string_view time_kind_name(TimeKind kind);

/// Simple monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-rank accumulator for the paper's timing categories plus the
/// communication volume charged to each category.
class Timings {
 public:
  void add(TimeKind kind, double seconds) {
    seconds_[static_cast<int>(kind)] += seconds;
  }
  double get(TimeKind kind) const { return seconds_[static_cast<int>(kind)]; }

  /// Accounts one point-to-point message of `bytes` payload (sender side).
  void add_message(TimeKind kind, std::uint64_t bytes) {
    add_comm(kind, bytes, 1, 0);
  }
  /// Accounts one alltoallv exchange entered by this rank.
  void add_exchange(TimeKind kind) { add_comm(kind, 0, 0, 1); }
  /// Raw counter accumulation (used by add_message/add_exchange and deltas).
  // diffreg:zero-alloc
  void add_comm(TimeKind kind, std::uint64_t bytes, std::uint64_t messages,
                std::uint64_t exchanges) {
    bytes_[static_cast<int>(kind)] += bytes;
    messages_[static_cast<int>(kind)] += messages;
    exchanges_[static_cast<int>(kind)] += exchanges;
  }

  /// Accounts wire time a nonblocking exchange hid under compute (the span
  /// from post to last arrival, capped at the wait() entry).
  void add_hidden(TimeKind kind, double seconds) {
    hidden_seconds_[static_cast<int>(kind)] += seconds;
  }
  double hidden(TimeKind kind) const {
    return hidden_seconds_[static_cast<int>(kind)];
  }
  /// Fraction of a category's wire time that overlapped with compute:
  /// hidden / (hidden + timed comm). Returns 0 when no comm happened.
  double overlap_efficiency(TimeKind kind) const {
    const double h = hidden(kind);
    const double total = h + get(kind);
    return total > 0.0 ? h / total : 0.0;
  }

  std::uint64_t bytes(TimeKind kind) const {
    return bytes_[static_cast<int>(kind)];
  }
  std::uint64_t messages(TimeKind kind) const {
    return messages_[static_cast<int>(kind)];
  }
  std::uint64_t exchanges(TimeKind kind) const {
    return exchanges_[static_cast<int>(kind)];
  }
  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (auto b : bytes_) sum += b;
    return sum;
  }
  std::uint64_t total_messages() const {
    std::uint64_t sum = 0;
    for (auto m : messages_) sum += m;
    return sum;
  }
  std::uint64_t total_exchanges() const {
    std::uint64_t sum = 0;
    for (auto e : exchanges_) sum += e;
    return sum;
  }

  void clear() {
    seconds_.fill(0.0);
    hidden_seconds_.fill(0.0);
    bytes_.fill(0);
    messages_.fill(0);
    exchanges_.fill(0);
  }

  Timings& operator+=(const Timings& other) {
    for (int k = 0; k < kNumTimeKinds; ++k) {
      seconds_[k] += other.seconds_[k];
      hidden_seconds_[k] += other.hidden_seconds_[k];
      bytes_[k] += other.bytes_[k];
      messages_[k] += other.messages_[k];
      exchanges_[k] += other.exchanges_[k];
    }
    return *this;
  }
  /// Element-wise max, used to report the slowest rank like the paper does.
  // diffreg:zero-alloc
  void max_with(const Timings& other) {
    for (int k = 0; k < kNumTimeKinds; ++k) {
      if (other.seconds_[k] > seconds_[k]) seconds_[k] = other.seconds_[k];
      if (other.hidden_seconds_[k] > hidden_seconds_[k])
        hidden_seconds_[k] = other.hidden_seconds_[k];
      if (other.bytes_[k] > bytes_[k]) bytes_[k] = other.bytes_[k];
      if (other.messages_[k] > messages_[k]) messages_[k] = other.messages_[k];
      if (other.exchanges_[k] > exchanges_[k])
        exchanges_[k] = other.exchanges_[k];
    }
  }

 private:
  std::array<double, kNumTimeKinds> seconds_{};
  std::array<double, kNumTimeKinds> hidden_seconds_{};
  std::array<std::uint64_t, kNumTimeKinds> bytes_{};
  std::array<std::uint64_t, kNumTimeKinds> messages_{};
  std::array<std::uint64_t, kNumTimeKinds> exchanges_{};
};

/// Per-category `after - before`, for timing a phase of a longer run.
inline Timings timings_delta(const Timings& before, const Timings& after) {
  Timings d;
  for (int k = 0; k < kNumTimeKinds; ++k) {
    const auto kind = static_cast<TimeKind>(k);
    d.add(kind, after.get(kind) - before.get(kind));
    d.add_hidden(kind, after.hidden(kind) - before.hidden(kind));
    d.add_comm(kind, after.bytes(kind) - before.bytes(kind),
               after.messages(kind) - before.messages(kind),
               after.exchanges(kind) - before.exchanges(kind));
  }
  return d;
}

/// RAII helper: accumulates the scope's duration into a Timings category.
class ScopedTimer {
 public:
  ScopedTimer(Timings& timings, TimeKind kind)
      : timings_(timings), kind_(kind) {}
  ~ScopedTimer() { timings_.add(kind_, timer_.seconds()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timings& timings_;
  TimeKind kind_;
  WallTimer timer_;
};

}  // namespace diffreg

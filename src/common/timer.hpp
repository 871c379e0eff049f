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

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
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
    at(seconds_, kWall, kind) += seconds;
  }
  double get(TimeKind kind) const { return at(seconds_, kWall, kind); }

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
    at(counts_, kBytes, kind) += bytes;
    at(counts_, kMessages, kind) += messages;
    at(counts_, kExchanges, kind) += exchanges;
  }

  /// Accounts wire time a nonblocking exchange hid under compute (the span
  /// from post to last arrival, capped at the wait() entry).
  void add_hidden(TimeKind kind, double seconds) {
    at(seconds_, kHidden, kind) += seconds;
  }
  double hidden(TimeKind kind) const { return at(seconds_, kHidden, kind); }
  /// Fraction of a category's wire time that overlapped with compute:
  /// hidden / (hidden + timed comm). Returns 0 when no comm happened.
  double overlap_efficiency(TimeKind kind) const {
    const double h = hidden(kind);
    const double total = h + get(kind);
    return total > 0.0 ? h / total : 0.0;
  }

  std::uint64_t bytes(TimeKind kind) const {
    return at(counts_, kBytes, kind);
  }
  std::uint64_t messages(TimeKind kind) const {
    return at(counts_, kMessages, kind);
  }
  std::uint64_t exchanges(TimeKind kind) const {
    return at(counts_, kExchanges, kind);
  }
  std::uint64_t total_bytes() const { return total(kBytes); }
  std::uint64_t total_messages() const { return total(kMessages); }
  std::uint64_t total_exchanges() const { return total(kExchanges); }

  void clear() {
    seconds_.fill(0.0);
    counts_.fill(0);
  }

  Timings& operator+=(const Timings& other) {
    for (size_t i = 0; i < seconds_.size(); ++i)
      seconds_[i] += other.seconds_[i];
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    return *this;
  }
  /// Element-wise max, used to report the slowest rank like the paper does.
  // diffreg:zero-alloc
  void max_with(const Timings& other) {
    for (size_t i = 0; i < seconds_.size(); ++i)
      seconds_[i] = std::max(seconds_[i], other.seconds_[i]);
    for (size_t i = 0; i < counts_.size(); ++i)
      counts_[i] = std::max(counts_[i], other.counts_[i]);
  }

  friend Timings timings_delta(const Timings& before, const Timings& after);

 private:
  // Two counter tables, each indexed [counter][TimeKind]: every function
  // above that combines whole Timings walks both tables entry by entry, so
  // a new counter is one more enumerator.
  enum SecondsCounter { kWall, kHidden, kNumSecondsCounters };
  enum CountCounter { kBytes, kMessages, kExchanges, kNumCountCounters };

  template <typename Table>
  static auto at(Table& table, int counter, TimeKind kind)
      -> decltype(table[0]) {
    return table[counter * kNumTimeKinds + static_cast<int>(kind)];
  }
  std::uint64_t total(CountCounter counter) const {
    std::uint64_t sum = 0;
    for (int k = 0; k < kNumTimeKinds; ++k)
      sum += at(counts_, counter, static_cast<TimeKind>(k));
    return sum;
  }

  std::array<double, kNumSecondsCounters * kNumTimeKinds> seconds_{};
  std::array<std::uint64_t, kNumCountCounters * kNumTimeKinds> counts_{};
};

/// Per-category `after - before`, for timing a phase of a longer run.
inline Timings timings_delta(const Timings& before, const Timings& after) {
  Timings d;
  for (size_t i = 0; i < d.seconds_.size(); ++i)
    d.seconds_[i] = after.seconds_[i] - before.seconds_[i];
  for (size_t i = 0; i < d.counts_.size(); ++i)
    d.counts_[i] = after.counts_[i] - before.counts_[i];
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

// In-memory span log of the benchmark's traced runs: one log per rank
// thread, written out once when the benchmark ends.
//
// A span has a name, a start and end (seconds on the process clock), the
// span that caused it, and the request it belongs to (the solve or batch
// index), so the spans of one request share an identifier. Spans are either
// opened and closed around a call (setup, solve, run_all, layer replays) or
// added already closed when both ends were observed from outside the solver
// (batch iterates, whose solve start is not visible through the public API).
// `all_closed()` is the benchmark's self-test that every opened span was
// closed, innermost first.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace regbench {

/// Seconds since the first call (the process clock of every span and
/// timestamp the benchmark records; shared by all rank threads).
inline double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its id.
  int open(std::string name, int request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_s(), -1.0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id`, which must be the innermost open span.
  void close(int id) {
    if (stack_.empty() || stack_.back() != id) {
      ++misnested_;
      return;
    }
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = now_s();
  }

  /// Records a span whose both ends are already known, under `parent`.
  void add_closed(std::string name, double start, double end, int parent,
                  int request) {
    spans_.push_back({std::move(name), start, end, parent, request});
  }

  /// Id of the innermost open span (-1 when none).
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  bool all_closed() const {
    if (!stack_.empty() || misnested_ != 0) return false;
    for (const auto& s : spans_)
      if (s.end < s.start) return false;
    return true;
  }

  /// One JSON object per line: rank, id, parent, request, name, start, end.
  void write_jsonl(std::FILE* f, int rank) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "{\"rank\": %d, \"id\": %zu, \"parent\": %d, "
                   "\"request\": %d, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f}\n",
                   rank, i, s.parent, s.request, s.name.c_str(), s.start,
                   s.end);
    }
  }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = -1;
    int parent = -1;
    int request = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int misnested_ = 0;
};

/// Closes a span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int request)
      : log_(log), id_(log.open(std::move(name), request)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace regbench

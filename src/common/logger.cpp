#include "common/logger.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

namespace diffreg {

namespace {

constexpr int kRatedLimit = 3;

struct LoggerState {
  std::mutex mutex;
  LogSink sink;                              // guarded by mutex
  std::map<std::string, int> rated_counts;  // guarded by mutex
};

LoggerState& logger_state() {
  static LoggerState state;
  return state;
}

}  // namespace

void set_log_sink(LogSink sink) {
  LoggerState& s = logger_state();
  std::scoped_lock lock(s.mutex);
  s.sink = std::move(sink);
  s.rated_counts.clear();
}

void log_warn_rated(const std::string& key, const std::string& message) {
  LoggerState& s = logger_state();
  std::scoped_lock lock(s.mutex);
  const int count = ++s.rated_counts[key];
  if (count > kRatedLimit) return;
  const std::string text =
      count == kRatedLimit
          ? message + " (suppressing further '" + key + "' messages)"
          : message;
  if (s.sink)
    s.sink(text);
  else
    std::fprintf(stderr, "[warn] %s\n", text.c_str());
}

}  // namespace diffreg

// Rate-limited warnings shared by every rank thread. A condition that can
// fire once per message on a hot path (e.g. the CommRequest drain-on-destroy
// warning) prints at most a few lines per key. Tests install a sink to
// capture warnings instead of scraping stderr.
#pragma once

#include <functional>
#include <string>

namespace diffreg {

/// Replacement output target for warnings; called with the raw message (no
/// tag) under the logger's mutex.
using LogSink = std::function<void(const std::string&)>;

/// Routes warnings to `sink` instead of stderr; pass nullptr to restore
/// stderr. Also resets the rate-limit counters, so a test capturing
/// warnings starts from a clean slate.
void set_log_sink(LogSink sink);

/// Prints `message` as a warning at most 3 times per `key`, the third time
/// with a suppression notice. Keys are small and stable (e.g.
/// "mpisim.commrequest.drain"), so the counter map stays tiny. Thread-safe.
void log_warn_rated(const std::string& key, const std::string& message);

}  // namespace diffreg

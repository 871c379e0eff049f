#include "core/batch_manifest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <type_traits>

#include "imaging/io.hpp"

namespace diffreg::core {

namespace {

// One lock for the whole process: in the thread-backed mpisim runtime every
// shard root of a batch is a thread of this process, and each read-merge-
// rewrite of the shared manifest must be atomic against the others.
std::mutex& manifest_mutex() {
  static std::mutex m;
  return m;
}

/// Extracts the text after `"key":` on `line`; nullptr when absent.
const char* field_start(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  const char* s = line.c_str() + pos + needle.size();
  while (*s == ' ') ++s;
  return s;
}

bool parse_string_field(const std::string& line, const char* key,
                        std::string& out) {
  const char* s = field_start(line, key);
  if (!s || *s != '"') return false;
  const char* end = std::strchr(s + 1, '"');
  if (!end) return false;
  out.assign(s + 1, end);
  return true;
}

/// Reads the number after `"key":` into `out`. Returns false when the key
/// is absent, and also clears `ok` when the value is not a finite number
/// (for an integer `out`: not a value of its type).
template <typename T>
bool parse_number_field(const std::string& line, const char* key, T& out,
                        bool& ok) {
  const char* s = field_start(line, key);
  if (!s) return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  bool valid = end != s && std::isfinite(v);
  if constexpr (std::is_integral_v<T>) valid = valid && exact_integer<T>(v);
  if (valid)
    out = static_cast<T>(v);
  else
    ok = false;
  return valid;
}

bool parse_bool_field(const std::string& line, const char* key, bool& out) {
  const char* s = field_start(line, key);
  if (!s) return false;
  if (std::strncmp(s, "true", 4) == 0) {
    out = true;
    return true;
  }
  if (std::strncmp(s, "false", 5) == 0) {
    out = false;
    return true;
  }
  return false;
}

/// Parses manifest text (format documented in the header). Returns false
/// when it is malformed; the grammar is line-based — one job object per line.
bool parse(const std::string& text, std::vector<BatchManifestEntry>& out) {
  out.clear();
  bool saw_version = false;
  bool any_content = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.find_first_not_of(" \t\r") != std::string::npos)
      any_content = true;
    bool ok = true;
    int version = 0;
    if (!saw_version && parse_number_field(line, "version", version, ok)) {
      if (version != 1) return false;
      saw_version = true;
      continue;
    }
    BatchManifestEntry e;
    if (!parse_number_field(line, "job_id", e.job_id, ok)) {
      if (!ok) return false;
      continue;
    }
    if (!parse_string_field(line, "outcome", e.outcome)) return false;
    parse_number_field(line, "attempts", e.attempts, ok);
    parse_number_field(line, "completed_at_seconds", e.completed_at_seconds, ok);
    if (!ok) return false;
    parse_bool_field(line, "deadline_met", e.deadline_met);
    parse_string_field(line, "checkpoint", e.checkpoint_path);
    out.push_back(std::move(e));
  }
  // A non-empty file MUST carry the version header: corruption (or a
  // foreign file) is a structured error, never a silent "first run".
  return saw_version || !any_content;
}

std::string serialize(const std::vector<BatchManifestEntry>& entries) {
  std::string text = "{\n  \"version\": 1,\n  \"jobs\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BatchManifestEntry& e = entries[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"job_id\": %llu, \"outcome\": \"%s\", "
                  "\"attempts\": %d, \"completed_at_seconds\": %.17g, "
                  "\"deadline_met\": %s, \"checkpoint\": ",
                  static_cast<unsigned long long>(e.job_id),
                  e.outcome.c_str(), e.attempts, e.completed_at_seconds,
                  e.deadline_met ? "true" : "false");
    text += buf;
    text += '"';
    text += e.checkpoint_path;
    text += i + 1 < entries.size() ? "\"},\n" : "\"}\n";
  }
  text += "  ]\n}\n";
  return text;
}

/// Root side of a load: the entries of `path` (none when it is missing),
/// with its text in `text`. Throws when it cannot be read or parsed.
std::vector<BatchManifestEntry> read_root(const std::string& path,
                                          std::string& text) {
  std::vector<BatchManifestEntry> entries;
  if (imaging::read_file(path, {}, &text) && !parse(text, entries))
    throw std::runtime_error("batch manifest is malformed: " + path);
  return entries;
}

}  // namespace

std::vector<BatchManifestEntry> load_manifest(mpisim::Communicator& comm,
                                              const std::string& path) {
  std::string text;
  std::vector<BatchManifestEntry> entries;
  // Parse on the root first so a malformed manifest is a converged error,
  // not a divergence between ranks.
  imaging::root_io<BatchManifestError>(comm, [&] {
    std::scoped_lock lock(manifest_mutex());
    entries = read_root(path, text);
  });
  comm.broadcast(text, 0);
  if (!comm.is_root()) parse(text, entries);
  return entries;
}

void update_manifest(mpisim::Communicator& comm, const std::string& path,
                     const std::vector<BatchManifestEntry>& updates) {
  // Read-merge-rewrite on the root, under the process-wide lock.
  imaging::root_io<BatchManifestError>(comm, [&] {
    std::scoped_lock lock(manifest_mutex());
    std::string text;
    std::vector<BatchManifestEntry> entries = read_root(path, text);
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < entries.size(); ++i)
      index[entries[i].job_id] = i;
    for (const BatchManifestEntry& u : updates) {
      auto it = index.find(u.job_id);
      if (it != index.end()) {
        entries[it->second] = u;
      } else {
        index[u.job_id] = entries.size();
        entries.push_back(u);
      }
    }
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const BatchManifestEntry& a, const BatchManifestEntry& b) {
          return a.job_id < b.job_id;
        });
    text = serialize(entries);
    imaging::write_file_atomic(path, {std::as_bytes(std::span(text))});
  });
}

}  // namespace diffreg::core

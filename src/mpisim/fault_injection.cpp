#include "mpisim/fault_injection.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/types.hpp"
#include "mpisim/errors.hpp"

namespace diffreg::mpisim {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The whole of `value` as a finite number.
double parse_number(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed))
    throw CommConfigError("fault-spec: malformed value for '" + key +
                                "': '" + value + "'");
  return parsed;
}

double parse_probability(const std::string& key, const std::string& value) {
  const double p = parse_number(key, value);
  if (p < 0 || p > 1)
    throw CommConfigError("fault-spec: probability '" + key +
                                "' must be in [0, 1], got " + value);
  return p;
}

/// An integer key: a value of T (0 or 1 for a bool switch).
template <typename T>
T parse_integer(const std::string& key, const std::string& value) {
  const double v = parse_number(key, value);
  if (!exact_integer<T>(v))
    throw CommConfigError("fault-spec: '" + key +
                          "' must be an integer in range, got " + value);
  return static_cast<T>(v);
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& spec) {
  FaultSpec out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw CommConfigError("fault-spec: expected key=value, got '" +
                                  item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      out.seed = parse_integer<std::uint64_t>(key, value);
    } else if (key == "drop") {
      out.drop = parse_probability(key, value);
    } else if (key == "dup") {
      out.dup = parse_probability(key, value);
    } else if (key == "truncate") {
      out.truncate = parse_probability(key, value);
    } else if (key == "bitflip") {
      out.bitflip = parse_probability(key, value);
    } else if (key == "delay_ms") {
      // Capped at an hour: sleep_for's integer duration cast overflows on
      // huge values.
      out.delay_ms = parse_number(key, value);
      if (out.delay_ms < 0 || out.delay_ms > 3.6e6)
        throw CommConfigError("fault-spec: delay_ms must be in [0, 3.6e6]");
    } else if (key == "delay_prob") {
      out.delay_prob = parse_probability(key, value);
    } else if (key == "crash_rank") {
      out.crash_rank = parse_integer<int>(key, value);
    } else if (key == "crash_at") {
      out.crash_at = parse_integer<long>(key, value);
    } else if (key == "crash_repeat") {
      out.crash_repeat = parse_integer<bool>(key, value);
    } else if (key == "checksum") {
      out.checksum = parse_integer<bool>(key, value);
    } else {
      throw CommConfigError("fault-spec: unknown key '" + key + "'");
    }
  }
  if (out.crash_rank >= 0 && out.crash_at < 0)
    throw CommConfigError(
        "fault-spec: crash_rank needs a crash_at step");
  return out;
}

double FaultInjectingBackend::roll(std::uint64_t message,
                                   std::uint64_t salt) const {
  // Counter-keyed hash, not a shared stream: the draw for (rank, message,
  // decision) is a pure function of the spec seed, so fault placement is
  // identical across runs and thread schedules.
  const std::uint64_t key =
      splitmix64(spec_.seed ^ (static_cast<std::uint64_t>(rank()) << 48) ^
                 (message << 8) ^ salt);
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

void FaultInjectingBackend::step() {
  ++op_count_;
  // The crash is keyed to the LAUNCH rank identity (split children are
  // renumbered and must not re-match) and, by default, fires ONCE per rank
  // family: whichever backend instance first passes its crash_at consumes
  // it, so a caller that catches the RankCrashError models a restarted
  // rank whose retries can succeed. crash_repeat keeps the node down.
  if (rank_state_->root_rank != spec_.crash_rank || spec_.crash_at < 0)
    return;
  if (op_count_ <= spec_.crash_at) return;
  if (!spec_.crash_repeat && rank_state_->crashed) return;
  rank_state_->crashed = true;
  throw RankCrashError(rank_state_->root_rank, op_count_);
}

void FaultInjectingBackend::send_bytes(std::span<const std::byte> data,
                                       int dest, int tag) {
  step();
  const std::uint64_t m = msg_count_++;
  if (spec_.delay_ms > 0 && roll(m, 0) < spec_.delay_prob)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(spec_.delay_ms));
  if (roll(m, 1) < spec_.drop) return;  // Lost on the wire.

  std::span<const std::byte> wire = data;
  const bool truncate = !data.empty() && roll(m, 2) < spec_.truncate;
  const bool flip = !data.empty() && roll(m, 3) < spec_.bitflip;
  if (truncate || flip) {
    scratch_.assign(data.begin(), data.end());
    if (truncate) {
      const auto cut = 1 + static_cast<size_t>(roll(m, 4) * 7.99) %
                               scratch_.size();
      scratch_.resize(scratch_.size() - std::min(cut, scratch_.size()));
    }
    if (flip && !scratch_.empty()) {
      const auto bit = static_cast<size_t>(
          roll(m, 5) * static_cast<double>(scratch_.size() * 8));
      scratch_[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    wire = scratch_;
  }
  inner_->send_bytes(wire, dest, tag);
  if (roll(m, 6) < spec_.dup) inner_->send_bytes(wire, dest, tag);
}

std::optional<Incoming> FaultInjectingBackend::recv_bytes(int src, int tag,
                                                          double timeout_ms) {
  step();
  return inner_->recv_bytes(src, tag, timeout_ms);
}

bool FaultInjectingBackend::probe(int src, int tag) {
  return inner_->probe(src, tag);
}

bool FaultInjectingBackend::barrier(double timeout_ms) {
  step();
  return inner_->barrier(timeout_ms);
}

std::shared_ptr<Backend> FaultInjectingBackend::split(int color, int new_rank,
                                                      int new_size,
                                                      double timeout_ms) {
  // Sub-communicators inherit the schedule (fresh counters: the child's
  // message stream is its own deterministic sequence) and SHARE the
  // per-rank crash state, so the one-shot crash is consumed once per rank,
  // not once per sub-communicator.
  std::shared_ptr<Backend> child =
      inner_->split(color, new_rank, new_size, timeout_ms);
  if (!child) return nullptr;
  return std::shared_ptr<Backend>(
      new FaultInjectingBackend(std::move(child), spec_, rank_state_));
}

}  // namespace diffreg::mpisim

// Miniature TimeKind used by contract_lint.py --selftest. Seeds exactly one
// violation:
//   timekind-unused   TimeKind::kGhost is never referenced
// Every other value is referenced below, so the selftest count stays at one
// finding.
#pragma once

namespace selftest {

enum class TimeKind : int {
  kFftComm = 0,
  kGhost,  // seeded: nothing references TimeKind::kGhost
  kCount,
};

constexpr int kNumTimeKinds = static_cast<int>(TimeKind::kCount);

inline bool is_fft(TimeKind kind) { return kind == TimeKind::kFftComm; }

}  // namespace selftest

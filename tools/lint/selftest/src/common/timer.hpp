// Miniature TimeKind used by contract_lint.py --selftest. Seeds exactly one
// violation:
//   timekind-unused   TimeKind::kGhost is never referenced
// Every other value is referenced below, so the selftest count stays at one
// finding. The selftest also lints a copy with the kCount reference removed
// and expects two findings, one at each enumerator's line.
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

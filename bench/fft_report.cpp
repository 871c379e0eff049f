// FFT trajectory reporter: times the distributed forward/inverse transforms
// and dumps one JSON record per configuration (size, process grid, wall
// times, comm bytes/messages/alltoallv exchanges) to BENCH_fft.json, so CI
// runs of successive PRs can track both the kernel speed and the message
// count of the hottest path in the solver. Cube records are n^3; the
// "brain-grid" record is brain-48's 48x56x48 grid ("size" is its N1), where
// every axis runs mixed radix.
//
// Usage: fft_report [output.json]
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "fft/fft3d_distributed.hpp"
#include "grid/decomposition.hpp"
#include "mpisim/communicator.hpp"

using namespace diffreg;

namespace {

struct Record {
  Int3 dims;
  int p = 0;
  const char* label = nullptr;  // the record's "case", if any
  double forward_ms = 0;
  double inverse_ms = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t comm_messages = 0;
  std::uint64_t exchanges = 0;
};

Record run_case(const Int3& dims, int p, int reps,
               const char* label = nullptr) {
  Record rec;
  rec.dims = dims;
  rec.p = p;
  rec.label = label;
  const bool guard = label != nullptr && std::string(label) == "guard";
  const bench::FftCaseResult res =
      bench::run_fft_trajectory_case(dims, p, reps, guard);
  rec.forward_ms = res.forward_ms;
  rec.inverse_ms = res.inverse_ms;
  // Per-rank, per-transform averages, so records are comparable across rank
  // counts (and against the 2-exchanges-per-transform invariant the tests
  // assert).
  const std::uint64_t norm = 2ull * reps * static_cast<std::uint64_t>(p);
  rec.comm_bytes = res.agg.bytes(TimeKind::kFftComm) / norm;
  rec.comm_messages = res.agg.messages(TimeKind::kFftComm) / norm;
  rec.exchanges = res.agg.exchanges(TimeKind::kFftComm) / norm;
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fft.json";

  const Int3 c32{32, 32, 32}, c64{64, 64, 64};
  std::vector<Record> records;
  records.push_back(run_case(c32, 1, 20));
  records.push_back(run_case(c64, 1, 5));
  records.push_back(run_case(c32, 4, 10));
  records.push_back(run_case(c64, 4, 3));
  // Guard legs of the multi-rank cases: one collective validate_finite
  // sweep per transform, pricing the --guard safeguard on the hottest
  // kernel ("case": "guard"). Comm counters must match the base records.
  records.push_back(run_case(c32, 4, 10, "guard"));
  records.push_back(run_case(c64, 4, 3, "guard"));
  records.push_back(run_case(Int3{48, 56, 48}, 4, 5, "brain-grid"));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fft_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fft\",\n  \"flags\": \"%s\",\n",
               bench::arch_flags());
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const std::string extra =
        r.label ? "\"case\": \"" + std::string(r.label) + "\", " : "";
    std::fprintf(f,
                 "    {%s\"size\": %lld, \"ranks\": %d, \"forward_ms\": %.4f, "
                 "\"inverse_ms\": %.4f, \"comm_bytes_per_rank_transform\": "
                 "%llu, \"comm_messages_per_rank_transform\": %llu, "
                 "\"alltoallv_exchanges_per_rank_transform\": %llu}%s\n",
                 extra.c_str(), static_cast<long long>(r.dims[0]), r.p,
                 r.forward_ms, r.inverse_ms,
                 static_cast<unsigned long long>(r.comm_bytes),
                 static_cast<unsigned long long>(r.comm_messages),
                 static_cast<unsigned long long>(r.exchanges),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  for (const Record& r : records)
    std::printf(
        "fft %lldx%lldx%lld p=%d%s%s: forward %.3f ms, inverse %.3f ms, "
        "%llu B / %llu msgs / %llu exchanges per rank per transform\n",
        static_cast<long long>(r.dims[0]), static_cast<long long>(r.dims[1]),
        static_cast<long long>(r.dims[2]), r.p, r.label ? " " : "",
        r.label ? r.label : "", r.forward_ms, r.inverse_ms,
        static_cast<unsigned long long>(r.comm_bytes),
        static_cast<unsigned long long>(r.comm_messages),
        static_cast<unsigned long long>(r.exchanges));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// FFT trajectory reporter: times the distributed forward/inverse transforms
// and dumps one JSON record per configuration (size, process grid, wall
// times, comm bytes/messages/alltoallv exchanges) to BENCH_fft.json, so CI
// runs of successive PRs can track both the kernel speed and the message
// count of the hottest path in the solver.
//
// Usage: fft_report [--wire fp64|fp32] [output.json]
// --wire fp32 runs the same cases with the fp32 wire format enabled on the
// transpose exchanges (the mixed-precision leg; bench name "fft_fp32wire").
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
  index_t n = 0;
  int p = 0;
  bool guard = false;
  double forward_ms = 0;
  double inverse_ms = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t comm_messages = 0;
  std::uint64_t exchanges = 0;
};

Record run_case(index_t n, int p, int reps, WirePrecision wire,
                bool guard = false) {
  Record rec;
  rec.n = n;
  rec.p = p;
  rec.guard = guard;
  const bench::FftCaseResult res =
      bench::run_fft_trajectory_case(n, p, reps, wire, guard);
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
  WirePrecision wire = WirePrecision::kF64;
  std::string out_arg;
  if (!bench::parse_wire_args(argc, argv, "fft_report", wire, out_arg))
    return 1;
  const bool fp32 = wire == WirePrecision::kF32;
  const std::string out_path =
      !out_arg.empty()
          ? out_arg
          : (fp32 ? "BENCH_fft_fp32wire.json" : "BENCH_fft.json");

  std::vector<Record> records;
  records.push_back(run_case(32, 1, 20, wire));
  records.push_back(run_case(64, 1, 5, wire));
  records.push_back(run_case(32, 4, 10, wire));
  records.push_back(run_case(64, 4, 3, wire));
  // Guard legs of the multi-rank cases: one collective validate_finite
  // sweep per transform, pricing the --guard safeguard on the hottest
  // kernel ("case": "guard"). Comm counters must match the base records.
  records.push_back(run_case(32, 4, 10, wire, /*guard=*/true));
  records.push_back(run_case(64, 4, 3, wire, /*guard=*/true));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fft_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"flags\": \"%s\",\n"
               "  \"records\": [\n",
               fp32 ? "fft_fp32wire" : "fft", bench::arch_flags());
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const char* extra = r.guard ? "\"case\": \"guard\", " : "";
    std::fprintf(f,
                 "    {%s\"size\": %lld, \"ranks\": %d, \"forward_ms\": %.4f, "
                 "\"inverse_ms\": %.4f, \"comm_bytes_per_rank_transform\": "
                 "%llu, \"comm_messages_per_rank_transform\": %llu, "
                 "\"alltoallv_exchanges_per_rank_transform\": %llu}%s\n",
                 extra, static_cast<long long>(r.n), r.p, r.forward_ms,
                 r.inverse_ms, static_cast<unsigned long long>(r.comm_bytes),
                 static_cast<unsigned long long>(r.comm_messages),
                 static_cast<unsigned long long>(r.exchanges),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  for (const Record& r : records)
    std::printf(
        "fft %lld^3 p=%d%s: forward %.3f ms, inverse %.3f ms, "
        "%llu B / %llu msgs / %llu exchanges per rank per transform\n",
        static_cast<long long>(r.n), r.p, r.guard ? " guard" : "",
        r.forward_ms, r.inverse_ms,
        static_cast<unsigned long long>(r.comm_bytes),
        static_cast<unsigned long long>(r.comm_messages),
        static_cast<unsigned long long>(r.exchanges));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

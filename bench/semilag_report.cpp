// Semi-Lagrangian transport trajectory reporter: times the plan build
// (departure points + scatter phase), the cached-plan solves (state and the
// Gauss-Newton Hessian-matvec transports), and the batched vector
// interpolation, and dumps one JSON record per configuration (size, ranks,
// wall times, interp comm bytes/messages/alltoallv exchanges per matvec) to
// BENCH_semilag.json. Together with BENCH_fft.json this feeds the CI
// bench-regression gate (bench/check_regression.py): wall times are gated
// with a tolerance, the comm counters exactly.
//
// Usage: semilag_report [--wire fp64|fp32] [output.json]
// --wire fp32 runs the same cases with the fp32 wire format on the ghost
// halos and the interpolation value scatter (the mixed-precision leg; bench
// name "semilag_fp32wire").
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "imaging/synthetic.hpp"
#include "mpisim/communicator.hpp"
#include "semilag/transport.hpp"

using namespace diffreg;

namespace {

struct Record {
  index_t n = 0;
  int p = 0;
  double plan_build_ms = 0;   // set_velocity of a fresh velocity
  double state_ms = 0;        // solve_state (nt cached-plan steps)
  double matvec_ms = 0;       // incr. state + GN incr. adjoint transports
  double interp_vec3_ms = 0;  // one batched 3-component interpolation
  bool guard = false;
  std::uint64_t comm_bytes = 0;     // interp comm per rank per matvec
  std::uint64_t comm_messages = 0;
  std::uint64_t exchanges = 0;      // alltoallv+alltoall per rank per matvec
};

Record run_case(index_t n, int p, int reps, WirePrecision wire,
                bool guard = false) {
  Record rec;
  rec.n = n;
  rec.p = p;
  rec.guard = guard;
  const bench::SemilagCaseResult res =
      bench::run_semilag_trajectory_case(n, p, reps, wire, guard);
  rec.plan_build_ms = res.plan_build_ms;
  rec.state_ms = res.state_ms;
  rec.matvec_ms = res.matvec_ms;
  rec.interp_vec3_ms = res.interp_vec3_ms;
  // Per-rank, per-matvec averages (deterministic: the plan's comm schedule
  // is fixed by the velocity, not by timing).
  const std::uint64_t norm =
      static_cast<std::uint64_t>(reps) * static_cast<std::uint64_t>(p);
  rec.comm_bytes = res.matvec_agg.bytes(TimeKind::kInterpComm) / norm;
  rec.comm_messages = res.matvec_agg.messages(TimeKind::kInterpComm) / norm;
  rec.exchanges = res.matvec_agg.exchanges(TimeKind::kInterpComm) / norm;
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  WirePrecision wire = WirePrecision::kF64;
  std::string out_arg;
  if (!bench::parse_wire_args(argc, argv, "semilag_report", wire, out_arg))
    return 1;
  const bool fp32 = wire == WirePrecision::kF32;
  const std::string out_path =
      !out_arg.empty()
          ? out_arg
          : (fp32 ? "BENCH_semilag_fp32wire.json" : "BENCH_semilag.json");

  std::vector<Record> records;
  records.push_back(run_case(32, 1, 10, wire));
  records.push_back(run_case(64, 1, 3, wire));
  records.push_back(run_case(32, 4, 5, wire));
  records.push_back(run_case(64, 4, 2, wire));
  // Guard legs of the multi-rank cases: one collective validate_finite per
  // timed solve/matvec/interp, pricing the --guard safeguard on the
  // transport path ("case": "guard"). Comm counters must match the base.
  records.push_back(run_case(32, 4, 5, wire, /*guard=*/true));
  records.push_back(run_case(64, 4, 2, wire, /*guard=*/true));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "semilag_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"flags\": \"%s\",\n"
               "  \"records\": [\n",
               fp32 ? "semilag_fp32wire" : "semilag", bench::arch_flags());
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const char* extra = r.guard ? "\"case\": \"guard\", " : "";
    std::fprintf(
        f,
        "    {%s\"size\": %lld, \"ranks\": %d, \"plan_build_ms\": %.4f, "
        "\"state_ms\": %.4f, \"matvec_ms\": %.4f, \"interp_vec3_ms\": %.4f, "
        "\"interp_comm_bytes_per_rank_matvec\": %llu, "
        "\"interp_comm_messages_per_rank_matvec\": %llu, "
        "\"interp_exchanges_per_rank_matvec\": %llu}%s\n",
        extra, static_cast<long long>(r.n), r.p, r.plan_build_ms, r.state_ms,
        r.matvec_ms, r.interp_vec3_ms,
        static_cast<unsigned long long>(r.comm_bytes),
        static_cast<unsigned long long>(r.comm_messages),
        static_cast<unsigned long long>(r.exchanges),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  for (const Record& r : records)
    std::printf(
        "semilag %lld^3 p=%d%s: plan build %.3f ms, state %.3f ms, matvec "
        "%.3f ms, vec3 interp %.3f ms, %llu B / %llu msgs / %llu exchanges "
        "per rank per matvec\n",
        static_cast<long long>(r.n), r.p, r.guard ? " guard" : "",
        r.plan_build_ms, r.state_ms, r.matvec_ms, r.interp_vec3_ms,
        static_cast<unsigned long long>(r.comm_bytes),
        static_cast<unsigned long long>(r.comm_messages),
        static_cast<unsigned long long>(r.exchanges));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

#!/usr/bin/env python3
"""Registration benchmark: time to solution and batch throughput of libdiffreg.

Builds the regbench binary (CMake project in this directory, linking the
repository's library), runs one workload for a fixed time, checks every
solve against reference.json, and prints each metric by name with its unit.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 regbench/run.py --workload synthetic-64 --seed 1 --seconds 30 --trace 0
    python3 regbench/run.py --record     # rewrite reference.json

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run (see README.md). Build output
goes to $CARGO_TARGET_DIR (default .bench_build), records and span logs to
.bench_out, both under the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synthetic-64", "brain-48", "batch-32")
REFERENCE = os.path.join(HERE, "reference.json")
# rel_residual and min_det may move this much (relative) against the
# reference before a solve counts as failed: room for a reordered floating-
# point sum, far below any change in what the solver computes.
QUALITY_RTOL = 1e-3
RUN_TIMEOUT_S = 170
KINDS = ("fft_comm", "fft_exec", "interp_comm", "interp_exec", "other")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the binary; returns its path or None."""
    bdir = build_dir()
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "regbench", "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("regbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "regbench")


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("regbench: binary exceeded %d s" % RUN_TIMEOUT_S)
        return False
    if proc.returncode != 0:
        log("regbench: binary exited with %d" % proc.returncode)
        return False
    return True


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The 90th percentile when at least ten samples lie beyond it; with
    fewer samples the highest percentile that has ten beyond it, and never
    below the median (which is all that 7-20 solves per run resolve)."""
    q = max(0.9 if len(xs) >= 100 else 1.0 - 10.0 / max(len(xs), 1), 0.5)
    if q == 0.5 or len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=1000, method="inclusive")[round(q * 1000) - 1]


def quality_failures(sample, ref):
    """Reasons the solve `sample` fails the output check against `ref`."""
    out = []
    if sample.get("threw"):
        return ["threw"]
    if not sample["finite"]:
        out.append("non-finite output")
    if not sample["converged"]:
        out.append("not converged")
    if sample["min_det"] <= 0:
        out.append("det <= 0")
    for key in ("converged", "newton_iters", "matvecs"):
        if sample[key] != ref[key]:
            out.append("%s %s != reference %s" % (key, sample[key], ref[key]))
    for key in ("rel_residual", "min_det"):
        if abs(sample[key] - ref[key]) > QUALITY_RTOL * abs(ref[key]):
            out.append("%s %.9g outside reference %.9g" % (key, sample[key], ref[key]))
    return out


COUNT_KEYS = ("newton_iters", "matvecs", "krylov_iters", "plan_builds") + tuple(
    "%s_%s" % (k, c) for k in KINDS for c in ("bytes", "messages", "exchanges"))


def count_drift(solves):
    """Variants whose counters differ between solves of the same input."""
    seen, drift = {}, []
    for s in solves:
        if s["threw"]:
            continue
        counts = tuple(s[k] for k in COUNT_KEYS)
        first = seen.setdefault(s["variant"], counts)
        if counts != first:
            diff = [k for k, a, b in zip(COUNT_KEYS, counts, first) if a != b]
            drift.append("variant %d: %s" % (s["variant"], ",".join(diff)))
    return drift


def evaluate(rec, ref):
    """Checks the record; returns (attempted, failures, drift, selftest)."""
    solves = rec["solves"]
    failures = []
    if "jobs" in rec:
        by_id = {s["id"]: s for s in solves}
        attempted = len(rec["jobs"])
        for job in rec["jobs"]:
            sample = by_id.get(job["id"])
            if job["outcome"] != "done" or sample is None:
                failures.append("job %d: outcome %s" % (job["id"], job["outcome"]))
                continue
            why = quality_failures(sample, ref[str(sample["variant"])])
            if why:
                failures.append("job %d: %s" % (job["id"], "; ".join(why)))
    else:
        attempted = len(solves)
        for s in solves:
            why = quality_failures(s, ref[str(s["variant"])])
            if why:
                failures.append("solve %d: %s" % (s["id"], "; ".join(why)))
    drift = count_drift(solves)
    if "jobs" in rec:
        # Warm batches build nothing and lease the same plans every time.
        builds = [rec["registry_cold_builds"]] + rec["registry_builds_after"]
        leases = [rec["registry_cold_leases"]] + rec["registry_leases_after"]
        if len(set(builds)) != 1:
            drift.append("registry builds in warm batches: %s" % builds)
        steps = {b - a for a, b in zip(leases[1:], leases[2:])}
        if len(steps) > 1:
            drift.append("registry leases per batch differ: %s" % leases)
    selftest = []
    if not rec["spans_closed"]:
        selftest.append("a span was left open or closed out of order")
    if not all(s["attribution_ok"] for s in solves):
        selftest.append("Timings categories exceed time to solution")
    if not all(s["iterate_deltas_ok"] for s in solves):
        selftest.append("per-iterate Timings deltas do not sum to the solve's")
    return attempted, failures, drift, selftest


def end_to_end(rec, attempted, failed):
    solves = [s for s in rec["solves"] if not s["threw"]]
    if "jobs" in rec:
        done = [j for j in rec["jobs"] if j["outcome"] == "done"]
        tts = [j["solve_seconds"] for j in done]
        rate = len(tts) / sum(rec["batch_wall_s"])
        # The four one-rank shards run concurrently, and on a shared host
        # each job lands in a fast or a slow state (about 0.30 s against
        # 0.47 s), so the per-job times split into two modes of varying
        # weight and their plain median jumps between the modes from run to
        # run. The p50 is therefore the median over batches of each batch's
        # mean job time, which moves only with the weight of the modes.
        per_batch = {}
        for j in done:
            per_batch.setdefault(j["batch"], []).append(j["solve_seconds"])
        p50 = median([statistics.fmean(v) for v in per_batch.values()])
    else:
        tts = [s["tts_s"] for s in solves]
        rate = len(tts) / sum(tts) if tts else 0.0
        p50 = median(tts)
    return {
        "time_to_solution_p50_s": (p50, "s"),
        "time_to_solution_p90_s": (tail(tts), "s"),
        "registrations_per_s": (rate, "1/s"),
        "setup_s": (median(rec["setup_s"]), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "rel_residual": (max((s["rel_residual"] for s in solves), default=1.0), "ratio"),
        "min_det": (min((s["min_det"] for s in solves), default=0.0), "ratio"),
        "solved_ratio": ((attempted - failed) / attempted, "ratio"),
    }, len(tts)


def per_layer(rec):
    solves = [s for s in rec["solves"] if not s["threw"]]

    def med(key):
        return median([s[key] for s in solves])

    m = {}
    for layer in ("interp", "fft"):
        m[layer + ".comm_s"] = (med(layer + "_comm_s"), "s")
        m[layer + ".exec_s"] = (med(layer + "_exec_s"), "s")
        for c in ("bytes", "messages", "exchanges"):
            m["%s.%s" % (layer, c)] = (med("%s_comm_%s" % (layer, c)), "count")
    for name, samples in rec["layers"].items():
        m[name] = (median(samples), "ms")
    m["semilag.plan_builds"] = (med("plan_builds"), "count")
    for c in ("newton_iters", "matvecs", "krylov_iters"):
        m["core." + c] = (med(c), "count")
    m["core.iterate_s"] = (median([d for s in solves for d in s["iterate_s"]]), "s")
    m["core.unattributed_s"] = (med("unattributed_s"), "s")
    if "jobs" in rec:
        leases = [rec["registry_cold_leases"]] + rec["registry_leases_after"]
        builds = [rec["registry_cold_builds"]] + rec["registry_builds_after"]
        warm_leases = leases[-1] - leases[0]
        warm_builds = builds[-1] - builds[0]
        m["core.registry.plan_builds"] = (rec["registry_cold_builds"], "count")
        m["core.registry.leases"] = (leases[1] - leases[0], "count")
        m["core.registry.hit_ratio"] = (
            1.0 - warm_builds / warm_leases if warm_leases else 0.0, "ratio")
        m["mpisim.bytes"] = (median(rec["batch_bytes"]), "count")
        m["mpisim.messages"] = (median(rec["batch_messages"]), "count")
        m["mpisim.reduce_s"] = (median(rec["batch_reduce_s"]), "s")
        m["mpisim.rank_imbalance"] = (median(rec["batch_rank_imbalance"]), "ratio")
        walls = rec["batch_wall_s"]
        traced = [w for w, t in zip(walls, rec["batch_traced"]) if t]
        plain = [w for w, t in zip(walls, rec["batch_traced"]) if not t]
    else:
        # Standalone solvers use no plan registry.
        m["core.registry.plan_builds"] = (0, "count")
        m["core.registry.leases"] = (0, "count")
        m["core.registry.hit_ratio"] = (0.0, "ratio")
        m["mpisim.bytes"] = (median([sum(s[k + "_bytes"] for k in KINDS)
                                     for s in solves]), "count")
        m["mpisim.messages"] = (median([sum(s[k + "_messages"] for k in KINDS)
                                        for s in solves]), "count")
        m["mpisim.reduce_s"] = (med("other_s"), "s")
        m["mpisim.rank_imbalance"] = (median([
            max(s["exec_by_rank"]) * len(s["exec_by_rank"]) / sum(s["exec_by_rank"])
            for s in solves]), "ratio")
        traced = [s["tts_s"] for s in solves if s["traced"]]
        plain = [s["tts_s"] for s in solves if not s["traced"]]
    m["imaging.inputs_ms"] = (median(rec["inputs_ms"]), "ms")
    m["trace.overhead_ratio"] = (
        median(traced) / median(plain) if traced and plain else 1.0, "ratio")
    return m


def record_reference(binary, out_dir):
    refs = {}
    for w in WORKLOADS:
        path = os.path.join(out_dir, "reference-%s.json" % w)
        log("regbench: recording reference values of %s" % w)
        if not run_binary(binary, ["--record", "--workload", w, "--out", path]):
            return 1
        with open(path) as f:
            refs[w] = json.load(f)
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    log("regbench: wrote %s" % REFERENCE)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="solve every input variant and rewrite reference.json")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.record:
        return record_reference(binary, out_dir)

    with open(REFERENCE) as f:
        ref = json.load(f)[args.workload]
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    rec_path = os.path.join(out_dir, stem + ".record.json")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", rec_path]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, stem + ".spans.jsonl")]
    t0 = time.monotonic()
    if not run_binary(binary, cmd):
        return 1
    with open(rec_path) as f:
        rec = json.load(f)

    attempted, failures, drift, selftest = evaluate(rec, ref)
    e2e, samples = end_to_end(rec, attempted, len(failures))
    metrics = per_layer(rec) if args.trace else e2e
    env = dict(rec["env"])
    env["samples"] = {"time_to_solution": samples, "setup": len(rec["setup_s"]),
                      "solves": len(rec["solves"])}
    env["run_s"] = round(time.monotonic() - t0, 3)
    for line in failures + ["drift: " + d for d in drift] + \
            ["self-test: " + s for s in selftest]:
        log("regbench: " + line)
    for name, (value, unit) in metrics.items():
        print("%-36s %16.6g %s" % (name, value, unit))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failures and not drift and not selftest,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, stem + ".result.json"), "w") as f:
        json.dump({"env": env, "result": result, "failures": failures,
                   "drift": drift, "selftest": selftest}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bench-regression gate for the CI Release job.

Compares freshly produced bench JSONs (BENCH_fft.json, BENCH_semilag.json,
BENCH_continuation.json) against the committed baselines in bench/baselines/.
Field classes:

* Wall-time fields (ending in ``_ms``): fail when the current value exceeds
  baseline * (1 + --time-tolerance). Machines differ, so CI passes a wider
  tolerance than the 25% default that is meant for like-for-like local runs.
  Wall times are only compared when both JSONs were built with the same
  arch flag set (the top-level ``"flags"`` field): differently-tuned
  builds are not comparable, so a mismatch skips the ``_ms`` fields with a
  note and gates only the flag-independent counters.
* Iteration-count fields (ending in ``_iters``: Krylov iterations, Hessian
  matvecs): deterministic on one machine but sensitive to floating-point
  contraction across compilers, so they get their own tolerance
  (--iters-tolerance, default 35%).
* Wire-byte counters (fields ending in ``_bytes``): deterministic
  properties of an exchange schedule (e.g. the bytes one FFT transpose
  puts on the wire), gated EXACTLY — any increase fails, a decrease is a
  note to refresh the baseline.
* Other byte counters (fields merely containing ``bytes``):
  near-deterministic, but the interpolation byte volume depends on which
  rank owns each departure point — a floating-point classification that can
  shift by a few points across compilers/FMA contraction — so they get a
  small tolerance (--bytes-tolerance, default 1%).
* Ratio fields (ending in ``_ratio``, e.g. the hidden-comm fraction of the
  overlap bench legs): a fraction in [0, 1] that should not *drop* — losing
  comm/compute overlap is the regression — gated with an absolute
  tolerance (--ratio-tolerance, default 0.25: thread scheduling on an
  oversubscribed CI box makes the hidden fraction noisy). Growth is never
  a failure.
* Throughput rates (ending in ``_rate``, e.g. registrations/sec of the
  batch service leg): higher is better, so the gate is the mirror image of
  the ``_ms`` class — fail when the current value drops below
  baseline / (1 + --time-tolerance). Like wall times, rates are only
  compared when both JSONs carry the same arch flag set.
* Convergence flags (ending in ``_converged``): must match the baseline
  exactly in both directions — a solve that stops converging is a
  regression even though the value decreased.
* Every other counter field (comm messages / alltoallv exchanges):
  deterministic properties of the communication schedule, so ANY increase
  over the baseline fails, regardless of tolerance.

Records are matched by their identity keys (``size``/``ranks``/``case``);
a record or file missing from the baseline is reported (and fails, unless
--allow-missing) so new benches get a committed baseline alongside them.

Usage:
  python3 bench/check_regression.py \
      --baseline-dir bench/baselines [--time-tolerance 0.25] \
      BENCH_fft.json BENCH_semilag.json

Exit code 0 = no regression, 1 = regression or comparison error.
"""

import argparse
import json
import os
import sys

IDENTITY_KEYS = ("size", "ranks", "case", "bench")
TIME_SUFFIX = "_ms"
ITERS_SUFFIX = "_iters"
WIRE_BYTES_SUFFIX = "_bytes"
RATIO_SUFFIX = "_ratio"
RATE_SUFFIX = "_rate"


def record_key(record):
    return tuple((k, record[k]) for k in IDENTITY_KEYS if k in record)


FIELD_CLASS_DESC = {
    "identity": "identity key (matches records, never gated)",
    "time": "wall time (--time-tolerance)",
    "iters": "iteration count (--iters-tolerance)",
    "wire_bytes": "wire byte counter (exact, any growth fails)",
    "bytes": "byte counter (--bytes-tolerance)",
    "ratio": "ratio (absolute drop beyond --ratio-tolerance fails)",
    "rate": "throughput rate (drop beyond --time-tolerance fails)",
    "converged": "convergence flag (exact in both directions)",
    "counter": "comm counter (exact, any growth fails)",
}


def field_class(field):
    """Gate class of a record field (see the module docstring). The compare
    loop dispatches on this, so --list-fields prints exactly what the gate
    will do."""
    if field in IDENTITY_KEYS:
        return "identity"
    if field.endswith(TIME_SUFFIX):
        return "time"
    if field.endswith(ITERS_SUFFIX):
        return "iters"
    if field.endswith(WIRE_BYTES_SUFFIX):
        return "wire_bytes"
    if "bytes" in field:
        return "bytes"
    if field.endswith(RATIO_SUFFIX):
        return "ratio"
    if field.endswith(RATE_SUFFIX):
        return "rate"
    if field.endswith("_converged"):
        return "converged"
    return "counter"


def load_records(path, failures):
    """Parses one bench JSON; on failure appends a one-line error naming the
    file to `failures` and returns None (a truncated or corrupt bench output
    must read as a gate failure, not a crash)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        failures.append(f"cannot read bench JSON {path}: {e.strerror or e}")
        return None
    except json.JSONDecodeError as e:
        failures.append(f"corrupt bench JSON {path}: line {e.lineno}: "
                        f"{e.msg}")
        return None
    if not isinstance(doc, dict):
        failures.append(f"corrupt bench JSON {path}: top level is not an "
                        "object")
        return None
    records = {}
    for rec in doc.get("records", []):
        records[record_key(rec)] = rec
    return (doc.get("bench", os.path.basename(path)),
            doc.get("flags", "default"), records)


def list_fields(paths, failures):
    """Prints every record's identity and a field -> gate-class table, so a
    baseline refresh can be reviewed without reading the gate logic."""
    for path in paths:
        loaded = load_records(path, failures)
        if loaded is None:
            continue
        bench, flags, records = loaded
        print(f"{path}: bench={bench} flags={flags} "
              f"({len(records)} record(s))")
        for key, rec in sorted(records.items()):
            ident = ", ".join(f"{k}={v}" for k, v in key)
            print(f"  record ({ident})")
            for field in rec:
                cls = field_class(field)
                if cls == "identity":
                    continue
                print(f"    {field}: {FIELD_CLASS_DESC[cls]}")


def compare_file(current_path, baseline_path, time_tol, bytes_tol, iters_tol,
                 ratio_tol, failures, notes):
    cur_loaded = load_records(current_path, failures)
    base_loaded = load_records(baseline_path, failures)
    if cur_loaded is None or base_loaded is None:
        return
    bench, cur_flags, current = cur_loaded
    _, base_flags, baseline = base_loaded
    compare_times = cur_flags == base_flags
    if not compare_times:
        notes.append(
            f"{bench}: arch flags differ (current '{cur_flags}' vs baseline "
            f"'{base_flags}'); wall-time fields skipped, counters still "
            "gated")

    # Coverage loss is itself a regression: every baseline record and field
    # must still be produced by the current run.
    for key, base in sorted(baseline.items()):
        ident = ", ".join(f"{k}={v}" for k, v in key)
        cur = current.get(key)
        if cur is None:
            failures.append(f"{bench}: baseline record ({ident}) missing "
                            "from the current output (bench case dropped?)")
            continue
        for field in base:
            if field not in cur:
                failures.append(f"{bench} ({ident}): baseline field {field} "
                                "missing from the current output")

    for key, cur in sorted(current.items()):
        base = baseline.get(key)
        ident = ", ".join(f"{k}={v}" for k, v in key)
        if base is None:
            notes.append(f"{bench}: no baseline record for ({ident}); "
                         "refresh bench/baselines/")
            continue
        for field, cur_val in cur.items():
            cls = field_class(field)
            if cls == "identity" or not isinstance(cur_val, (int, float)):
                continue
            base_val = base.get(field)
            if base_val is None:
                notes.append(f"{bench} ({ident}): field {field} missing from "
                             "baseline")
                continue
            if cls == "time":
                if not compare_times:
                    continue
                limit = base_val * (1.0 + time_tol)
                if cur_val > limit:
                    failures.append(
                        f"{bench} ({ident}): {field} regressed "
                        f"{base_val:.3f} -> {cur_val:.3f} ms "
                        f"(limit {limit:.3f}, tolerance {time_tol:.0%})")
                elif base_val > 0 and cur_val < base_val / (1.0 + time_tol):
                    notes.append(
                        f"{bench} ({ident}): {field} improved "
                        f"{base_val:.3f} -> {cur_val:.3f} ms; consider "
                        "refreshing the baseline")
            elif cls == "iters":
                # Iteration counts wobble across compilers (FMA contraction
                # shifts PCG breakdown points); a real conditioning
                # regression blows far past this tolerance.
                limit = base_val * (1.0 + iters_tol)
                if cur_val > limit:
                    failures.append(
                        f"{bench} ({ident}): iteration count {field} grew "
                        f"{base_val} -> {cur_val} (limit {limit:.1f}, "
                        f"tolerance {iters_tol:.0%})")
                elif cur_val < base_val / (1.0 + iters_tol):
                    notes.append(
                        f"{bench} ({ident}): iteration count {field} "
                        f"dropped {base_val} -> {cur_val}; refresh the "
                        "baseline to lock in the win")
            elif cls == "wire_bytes":
                # Deterministic wire byte counters (any growth is a
                # schedule regression).
                if cur_val > base_val:
                    failures.append(
                        f"{bench} ({ident}): wire byte counter {field} grew "
                        f"{base_val} -> {cur_val} (gated exactly)")
                elif cur_val < base_val:
                    notes.append(
                        f"{bench} ({ident}): wire byte counter {field} "
                        f"dropped {base_val} -> {cur_val}; refresh the "
                        "baseline to lock in the win")
            elif cls == "bytes":
                # Byte volume is data-dependent at the margin (departure
                # point ownership is a floating-point classification).
                limit = base_val * (1.0 + bytes_tol)
                if cur_val > limit:
                    failures.append(
                        f"{bench} ({ident}): byte counter {field} grew "
                        f"{base_val} -> {cur_val} (limit {limit:.0f}, "
                        f"tolerance {bytes_tol:.0%})")
            elif cls == "ratio":
                # Overlap-efficiency style fractions: regressing means the
                # nonblocking legs stopped hiding wire time. Absolute
                # tolerance (the fraction is noisy under oversubscription);
                # growth is always fine.
                if cur_val < base_val - ratio_tol:
                    failures.append(
                        f"{bench} ({ident}): ratio {field} dropped "
                        f"{base_val:.3f} -> {cur_val:.3f} "
                        f"(limit -{ratio_tol:.2f} absolute)")
                elif cur_val > base_val + ratio_tol:
                    notes.append(
                        f"{bench} ({ident}): ratio {field} improved "
                        f"{base_val:.3f} -> {cur_val:.3f}; consider "
                        "refreshing the baseline")
            elif cls == "rate":
                # Throughput (higher is better): the mirror image of the
                # wall-time class, with the same tolerance and the same
                # arch-flag skip (a rate is 1 / wall time in disguise).
                if not compare_times:
                    continue
                limit = base_val / (1.0 + time_tol)
                if cur_val < limit:
                    failures.append(
                        f"{bench} ({ident}): rate {field} regressed "
                        f"{base_val:.3f} -> {cur_val:.3f} "
                        f"(limit {limit:.3f}, tolerance {time_tol:.0%})")
                elif cur_val > base_val * (1.0 + time_tol):
                    notes.append(
                        f"{bench} ({ident}): rate {field} improved "
                        f"{base_val:.3f} -> {cur_val:.3f}; consider "
                        "refreshing the baseline")
            elif cls == "converged":
                # Convergence flags must match exactly in BOTH directions: a
                # solve that stops converging is a regression even though
                # the value *decreased*.
                if cur_val != base_val:
                    failures.append(
                        f"{bench} ({ident}): convergence flag {field} "
                        f"changed {base_val} -> {cur_val}")
            else:
                # Deterministic communication counters: never allowed to grow.
                if cur_val > base_val:
                    failures.append(
                        f"{bench} ({ident}): counter {field} grew "
                        f"{base_val} -> {cur_val} (counters are exact; any "
                        "increase is a comm-schedule regression)")
                elif cur_val < base_val:
                    notes.append(
                        f"{bench} ({ident}): counter {field} dropped "
                        f"{base_val} -> {cur_val}; refresh the baseline to "
                        "lock in the win")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="+",
                        help="bench JSONs produced by this run")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--time-tolerance", type=float,
                        default=float(os.environ.get("BENCH_TIME_TOLERANCE",
                                                     0.25)),
                        help="allowed fractional wall-time growth "
                             "(default 0.25; env BENCH_TIME_TOLERANCE)")
    parser.add_argument("--bytes-tolerance", type=float, default=0.01,
                        help="allowed fractional growth of byte counters "
                             "(default 0.01)")
    parser.add_argument("--iters-tolerance", type=float, default=0.35,
                        help="allowed fractional growth of iteration-count "
                             "fields (default 0.35)")
    parser.add_argument("--ratio-tolerance", type=float,
                        default=float(os.environ.get("BENCH_RATIO_TOLERANCE",
                                                     0.25)),
                        help="allowed absolute drop of _ratio fields "
                             "(default 0.25; env BENCH_RATIO_TOLERANCE)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline file is absent")
    parser.add_argument("--list-fields", action="store_true",
                        help="print each record's identity and a field -> "
                             "gate-class table instead of comparing")
    args = parser.parse_args()

    if args.list_fields:
        failures = []
        list_fields(args.current, failures)
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1 if failures else 0

    failures, notes = [], []
    for current_path in args.current:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(current_path))
        if not os.path.exists(current_path):
            failures.append(f"missing bench output {current_path}")
            continue
        if not os.path.exists(baseline_path):
            msg = f"no committed baseline {baseline_path}"
            (notes if args.allow_missing else failures).append(msg)
            continue
        compare_file(current_path, baseline_path, args.time_tolerance,
                     args.bytes_tolerance, args.iters_tolerance,
                     args.ratio_tolerance, failures, notes)

    for note in notes:
        print(f"note: {note}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"bench regression gate passed "
          f"({len(args.current)} file(s), time tolerance "
          f"{args.time_tolerance:.0%}, bytes tolerance "
          f"{args.bytes_tolerance:.0%}, iteration tolerance "
          f"{args.iters_tolerance:.0%}, ratio tolerance "
          f"{args.ratio_tolerance:.2f} absolute, message/exchange "
          f"counters exact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

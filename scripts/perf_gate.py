#!/usr/bin/env python3
"""CI perf gate for the batched allocation kernels (src/kernel/).

Reads the recover.run/1 record written by

    bench_microbench --benchmark_filter=BM_Kernel --json-out=FILE \
        --benchmark_repetitions=5 --benchmark_report_aggregates_only=true

and enforces two things:

  1. Speedup floor (always hard).  Every BM_KernelDChoiceScalar* row
     must be paired with a BM_KernelDChoiceBatched* row at the same
     args, and the batched kernel must beat the scalar path by at least
     PAIR_FLOOR (1.2x: the fused xoshiro streaming path, whose serial
     recurrence caps the honest gain).  These ratios come from one run,
     so they are robust to the absolute speed of the CI machine.

  2. Baseline regression (>20% vs bench/BENCH_kernels.json).  Absolute
     cpu_ns comparisons across runs are noisy on shared CI hardware, so
     this check is *soft* by default: regressions are reported but do
     not fail the gate.  Set PERF_GATE=hard (or pass --hard) to make
     them fatal — the mode for dedicated perf runners.

With --write-baseline, the current run is written to the baseline path
instead of being checked (use medians from a repetitions run).

Aggregate handling: when the record holds _mean/_median/_stddev rows
(benchmark repetitions), the _median rows are used and the suffix is
stripped; otherwise the raw per-run rows are used as-is.
"""

import argparse
import json
import os
import re
import sys

SCHEMA = "recover.run/1"
BASELINE_SCHEMA = "recover.bench_kernels/1"
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench",
    "BENCH_kernels.json",
)

# Batched-vs-scalar floor.  A ratio within one run, so hard even on
# noisy hosts.
PAIR_FLOOR = 1.2

# Slowdown vs the committed baseline that counts as a regression.
REGRESSION_THRESHOLD = 1.20

PAIR_RE = re.compile(
    r"^BM_KernelDChoice(?P<mode>Scalar|Batched)(?P<engine>[A-Za-z0-9]+?)"
    r"(?P<args>(?:/-?\d+)+)$"
)
AGGREGATE_RE = re.compile(r"_(mean|median|stddev|cv)$")


def fail(message):
    print(f"perf_gate: FAIL: {message}", file=sys.stderr)
    return False


def load_rows(path):
    """Returns {benchmark_name: cpu_ns} from a recover.run/1 record,
    preferring _median aggregate rows when present."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    table = next(
        (t for t in doc.get("tables", []) if t.get("name") == "microbench"),
        None,
    )
    if table is None:
        raise ValueError("record has no 'microbench' table "
                         "(run bench_microbench with --json-out)")
    columns = table["columns"]
    try:
        name_i = columns.index("benchmark")
        cpu_i = columns.index("cpu_ns")
    except ValueError as e:
        raise ValueError(f"microbench table missing column: {e}") from e

    raw, medians = {}, {}
    for row in table["rows"]:
        name = row[name_i]
        cpu = row[cpu_i]
        if not isinstance(cpu, (int, float)) or cpu <= 0:
            continue
        m = AGGREGATE_RE.search(name)
        if m:
            if m.group(1) == "median":
                medians[name[: m.start()]] = float(cpu)
        else:
            raw[name] = float(cpu)
    rows = medians or raw
    if not rows:
        raise ValueError("no usable benchmark rows in the record")
    return rows, doc.get("run", {})


def check_pairs(rows):
    """Speedup-floor check: every scalar d-choice row needs a batched
    partner beating PAIR_FLOOR.  Always hard."""
    pairs = {}
    for name, cpu in rows.items():
        m = PAIR_RE.match(name)
        if not m:
            continue
        key = (m.group("engine"), m.group("args"))
        pairs.setdefault(key, {})[m.group("mode")] = cpu

    checked = 0
    ok = True
    for (engine, args), modes in sorted(pairs.items()):
        if "Scalar" not in modes or "Batched" not in modes:
            ok = fail(f"BM_KernelDChoice*{engine}{args}: missing "
                      f"{'Batched' if 'Batched' not in modes else 'Scalar'} "
                      f"partner row")
            continue
        speedup = modes["Scalar"] / modes["Batched"]
        verdict = "ok" if speedup >= PAIR_FLOOR else "BELOW FLOOR"
        print(f"perf_gate: {engine}{args}: scalar {modes['Scalar']:.0f} ns, "
              f"batched {modes['Batched']:.0f} ns, speedup {speedup:.2f}x "
              f"(floor {PAIR_FLOOR:.1f}x) {verdict}")
        if speedup < PAIR_FLOOR:
            ok = fail(f"{engine}{args}: batched speedup {speedup:.2f}x "
                      f"below required {PAIR_FLOOR:.1f}x")
        checked += 1
    if checked == 0:
        ok = fail("no BM_KernelDChoice scalar/batched pairs found — "
                  "wrong --benchmark_filter?")
    return ok


def check_baseline(rows, baseline_path, hard):
    """>20% slowdown vs the committed baseline.  Soft unless hard."""
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"perf_gate: note: no baseline at {baseline_path}, "
              f"skipping regression check (--write-baseline to create)")
        return True
    if baseline.get("schema") != BASELINE_SCHEMA:
        return fail(f"{baseline_path}: schema is "
                    f"{baseline.get('schema')!r}, want {BASELINE_SCHEMA!r}")
    base_rows = baseline.get("benchmarks", {})

    regressions = []
    for name, base_cpu in sorted(base_rows.items()):
        cur = rows.get(name)
        if cur is None:
            print(f"perf_gate: note: baseline row {name} absent from "
                  f"this run (filter mismatch?)")
            continue
        ratio = cur / base_cpu
        mark = "REGRESSED" if ratio > REGRESSION_THRESHOLD else "ok"
        print(f"perf_gate: {name}: {cur:.0f} ns vs baseline "
              f"{base_cpu:.0f} ns ({ratio:.2f}x) {mark}")
        if ratio > REGRESSION_THRESHOLD:
            regressions.append((name, ratio))

    if not regressions:
        return True
    for name, ratio in regressions:
        print(f"perf_gate: regression: {name} is {ratio:.2f}x the "
              f"baseline (threshold {REGRESSION_THRESHOLD:.2f}x)",
              file=sys.stderr)
    if hard:
        return fail(f"{len(regressions)} kernel regression(s) vs "
                    f"{baseline_path}")
    print(f"perf_gate: {len(regressions)} regression(s) reported but not "
          f"fatal (soft mode; set PERF_GATE=hard to enforce)")
    return True


def write_baseline(rows, run, baseline_path):
    kernels = {n: round(c, 1) for n, c in sorted(rows.items())
               if n.startswith("BM_Kernel")}
    if not kernels:
        return fail("no BM_Kernel* rows to write as baseline")
    out = {
        "schema": BASELINE_SCHEMA,
        "source": {
            "binary": run.get("binary", "bench_microbench"),
            "git": run.get("git", "unknown"),
            "note": "cpu_ns medians; refresh with "
                    "scripts/perf_gate.py --write-baseline",
        },
        "benchmarks": kernels,
    }
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"perf_gate: wrote {baseline_path} ({len(kernels)} benchmarks)")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("record", help="recover.run/1 JSON from "
                                       "bench_microbench --json-out")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help="committed baseline (default: "
                             "bench/BENCH_kernels.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the baseline from this record "
                             "instead of checking against it")
    parser.add_argument("--hard", action="store_true",
                        help="make baseline regressions fatal "
                             "(same as PERF_GATE=hard)")
    args = parser.parse_args()
    hard = args.hard or os.environ.get("PERF_GATE") == "hard"

    try:
        rows, run = load_rows(args.record)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as e:
        fail(f"{args.record}: {e}")
        return 1

    if args.write_baseline:
        return 0 if write_baseline(rows, run, args.baseline) else 1

    ok = check_pairs(rows)
    ok = check_baseline(rows, args.baseline, hard) and ok
    if ok:
        print("perf_gate: OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

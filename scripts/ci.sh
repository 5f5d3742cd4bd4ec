#!/usr/bin/env bash
# Full local CI: configure, build with warnings-as-errors, run the test
# suite, smoke every experiment binary (each writing a recover.run/1
# JSON record), validate the records, and aggregate them into
# BENCH_smoke.json.  Mirrors what a hosted CI job for this repository
# runs.
#
# Env hooks:
#   BUILD_DIR=dir   build directory (default build-ci)
#   TSAN=1          additionally build parallel_test + obs_test +
#                   serve_test + ops_test + cluster_test + certify_test +
#                   rbb_test with -DRECOVERLIB_TSAN=ON and run them under
#                   ThreadSanitizer (separate build tree build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-ci}

echo "== docs: link and anchor check =="
python3 scripts/check_docs.py

cmake -B "$BUILD_DIR" -G Ninja -DRECOVERLIB_WERROR=ON
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure

JSON_DIR="$BUILD_DIR/bench-json"
rm -rf "$JSON_DIR"
mkdir -p "$JSON_DIR"

echo "== experiment smoke runs (with JSON records) =="
for exe in "$BUILD_DIR"/bench/exp*; do
  [ -x "$exe" ] || continue
  name=$(basename "$exe")
  echo "-- $name"
  "$exe" --metrics --json-out="$JSON_DIR/$name.json" > /dev/null
done

echo "-- bench_microbench"
"$BUILD_DIR"/bench/bench_microbench --metrics \
  --json-out="$JSON_DIR/bench_microbench.json" \
  --benchmark_min_time=0.01 > /dev/null

echo "== sweep engine: checkpoint + resume =="
SWEEP_CKPT="$JSON_DIR/sweep_exp01.ckpt.jsonl"
SWEEP_GRID="d=1..2;m=16..32:x2;density=1;replicas=4"
"$BUILD_DIR"/bench/sweep_runner --exp exp01 --grid "$SWEEP_GRID" \
  --checkpoint "$SWEEP_CKPT" --metrics \
  --json-out="$JSON_DIR/sweep_runner.json" > /dev/null
# A second run over the finished checkpoint must recompute nothing.
resume_line=$("$BUILD_DIR"/bench/sweep_runner --exp exp01 \
  --grid "$SWEEP_GRID" --checkpoint "$SWEEP_CKPT" | grep '^# sweep:')
echo "$resume_line"
case "$resume_line" in
  *" run=0 "*) ;;
  *)
    echo "ci.sh: sweep resume recomputed cells: $resume_line" >&2
    exit 1
    ;;
esac
python3 scripts/check_bench_json.py --sweep-checkpoint "$SWEEP_CKPT"

echo "== rbb: committed baseline =="
# Kernel-path identity of every sweep cell, checkpoint resume under both
# paths, and the certify chain suite under the scalar path are ctest
# cases (KernelPathIdentity.* in tests/kernel_test.cpp), run above.
python3 scripts/check_bench_json.py --rbb BENCH_rbb.json

echo "== kernel perf gate =="
# Speedup floors (batched vs scalar, same run) are hard; the >20%
# baseline regression check is soft unless PERF_GATE=hard — shared CI
# hosts are too noisy for absolute times to block merges by default.
"$BUILD_DIR"/bench/bench_microbench --json-out="$BUILD_DIR/bench_kernels.json" \
  --benchmark_filter=BM_Kernel --benchmark_min_time=0.05 \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true > /dev/null
python3 scripts/perf_gate.py "$BUILD_DIR/bench_kernels.json"

echo "== certify: chain conformance =="
# Random instances per registered chain model: exact-vs-sampled law
# agreement, scalar-vs-batched byte identity, coupling faithfulness,
# structural invariants (docs/CERTIFICATION.md).  Time-boxed — hitting
# the budget is a pass, a property failure is not, and every failure
# prints one CERTIFY FAIL line with a replay command.
"$BUILD_DIR"/bench/certify_runner --suite=chains --instances=8 \
  --time-budget=60s

echo "== tracing: record, validate, analyze =="
# Outside JSON_DIR: the *.json glob below expects recover.run/1 records.
TRACE_FILE="$BUILD_DIR/sweep_exp01.trace.json"
"$BUILD_DIR"/bench/sweep_runner --exp exp01 --grid "$SWEEP_GRID" \
  --threads 2 --trace="$TRACE_FILE" > /dev/null
python3 scripts/check_bench_json.py --trace "$TRACE_FILE"
python3 scripts/trace_stats.py "$TRACE_FILE"

echo "== serve: boot, load, drain =="
# Boot the TCP service on an ephemeral port, drive it with the open-loop
# generator for ~2s, and require zero protocol errors plus a clean
# SIGTERM drain (exit 0).  The loadgen record joins the aggregate below.
SERVE_LOG="$BUILD_DIR/serve_ci.log"
"$BUILD_DIR"/bench/recover_serve --port 0 --workers 4 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^# serve: listening' "$SERVE_LOG" 2>/dev/null && break
  sleep 0.1
done
SERVE_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_LOG")
if [ -z "$SERVE_PORT" ]; then
  echo "ci.sh: recover_serve never reported a port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
"$BUILD_DIR"/bench/serve_loadgen --port "$SERVE_PORT" --qps 200 --conns 8 \
  --duration 2s --mix "ping=3,run_cell=1" --metrics \
  --json-out="$JSON_DIR/serve_loadgen.json"
# Structure-aware protocol fuzz against the live daemon: 10k mutated
# frames (truncation, splicing, depth bombs, surrogate abuse, oversized
# lines) must draw only taxonomy errors — no crash, no hang, no
# off-taxonomy reply — and the server must still drain cleanly after.
"$BUILD_DIR"/bench/certify_runner --suite=protocol --port="$SERVE_PORT" \
  --frames=10000
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "ci.sh: recover_serve did not drain cleanly on SIGTERM" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi
grep '^# serve: drained' "$SERVE_LOG"
python3 scripts/check_bench_json.py --serve "$JSON_DIR/serve_loadgen.json"
# The committed baseline must satisfy the same gate.
python3 scripts/check_bench_json.py --serve BENCH_serve.json

echo "== ops: admin plane, scraping load, readiness drain =="
# Boot the daemon with the full telemetry plane (docs/OBSERVABILITY.md,
# "Live telemetry"): probe /metrics + /healthz + /readyz, drive scraping
# load, then assert /readyz flips to 503 inside the --drain-grace window
# after SIGTERM and that the access log holds well-formed lines.
OPS_LOG="$BUILD_DIR/serve_ops_ci.log"
ACCESS_LOG="$BUILD_DIR/serve_ops_access.jsonl"
rm -f "$ACCESS_LOG"
"$BUILD_DIR"/bench/recover_serve --port 0 --workers 4 --admin-port 0 \
  --access-log "$ACCESS_LOG" --drain-grace 2s > "$OPS_LOG" 2>&1 &
OPS_PID=$!
for _ in $(seq 1 100); do
  grep -q '^# serve: admin on' "$OPS_LOG" 2>/dev/null && break
  sleep 0.1
done
OPS_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$OPS_LOG")
ADMIN_PORT=$(sed -n 's/.*admin on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$OPS_LOG")
if [ -z "$OPS_PORT" ] || [ -z "$ADMIN_PORT" ]; then
  echo "ci.sh: recover_serve never reported its ports" >&2
  kill "$OPS_PID" 2>/dev/null || true
  exit 1
fi
probe() { # probe PATH EXPECTED_STATUS
  python3 - "$ADMIN_PORT" "$1" "$2" <<'EOF'
import sys, urllib.error, urllib.request
port, path, want = sys.argv[1], sys.argv[2], int(sys.argv[3])
try:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=5) as resp:
        got, body = resp.status, resp.read()
except urllib.error.HTTPError as e:
    got, body = e.code, e.read()
if got != want:
    sys.exit(f"probe {path}: got {got}, want {want}")
if want == 200 and not body:
    sys.exit(f"probe {path}: 200 with empty body")
EOF
}
probe /healthz 200
probe /readyz 200
probe /metrics 200
python3 scripts/serve_top.py --addr "127.0.0.1:$ADMIN_PORT" --once \
  | grep 'READY' > /dev/null || {
  echo "ci.sh: serve_top did not report READY" >&2
  exit 1
}
OPS_JSON="$BUILD_DIR/serve_loadgen_ops.json"
"$BUILD_DIR"/bench/serve_loadgen --port "$OPS_PORT" --qps 200 --conns 8 \
  --duration 2s --mix "ping=3,run_cell=1" --metrics \
  --admin-port "$ADMIN_PORT" --scrape-interval 200ms \
  --json-out="$OPS_JSON"
kill -TERM "$OPS_PID"
sleep 0.5  # in-flight work drains; the grace window is 2s
probe /readyz 503  # router ejection: drained but still answering
if ! wait "$OPS_PID"; then
  echo "ci.sh: recover_serve did not drain cleanly on SIGTERM" >&2
  cat "$OPS_LOG" >&2
  exit 1
fi
grep '^# serve: access log written=' "$OPS_LOG"
python3 - "$ACCESS_LOG" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1], encoding="utf-8") if l.strip()]
if not lines:
    sys.exit("access log is empty")
for i, line in enumerate(lines, 1):
    doc = json.loads(line)
    if doc.get("schema") != "recover.access/1":
        sys.exit(f"line {i}: schema {doc.get('schema')!r}")
    if not doc.get("req_id") or not doc.get("method"):
        sys.exit(f"line {i}: req_id/method missing")
print(f"ci.sh: access log OK ({len(lines)} lines)")
EOF
python3 scripts/check_bench_json.py --ops "$OPS_JSON"
# The committed baseline must satisfy the same gate.
python3 scripts/check_bench_json.py --ops BENCH_ops.json

echo "== cluster: determinism, failover under fire, committed baseline =="
# 1. The determinism gate: a fixed trace must produce byte-identical
#    replies direct, through 1 backend, through 3 backends, and through
#    3 backends with the cache on (tests/cluster_test.cpp).
"$BUILD_DIR"/tests/cluster_test \
  --gtest_filter='ClusterLoopback.ReplyBytesAreTopologyInvariant'
# 2. The failover drill: router over two backends (with /readyz
#    probing), Zipf load through the front door, SIGTERM one backend
#    mid-load.  The loadgen must finish with zero protocol errors
#    (re-hash is invisible on the wire), the router must record
#    failovers and mark the dead backend DOWN, and every surviving
#    process must drain cleanly.  The cache stays off so re-hashed
#    keys actually travel to the surviving backend.
CL_B1_LOG="$BUILD_DIR/cluster_b1.log"
CL_B2_LOG="$BUILD_DIR/cluster_b2.log"
CL_LOG="$BUILD_DIR/cluster_ci.log"
"$BUILD_DIR"/bench/recover_serve --port 0 --workers 2 --admin-port 0 \
  > "$CL_B1_LOG" 2>&1 &
CL_B1_PID=$!
"$BUILD_DIR"/bench/recover_serve --port 0 --workers 2 --admin-port 0 \
  > "$CL_B2_LOG" 2>&1 &
CL_B2_PID=$!
for _ in $(seq 1 100); do
  grep -q '^# serve: admin on' "$CL_B1_LOG" 2>/dev/null \
    && grep -q '^# serve: admin on' "$CL_B2_LOG" 2>/dev/null && break
  sleep 0.1
done
CL_B1_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$CL_B1_LOG")
CL_B2_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$CL_B2_LOG")
CL_B1_ADMIN=$(sed -n 's/.*admin on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$CL_B1_LOG")
CL_B2_ADMIN=$(sed -n 's/.*admin on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$CL_B2_LOG")
if [ -z "$CL_B1_PORT" ] || [ -z "$CL_B2_PORT" ] \
    || [ -z "$CL_B1_ADMIN" ] || [ -z "$CL_B2_ADMIN" ]; then
  echo "ci.sh: cluster backends never reported ports" >&2
  kill "$CL_B1_PID" "$CL_B2_PID" 2>/dev/null || true
  exit 1
fi
"$BUILD_DIR"/bench/recover_cluster --port 0 --workers 2 \
  --backends "127.0.0.1:$CL_B1_PORT:$CL_B1_ADMIN,127.0.0.1:$CL_B2_PORT:$CL_B2_ADMIN" \
  --cache-entries 0 --probe-interval 200ms --eject-cooldown 200ms \
  --admin-port 0 --drain-grace 2s > "$CL_LOG" 2>&1 &
CL_PID=$!
for _ in $(seq 1 100); do
  grep -q '^# cluster: admin on' "$CL_LOG" 2>/dev/null && break
  sleep 0.1
done
CL_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$CL_LOG")
CL_ADMIN=$(sed -n 's/.*admin on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$CL_LOG")
if [ -z "$CL_PORT" ] || [ -z "$CL_ADMIN" ]; then
  echo "ci.sh: recover_cluster never reported its ports" >&2
  kill "$CL_PID" "$CL_B1_PID" "$CL_B2_PID" 2>/dev/null || true
  exit 1
fi
CL_JSON="$JSON_DIR/serve_loadgen_cluster.json"
CL_LOADGEN_LOG="$BUILD_DIR/cluster_loadgen.log"
"$BUILD_DIR"/bench/serve_loadgen --port "$CL_PORT" --qps 300 --conns 4 \
  --duration 3s --mix "run_cell=1" --key-dist zipf:1.1 --key-space 64 \
  --cluster --admin-port "$CL_ADMIN" --scrape-interval 200ms --metrics \
  --json-out="$CL_JSON" > "$CL_LOADGEN_LOG" 2>&1 &
CL_LOADGEN_PID=$!
sleep 1
kill -TERM "$CL_B2_PID"  # one backend dies mid-load
if ! wait "$CL_LOADGEN_PID"; then
  echo "ci.sh: cluster loadgen failed during the failover drill" >&2
  cat "$CL_LOADGEN_LOG" >&2
  exit 1
fi
cat "$CL_LOADGEN_LOG"
if ! wait "$CL_B2_PID"; then
  echo "ci.sh: killed backend did not drain cleanly on SIGTERM" >&2
  cat "$CL_B2_LOG" >&2
  exit 1
fi
grep -q ' failovers=[1-9]' "$CL_LOADGEN_LOG" || {
  echo "ci.sh: router recorded no failovers after the backend died" >&2
  exit 1
}
python3 scripts/serve_top.py --addr "127.0.0.1:$CL_ADMIN" --once \
  | grep -q 'DOWN' || {
  echo "ci.sh: serve_top does not show the dead backend as DOWN" >&2
  exit 1
}
kill -TERM "$CL_PID"
if ! wait "$CL_PID"; then
  echo "ci.sh: recover_cluster did not drain cleanly on SIGTERM" >&2
  cat "$CL_LOG" >&2
  exit 1
fi
grep '^# cluster: drained' "$CL_LOG"
kill -TERM "$CL_B1_PID"
wait "$CL_B1_PID" || {
  echo "ci.sh: surviving backend did not drain cleanly" >&2
  exit 1
}
# Zero protocol errors across the drill, byte-exact wire contract.
python3 scripts/check_bench_json.py --serve "$CL_JSON"
# 3. The committed scaling baseline must satisfy the acceptance gate
#    (>= 1.8x multi-backend ok_rps, cache hit ratio >= 0.5).  Re-run
#    scripts/bench_cluster.py to regenerate it after router changes.
python3 scripts/check_bench_json.py --cluster BENCH_cluster.json

echo "== validating JSON records =="
python3 scripts/check_bench_json.py "$JSON_DIR"/*.json \
  --aggregate BENCH_smoke.json

echo "== example smoke runs =="
for exe in "$BUILD_DIR"/examples/*; do
  [ -x "$exe" ] && [ -f "$exe" ] || continue
  echo "-- $exe"
  "$exe" > /dev/null
done

if [ "${TSAN:-0}" = "1" ]; then
  echo "== ThreadSanitizer (parallel, obs, serve, ops, cluster, certify, rbb) =="
  cmake -B build-tsan -G Ninja -DRECOVERLIB_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan --target parallel_test obs_test serve_test \
    ops_test cluster_test certify_test rbb_test
  ./build-tsan/tests/parallel_test
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/serve_test
  ./build-tsan/tests/ops_test
  ./build-tsan/tests/cluster_test
  ./build-tsan/tests/certify_test
  ./build-tsan/tests/rbb_test
fi

echo "CI OK"

#!/usr/bin/env python3
"""perfbench: builds recoverlib (Release) and measures one workload.

    python3 perfbench/run.py --workload orient_contraction --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (README.md).
"""
import argparse
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
BIN = BUILD / "recoverlib" / "bench"
HARNESS = BUILD / "perfbench_harness"
TARGETS = ["exp05_orientation_contraction", "sweep_runner", "recover_serve",
           "recover_cluster", "perfbench_harness"]
WORKLOADS = ["orient_contraction", "balls_coalescence", "balls_stationary",
             "serve_cluster_zipf"]
MIN_UNITS = 5


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    """Configures the benchmark's build tree once, then lets CMake bring
    the benchmark's targets up to date (a no-op when nothing changed)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no recoverlib sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


# -------------------------------------------------------------- processes

def run_program(argv, tmp=None):
    """Runs one program to completion and returns its stdout.  With `tmp`
    the harness spawns it and the result is (stdout, wall seconds, peak
    RSS in MB) of the program alone."""
    report = None
    if tmp is not None:
        report = tmp / "exec.json"
        argv = [HARNESS, "exec", report, *argv]
    with tempfile.TemporaryFile() as err:
        proc = subprocess.run([str(a) for a in argv], stdout=subprocess.PIPE,
                              stderr=err)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
            raise BenchError(f"{argv[0]} exited with {proc.returncode}")
    if report is None:
        return proc.stdout.decode()
    r = json.loads(report.read_text())
    return proc.stdout.decode(), r["wall_s"], r["maxrss_kb"] / 1024.0


def timed_units(seconds, unit):
    """Calls unit() until `seconds` have passed (at least MIN_UNITS
    times); returns the list of results."""
    results, begin = [], time.perf_counter()
    while len(results) < MIN_UNITS or time.perf_counter() - begin < seconds:
        results.append(unit())
    return results


def parse_csv_table(text):
    """sweep_runner --csv rows as dicts of numbers."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [{k: float(v) if "." in v or "e" in v else int(v)
             for k, v in zip(header, l.split(","))} for l in lines[1:]]


def derive(seed, *salt):
    """Input seed for one program argument, a pure function of --seed."""
    return random.Random(f"{seed}:{':'.join(map(str, salt))}").randrange(1, 2**31)


def counters(record_path):
    """Counters and histograms of a recover.run/1 record written with
    --metrics."""
    metrics = json.loads(Path(record_path).read_text()).get("metrics", {})
    return metrics.get("counters", {}), metrics.get("histograms", {})


def merge_metrics(records):
    c_all, h_all = {}, {}
    for path in records:
        wall = json.loads(Path(path).read_text())["run"]["wall_seconds"]
        c_all["wall_ns"] = c_all.get("wall_ns", 0) + wall * 1e9
        c, h = counters(path)
        for k, v in c.items():
            c_all[k] = c_all.get(k, 0) + v
        for k, v in h.items():
            cnt, tot = h_all.get(k, (0, 0))
            h_all[k] = (cnt + v["count"], tot + v["sum"])
    return c_all, h_all


def hist_mean(hists, name):
    count, total = hists.get(name, (0, 0))
    return total / count if count else 0.0


# --------------------------------------------------------------- results

class Measured:
    """What one pass over a workload measured and checked."""

    def __init__(self):
        self.walls = []        # seconds per unit of fixed work
        self.rates = []        # operations per second per unit
        self.latencies_us = []  # per-operation latency samples
        self.rss_mb = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.layers = {}
        self.setup_s = None

    def end_to_end(self):
        return {
            "wall_s": (statistics.median(self.walls), "s"),
            "ops_per_s": (statistics.median(self.rates), "1/s"),
            "latency_p50_us": (statistics.median(self.latencies_us), "us"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (statistics.median(self.rss_mb), "MB"),
        }


LAYER_UNITS = {
    "orient.coupled_step_ns": "ns", "orient.distance_ns": "ns",
    "orient.distance_share": "share", "orient.distance_calls": "count",
    "kernel.steps_batched": "count", "kernel.steps_scalar": "count",
    "kernel.block_ns_per_step": "ns", "kernel.scalar_ns_per_step": "ns",
    "rng.draws_per_step": "count",
    "coalescence.replica_ms": "ms", "coalescence.steps": "count",
    "sweep.cell_ms": "ms", "sweep.cells_run": "count",
    "pool.busy_share": "share", "pool.chunks": "count",
    "serve.parse_ns": "ns", "serve.dispatch_us": "us",
    "serve.request_us": "us", "serve.wire_us": "us",
    "cluster.hit_ratio": "share", "cluster.cache_get_ns": "ns",
    "cluster.backend_rtt_us": "us", "cluster.evictions": "count",
    "trace.overhead_s": "s",
}


def program_layers(records, units, threads):
    """Per-layer numbers read from the program's own --metrics records:
    counts per unit of work, times per step, cell or replica."""
    c, h = merge_metrics(records)
    batched = c.get("kernel.steps.batched", 0)
    steps = batched + c.get("kernel.steps.scalar", 0)
    _, block_ns = h.get("kernel.step_block_ns", (0, 0))
    return {
        "kernel.steps_batched": batched / units,
        "kernel.steps_scalar": c.get("kernel.steps.scalar", 0) / units,
        "kernel.block_ns_per_step": block_ns / batched if batched else 0.0,
        "rng.draws_per_step": (c.get("rng.xoshiro.draws", 0) / steps
                               if steps else 0.0),
        "coalescence.replica_ms": hist_mean(h, "coalescence.replica_ns") / 1e6,
        "coalescence.steps": c.get("coalescence.steps", 0) / units,
        "sweep.cell_ms": hist_mean(h, "sweep.cell_ns") / 1e6,
        "sweep.cells_run": c.get("sweep.cells_run", 0) / units,
        "pool.busy_share": (c.get("pool.busy_ns", 0) / (threads * c["wall_ns"])
                            if threads else 0.0),
        "pool.chunks": c.get("pool.chunks", 0) / units,
    }


# ------------------------------------------------------------- workloads

EXP05 = {"n": 10, "trials": 400, "max_pairs": 6}


def parse_exp05(text):
    rows = []
    for line in text.splitlines():
        f = line.split()
        if len(f) == 7 and f[0].isdigit():
            rows.append({"n": int(f[0]), "set": f[1], "k": int(f[2]),
                         "pairs": int(f[3]), "slack": float(f[4]),
                         "sigma4": float(f[5]), "merge": float(f[6])})
    return rows


def orient_contraction(args, tmp, traced):
    """exp05's coupled orientation steps on Γ-pairs at n = 10."""
    seed = derive(args.seed, "exp05")
    m = Measured()
    argv = [BIN / "exp05_orientation_contraction", f"--sizes={EXP05['n']}",
            f"--trials={EXP05['trials']}", f"--max_pairs={EXP05['max_pairs']}",
            f"--seed={seed}"]
    records = []

    def unit():
        extra = []
        if traced:
            records.append(tmp / f"exp05-{len(records)}.json")
            extra = ["--metrics", f"--json-out={records[-1]}"]
        return run_program(argv + extra, tmp)

    setup = unit()
    m.setup_s = setup[1]
    units = timed_units(args.seconds, unit)
    rows = parse_exp05(setup[0])
    steps = sum(r["pairs"] for r in rows) * EXP05["trials"]
    for out, wall, rss in units:
        m.walls.append(wall)
        m.rates.append(steps / wall)
        m.latencies_us.append(wall * 1e6)
        m.rss_mb.append(rss)
        if out != setup[0]:
            m.failures.append("exp05 output differs between identical runs")
    m.attempted = len(units)
    m.failures += checks.check_exp05_rows(rows)
    out_path = tmp / "orient.json"
    run_program([HARNESS, "orient", f"n={EXP05['n']}",
                 f"trials={EXP05['trials']}",
                 f"max_pairs={EXP05['max_pairs']}", f"seed={seed}",
                 "samples=150", f"out={out_path}"])
    o = json.loads(out_path.read_text())
    m.failures += checks.check_exp05_replay(rows, o)
    m.failures += checks.check_orient_samples(o["samples"])
    if traced:
        m.layers = program_layers(records[1:], len(units), 0)
        m.layers.update({
            "orient.coupled_step_ns": o["coupled_step_ns"],
            "orient.distance_ns": o["distance_ns"],
            "orient.distance_share": o["distance_ns"] / o["coupled_step_ns"],
            # One orientation_distance call per coupled step, as
            # coupled_step_orientation_traced is written (README.md).
            "orient.distance_calls": steps,
        })
    return m


COALESCENCE = [("exp01", "m=2048,4096;d=1,2;density=1;replicas=32"),
               ("exp22", "n=128,256;d=1,2;density=2;replicas=16")]
STATIONARY = ("exp10", "d=1..3;n=8192;samples=300")


def sweep_argv(exp, grid, seed, threads, record=None):
    argv = [BIN / "sweep_runner", "--exp", exp, "--grid", grid,
            "--seed", str(seed), "--threads", str(threads), "--csv"]
    if record is not None:
        argv += ["--metrics", f"--json-out={record}"]
    return argv


def batch_sweeps(args, tmp, traced, sweeps, threads, steps_of):
    """Shared runner of the balls_* workloads: one unit runs every sweep
    in `sweeps` once.  Returns the Measured, the warm-up unit's tables,
    the timed units' --metrics records and the number of timed units."""
    m = Measured()
    records = []

    def unit():
        outs, wall, rss = [], 0.0, 0.0
        for exp, grid in sweeps:
            record = None
            if traced:
                record = tmp / f"{exp}-{len(records)}.json"
                records.append(record)
            out, w, r = run_program(sweep_argv(
                exp, grid, derive(args.seed, exp), threads, record), tmp)
            outs.append(out)
            wall += w
            rss = max(rss, r)
        return outs, wall, rss

    setup = unit()
    m.setup_s = setup[1]
    units = timed_units(args.seconds, unit)
    tables = [parse_csv_table(out) for out in setup[0]]
    steps = sum(steps_of(exp, rows) for (exp, _), rows in zip(sweeps, tables))
    for outs, wall, rss in units:
        if outs != setup[0]:
            m.failures.append("sweep output differs between identical runs")
        m.walls.append(wall)
        m.rates.append(steps / wall)
        m.latencies_us.append(wall * 1e6)
        m.rss_mb.append(rss)
    m.attempted = len(units)
    return m, tables, records[len(sweeps):], len(units)


def kernel_probe(tmp, exp, grid, seed, steps):
    out = tmp / f"kernel-{exp}.json"
    run_program([HARNESS, "kernel", f"exp={exp}", f"grid={grid}",
                 f"seed={seed}", f"steps={steps}", f"out={out}"])
    return json.loads(out.read_text())


def balls_coalescence(args, tmp, traced):
    """exp01 (scenario A) and exp22 (RBB) coalescence cells, 2 threads."""

    def steps_of(exp, rows):
        return sum(round(r["T_mean"] * r["replicas"]) for r in rows)

    m, tables, records, units = batch_sweeps(args, tmp, traced, COALESCENCE,
                                             2, steps_of)
    for (exp, grid), rows in zip(COALESCENCE, tables):
        out = tmp / f"replay-{exp}.json"
        run_program([HARNESS, "coalescence", f"exp={exp}", f"grid={grid}",
                     f"seed={derive(args.seed, exp)}", "threads=2",
                     f"out={out}"])
        cells = json.loads(out.read_text())["cells"]
        m.failures += checks.check_coalescence(exp, rows, cells)
    if traced:
        m.layers = program_layers(records, units, 2)
        # Weighted like the workload: an RBB round costs ~n scenario-A steps.
        weights = [steps_of(exp, rows) for (exp, _), rows in zip(COALESCENCE, tables)]
        probes = [kernel_probe(tmp, exp, grid, derive(args.seed, exp), steps)
                  for (exp, grid), steps in zip(COALESCENCE, (32768, 1024))]
        m.layers["kernel.scalar_ns_per_step"] = sum(
            w * p["scalar_ns_per_step"] for w, p in zip(weights, probes)) / sum(weights)
    return m


def balls_stationary(args, tmp, traced):
    """exp10 stationary max-load cells, single-threaded."""
    exp, grid = STATIONARY

    def steps_of(_, rows):
        return sum(2 * (40 * r["n"] + r["samples"] * max(1, r["n"] // 4))
                   for r in rows)

    m, tables, records, units = batch_sweeps(args, tmp, traced,
                                             [STATIONARY], 1, steps_of)
    rows = tables[0]
    fluid = {(sc, r["d"], r["n"]): checks.predicted_max_load(
                 checks.fluid_fixed_point(sc, r["d"]), r["n"])
             for r in rows if r["d"] >= 2 for sc in "AB"}
    m.failures += checks.check_stationary(rows, fluid)
    if traced:
        m.layers = program_layers(records, units, 1)
        probe = kernel_probe(tmp, exp, grid, derive(args.seed, exp), 200000)
        m.layers["kernel.scalar_ns_per_step"] = probe["scalar_ns_per_step"]
    return m


# The serve workload's request mix (README.md, "Serve workload", gives
# the source of each number).
SERVE = {"conns": 2, "key_space": 65536, "zipf": 1.1, "cache_entries": 4096,
         "warmup": 3000, "block": 10000, "pings": 2000,
         "cell": '{"m":16,"d":2,"density":1,"replicas":2}'}


class Daemon:
    """A daemon started with --port 0; reads the port it printed."""

    def __init__(self, argv, banner):
        # Unbuffered, so select() sees every line readline() has not read.
        self.proc = subprocess.Popen([str(a) for a in argv], bufsize=0,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.port = self.admin = None
        self.rss_mb = 0.0
        self.tail = ""
        try:
            self._await_ports(argv, banner)
        except BaseException:
            self.kill()
            raise

    def _await_ports(self, argv, banner):
        deadline = time.monotonic() + 60
        pattern = re.compile(banner + r": (listening|admin) on [\d.]+:(\d+)")
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            if not line:
                raise BenchError(f"{argv[0]} exited during start-up")
            match = pattern.search(line)
            if match and match.group(1) == "listening":
                self.port = int(match.group(2))
            elif match:
                self.admin = int(match.group(2))
            if self.port and (self.admin or "--admin-port" not in argv):
                return
        raise BenchError(f"{argv[0]} did not start")

    def stop(self):
        """Reads the peak RSS, then SIGTERM; keeps the drained stdout."""
        if self.proc.returncode is not None:
            return
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        self.rss_mb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024
        self.proc.send_signal(signal.SIGTERM)
        self.tail = self.proc.stdout.read().decode()
        if self.proc.wait(timeout=60) != 0:
            raise BenchError(f"a daemon exited with {self.proc.returncode}")

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def call(port, line):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(line.encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return data.decode()


def scrape(port):
    """Prometheus samples of an admin plane, name{labels} -> value."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=10) as r:
        text = r.read().decode()
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def serve_cluster_zipf(args, tmp, traced):
    """Closed-loop run_cells with Zipf keys through recover_cluster over
    two single-worker recover_serve backends."""
    m = Measured()
    daemons = []
    ping = '{"schema":"recover.req/1","id":0,"method":"ping"}'
    try:
        # setup_s: from spawning the first daemon until the router answers.
        # Each backend answers a ping before the router starts; without
        # admin ports the router starts every backend healthy, so both are
        # routable from its first reply on.
        spawned = time.perf_counter()
        for i in range(2):
            argv = [BIN / "recover_serve", "--port", "0", "--workers", "1",
                    "--serial-cells"]
            if traced:
                argv += ["--admin-port", "0", "--metrics",
                         f"--json-out={tmp / f'backend{i}.json'}"]
            daemons.append(Daemon(argv, "# serve"))
            if '"ok":true' not in call(daemons[-1].port, ping):
                raise BenchError("a backend does not answer ping")
        backends = ",".join(f"127.0.0.1:{d.port}" for d in daemons)
        argv = [BIN / "recover_cluster", "--port", "0", "--workers", "2",
                "--backends", backends,
                "--cache-entries", str(SERVE["cache_entries"])]
        if traced:
            argv += ["--admin-port", "0"]
        router = Daemon(argv, "# cluster")
        daemons.append(router)
        if '"ok":true' not in call(router.port, ping):
            raise BenchError("the router does not answer ping")
        setup_s = time.perf_counter() - spawned

        client_out = tmp / "client.json"
        run_program([HARNESS, "client", f"port={router.port}",
                     f"conns={SERVE['conns']}", f"seconds={args.seconds}",
                     f"warmup={SERVE['warmup']}",
                     f"seed={derive(args.seed, 'serve')}",
                     f"key_space={SERVE['key_space']}", f"zipf={SERVE['zipf']}",
                     f"cell={SERVE['cell']}",
                     f"cache_entries={SERVE['cache_entries']}",
                     f"probes={int(traced)}", f"pings={SERVE['pings']}",
                     f"out={client_out}"])
        client = json.loads(client_out.read_text())
        scraped = {}
        if traced:
            scraped = {d: scrape(d.admin) for d in daemons}
        for d in daemons:
            d.stop()
    finally:
        for d in daemons:
            d.kill()

    drained = re.search(r"drained .*hits=(\d+) misses=(\d+)", router.tail)
    # Minus the one set-up ping each backend answered directly.
    backend_requests = [
        int(re.search(r"drained requests=(\d+)", d.tail).group(1)) - 1
        for d in daemons[:2]]
    router_counts = {"hits": int(drained.group(1)),
                     "misses": int(drained.group(2))}
    m.failures += checks.check_serve(client, router_counts, backend_requests)
    m.attempted = client["attempted"]
    m.failed = client["attempted"] - client["ok"]

    done = sorted(zip(client["done_s"], client["sample_ok"]))
    block = SERVE["block"]
    edges = [0.0] + [done[i][0] for i in range(block - 1, len(done), block)]
    for a, b, start in zip(edges, edges[1:], range(0, len(done), block)):
        ok = sum(flag for _, flag in done[start:start + block])
        m.walls.append(b - a)
        m.rates.append(ok / (b - a))
    if len(m.walls) < 3:
        raise BenchError("too few request blocks to measure")
    m.latencies_us = client["latency_us"]
    print(f"perfbench: latency p99 "
          f"{statistics.quantiles(m.latencies_us, n=100)[98]:.1f} us over "
          f"{len(m.latencies_us)} requests", file=sys.stderr)
    m.rss_mb = [sum(d.rss_mb for d in daemons)]
    m.setup_s = setup_s
    if traced:
        records = [tmp / "backend0.json", tmp / "backend1.json"]
        m.layers = program_layers(records, 1, 0)
        backend_p50 = [s['serve_window_request_us{quantile="0.5"}']
                       for d, s in scraped.items() if d is not router]
        rtt = [v for k, v in scraped[router].items()
               if k.startswith("cluster_backend_rtt_ms")]
        hits, misses = router_counts["hits"], router_counts["misses"]
        m.layers.update({
            "serve.parse_ns": client["parse_ns"],
            "serve.dispatch_us": client["dispatch_us"],
            "serve.request_us": statistics.fmean(backend_p50),
            "serve.wire_us": client["ping_p50_us"] - client["ping_dispatch_us"],
            "cluster.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cluster.cache_get_ns": client["cache_get_ns"],
            "cluster.backend_rtt_us": 1e3 * statistics.fmean(rtt) if rtt else 0.0,
            "cluster.evictions": scraped[router].get(
                "cluster_cache_evictions_total", 0),
        })
        print(f"perfbench: router misses {misses}, distinct keys "
              f"{client['distinct_keys']}, evictions "
              f"{m.layers['cluster.evictions']:.0f}", file=sys.stderr)
    return m


RUNNERS = {"orient_contraction": orient_contraction,
           "balls_coalescence": balls_coalescence,
           "balls_stationary": balls_stationary,
           "serve_cluster_zipf": serve_cluster_zipf}


# ------------------------------------------------------------------- main

def measure(args, traced, tmp):
    tmp.mkdir(parents=True, exist_ok=True)
    return RUNNERS[args.workload](args, tmp, traced)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    tmp = ROOT / ".bench_build" / "tmp" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace == 0:
            m = measure(args, False, tmp)
            metrics = m.end_to_end()
        else:
            # Half the time untraced, half traced: the difference of their
            # wall_s is the tracing overhead.
            args.seconds /= 2
            plain = measure(args, False, tmp / "plain")
            m = measure(args, True, tmp / "traced")
            m.failures = plain.failures + m.failures
            m.attempted += plain.attempted
            m.failed += plain.failed
            layers = {k: 0 for k in LAYER_UNITS}
            layers.update(m.layers)
            layers["trace.overhead_s"] = (statistics.median(m.walls)
                                          - statistics.median(plain.walls))
            metrics = {k: (layers[k], u) for k, u in LAYER_UNITS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for failure in m.failures:
        print("CHECK FAILED:", failure, file=sys.stderr)
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    # A SIGTERM unwinds like an error, so the daemons still get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

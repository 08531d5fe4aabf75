#!/usr/bin/env python3
"""End-to-end benchmark: spec-to-result wall time, attributed to layers.

Run from the repository root:

  python3 perfbench/run.py --workload regular-default --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --workload all --trace 1    # every workload, traced
  python3 perfbench/run.py --self-test                 # the arithmetic's tests

The first run in a checkout builds the library, the sweep-service tools and
perfbench_driver into .bench_build/. Each run repeats its workload in fresh
processes for --seconds, checks every output, prints a report, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of untraced iterations; --trace 1 alternates
untraced and traced iterations and reports the per-layer metrics. See
perfbench/README.md for the workloads and the layer map.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
DRIVER = BUILD / "perfbench_driver"
SWEEPD = BUILD / "plurality" / "plurality_sweepd"
WORKER = BUILD / "plurality" / "plurality_sweep_worker"
GRID = HERE / "grids" / "consensus_vs_k.json"

SWEEP_TRIALS = 512
SWEEP_CELLS = 24
RUN_LIMIT_S = 170.0     # a run must end within 180 s of its start (after the build)
GRAPH_PROBES = 3        # graph-probe launches per traced run (median taken)

# Output checks of the scenario workloads: (driver report, result JSON) -> errors.

def check_regular(res, doc):
    if res["consensus_count"] == res["trials"] == res["plurality_wins"]:
        return []
    return [f"{res['plurality_wins']} of {res['trials']} trials reached consensus on the "
            f"initial plurality"]


def check_gossip(res, doc):
    errors = []
    if doc["spec"]["topology_backend"] != "implicit":
        errors.append(f"topology_backend echoed as {doc['spec']['topology_backend']}")
    if res["round_limit_hits"] != res["trials"]:
        errors.append(f"{res['round_limit_hits']} of {res['trials']} trials hit the round cap")
    return errors


WORKLOADS = {
    "regular-default": {
        "kind": "scenario",
        # n = 2e5 rather than 1e6: ~0.8 s iterations give a run dozens of
        # samples; at 1e6 its five samples left run medians 0.29 apart.
        "spec": "dynamics=3-majority topology=regular:8 workload=bias:2c n=2e5 k=4 trials=8",
        "ops": 8,
        "check": check_regular,
        "why": "the paper's sparse topology on the default path; graph build dominates set-up",
    },
    "gossip-big": {
        "kind": "scenario",
        # n = 2^26: the smallest n where the bytes-only workspace turns on.
        "spec": ("dynamics=3-majority topology=gossip workload=share:0.6 n=67108864 k=2 "
                 "engine=batched trials=1 max_rounds=1"),
        "ops": 1,
        "check": check_gossip,
        "why": "one 2^26-node implicit gossip trial in bytes-only mode; init and rounds dominate",
    },
    "sweep-local": {
        "kind": "sweep",
        "ops": SWEEP_CELLS,
        "why": "24-cell k grid through the in-process orchestrator with checkpoints",
    },
    "sweep-service": {
        "kind": "service",
        "ops": SWEEP_CELLS,
        "why": "the same grid through plurality_sweepd and two local workers",
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_updates_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("scenario.parse_s", "s"), ("scenario.compile_s", "s"), ("scenario.compile_self_s", "s"),
    ("graph.build_s", "s"), ("graph.build_rss_mb", "MiB"), ("graph.arena_mb", "MiB"),
    ("trial.init_s", "s"), ("trial.round_s_p50", "s"), ("trial.round_s_p99", "s"),
    ("trial.round_s_max", "s"), ("trial.round_samples", "count"), ("trial.rounds", "count"),
    ("sweep.cell_attempt_s", "s"), ("sweep.cell_self_s", "s"),
    ("sweep.useful_attempt_ratio", "ratio"),
    ("io.checkpoint_write_s", "s"), ("io.checkpoint_bytes", "B"), ("io.scan_s", "s"),
    ("service.startup_s", "s"), ("service.handoff_s_p50", "s"), ("service.worker_idle_s", "s"),
    ("service.drain_s", "s"), ("service.lease_roundtrip_s_p50", "s"),
    ("service.useful_lease_ratio", "ratio"),
    ("proc.cpu_s", "s"), ("proc.invol_ctx_switches", "count"),
] + [(f"{layer}.wall_self_s", "s") for layer in benchstats.LAYER_PRIORITY] + [
    ("trace.unattributed_s", "s"), ("trace.unattributed_share", "ratio"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]

# Program spans take their layer from their name; the driver's own spans
# carry their layer as the Chrome-trace category.
SPAN_LAYER = {"trial": "core", "cell_attempt": "sweep", "checkpoint_write": "io",
              "scan_cell_file": "io", "lease_roundtrip": "service"}


class CheckFailed(Exception):
    pass


def now():
    return time.monotonic()  # CLOCK_MONOTONIC, the clock of the program's spans


class Proc:
    """A child process in its own process group, with per-line stderr arrival times
    and the child's own rusage (os.wait4), so peak RSS and CPU time are
    per process."""

    def __init__(self, argv):
        self.argv = [str(a) for a in argv]
        self.launch = now()
        self.p = subprocess.Popen(self.argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, start_new_session=True, cwd=ROOT)
        self.pid = self.p.pid
        self.stdout = ""
        self.lines = []
        self.status = None
        self.rusage = None
        self.exit_t = None
        self._out = threading.Thread(target=self._read_out, daemon=True)
        self._err = threading.Thread(target=self._read_err, daemon=True)
        self._out.start()
        self._err.start()

    def _read_out(self):
        self.stdout = self.p.stdout.read()

    def _read_err(self):
        for line in self.p.stderr:
            self.lines.append((now(), line.rstrip("\n")))
        self._out.join()
        _, status, self.rusage = os.wait4(self.pid, 0)
        self.exit_t = now()
        self.status = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.status

    def wait(self, deadline):
        self._err.join(max(0.0, deadline - now()))
        if self._err.is_alive():
            self.kill()
            self._err.join()
            raise CheckFailed(f"{Path(self.argv[0]).name} timed out")
        return self.status

    def kill(self):
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def result(self):
        """The last stdout line as JSON (the driver's report)."""
        lines = self.stdout.strip().splitlines()
        if self.status != 0 or not lines:
            tail = "; ".join(line for _, line in self.lines[-3:])
            raise CheckFailed(f"{Path(self.argv[0]).name} exited {self.status}: {tail}")
        return json.loads(lines[-1])

    def first_line_time(self, needle):
        return next((t for t, line in self.lines if needle in line), None)


def run_procs(procs, deadline):
    try:
        for proc in procs:
            proc.wait(deadline)
    finally:
        for proc in procs:
            if proc.status is None:
                proc.kill()
                proc.wait(now() + 10)


def proc_usage(procs):
    return {
        "peak_rss_mb": max(p.rusage.ru_maxrss for p in procs) / 1024.0,
        "cpu_s": sum(p.rusage.ru_utime + p.rusage.ru_stime for p in procs),
        "invol_cs": sum(p.rusage.ru_nivcsw for p in procs),
    }


# ------------------------------------------------------------------ build ---

def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver",
                  "plurality_sweepd", "plurality_sweep_worker"])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run([str(a) for a in step], stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=850).returncode
            if code != 0:
                if "-S" in step:  # a failed configure must not look configured next time
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-15:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                raise SystemExit(2)


def environment(load_at_start):
    env = json.loads(subprocess.run([str(DRIVER), "env"], capture_output=True, text=True,
                                    check=True).stdout.strip().splitlines()[-1])
    commit = "none (not a git checkout)"
    try:  # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "omp_team": env["omp_max_threads"],
        "omp_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("OMP_")},
        "batched_simd": env["batched_simd"],
        "build_type": env["build_type"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg_start": [round(x, 2) for x in load_at_start],
    }


# ------------------------------------------------------------------ spans ---

def load_trace(path):
    doc = json.loads(Path(path).read_text())
    spans = []
    for ev in doc["traceEvents"]:
        layer = SPAN_LAYER.get(ev["name"], ev["cat"])
        start = ev["ts"] * 1e-6
        spans.append(benchstats.Span((ev["pid"], ev["tid"]), ev["name"], layer, start,
                                     start + ev["dur"] * 1e-6))
    return spans


def named(spans, name):
    return [s for s in spans if s.name == name]


def attribution(spans, lo, hi):
    by_layer, unattributed = benchstats.attribute_wall(spans, lo, hi)
    wall = hi - lo
    total = sum(by_layer.values()) + unattributed
    if abs(total - wall) > 0.05 * wall:
        raise CheckFailed(f"layer attribution sums to {total:.3f}s of a {wall:.3f}s wall")
    out = {f"{layer}.wall_self_s": sec for layer, sec in by_layer.items()}
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_share"] = unattributed / wall
    out["trace.wall_s"] = wall
    return out


def sweep_layers(spans, verify, cells):
    attempts = named(spans, "cell_attempt")
    selves = benchstats.self_times(spans)
    return {
        "sweep.cell_attempt_s": sum(s.end - s.start for s in attempts),
        "sweep.cell_self_s": sum(t for s, t in zip(spans, selves) if s.name == "cell_attempt"),
        "sweep.useful_attempt_ratio": cells / len(attempts) if attempts else 0.0,
        "io.checkpoint_write_s": sum(s.end - s.start for s in named(spans, "checkpoint_write")),
        "io.checkpoint_bytes": verify["checkpoint_bytes"],
        "io.scan_s": verify["scan_s"] + sum(s.end - s.start
                                            for s in named(spans, "scan_cell_file")),
        "trial.rounds": verify["rounds_total"],
    }


# -------------------------------------------------------------- workloads ---

def scenario_iteration(w, seed, traced, deadline, probe):
    out_dir = WORK / "scenario"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    argv = [DRIVER, "scenario", "--spec", f"{w['spec']} seed={seed}", "--out", result_path]
    if traced:
        argv += ["--trace-out", out_dir / "trace.json"]
    proc = Proc(argv)
    run_procs([proc], deadline)
    res = proc.result()
    doc = json.loads(result_path.read_text())
    summary = doc["summary"]
    errors = [f"result file {key} {summary[key]} != {res[key]}"
              for key in ("trials", "consensus_count", "plurality_wins", "round_limit_hits")
              if summary[key] != res[key]]
    errors += w["check"](res, doc)
    it = {
        "ops": res["trials"],
        "errors": errors,
        "wall_s": res["result_us"] * 1e-6 - proc.launch,
        "setup_s": res["ready_us"] * 1e-6 - proc.launch,
        "node_updates": res["node_updates"],
        "rounds": res["rounds_total"],
        **proc_usage([proc]),
    }
    if traced:
        spans = load_trace(out_dir / "trace.json")
        compile_span = named(spans, "scenario.compile")[0]
        build_s = min(probe["build_s"], compile_span.end - compile_span.start)
        spans.append(benchstats.Span(compile_span.lane, "graph.build", "graph",
                                     compile_span.end - build_s, compile_span.end))
        rounds = res["timing"]["round_s"]
        if len(rounds) != res["rounds_total"]:
            errors.append(f"the timing observer saw {len(rounds)} rounds of "
                          f"{res['rounds_total']}")
        p99, resolved = benchstats.tail_percentile(rounds)
        compile_s = res["compile_s"]
        it["layers"] = {
            "scenario.parse_s": res["parse_s"] + res["validate_s"],
            "scenario.compile_s": compile_s,
            "scenario.compile_self_s": max(0.0, compile_s - probe["build_s"]),
            "graph.build_s": probe["build_s"],
            "graph.build_rss_mb": probe["build_rss_mib"],
            "graph.arena_mb": probe["arena_bytes"] / 2**20,
            "trial.init_s": sum(res["timing"]["init_s"]),
            "trial.round_s_p50": statistics.median(rounds) if rounds else 0.0,
            "trial.round_s_p99": p99,
            "trial.round_s_max": max(rounds, default=0.0),
            "trial.round_samples": len(rounds),
            "trial.rounds": len(rounds),
            **attribution(spans, proc.launch, res["result_us"] * 1e-6),
        }
        it["p99_resolved"] = resolved
    return it


def write_grid(seed):
    grid = json.loads(GRID.read_text())
    grid["base"]["seed"] = seed
    path = WORK / "grid.json"
    path.write_text(json.dumps(grid, indent=2) + "\n")
    return path


def read_aggregate(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    wall = rows[0].index("wall_seconds")
    return [row[:wall] + row[wall + 1:] for row in rows]


def verify_sweep(out_dir, deadline, reference):
    """Checks a finished sweep's out-dir; returns (verify report, errors,
    aggregate rows without the wall column)."""
    proc = Proc([DRIVER, "verify", "--out-dir", out_dir])
    run_procs([proc], deadline)
    verify = proc.result()
    errors = list(verify["bad"])
    if verify["cells"] != SWEEP_CELLS:
        errors.append(f"{verify['cells']} cell files, expected {SWEEP_CELLS}")
    aggregate = read_aggregate(out_dir / "aggregate.csv")
    if len(aggregate) - 1 != SWEEP_CELLS:
        errors.append(f"{len(aggregate) - 1} aggregate rows, expected {SWEEP_CELLS}")
    if reference and aggregate != reference[0]:
        errors.append("aggregate differs from the in-process orchestrator's (wall column "
                      "ignored)")
    return verify, errors, aggregate


def local_sweep_iteration(grid, traced, deadline, reference):
    out_dir = WORK / "local"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [DRIVER, "sweep", "--sweep", grid, "--trials", SWEEP_TRIALS, "--out-dir", out_dir]
    if traced:
        argv += ["--trace-out", WORK / "local_trace.json"]
    proc = Proc(argv)
    run_procs([proc], deadline)
    res = proc.result()
    verify, errors, aggregate = verify_sweep(out_dir, deadline, reference)
    if not reference:
        reference.append(aggregate)
    it = {
        "ops": SWEEP_CELLS,
        "errors": errors,
        "wall_s": proc.exit_t - proc.launch,
        "setup_s": res["ready_us"] * 1e-6 - proc.launch,
        "node_updates": verify["node_updates"],
        "rounds": verify["rounds_total"],
        **proc_usage([proc]),
    }
    if traced:
        spans = load_trace(WORK / "local_trace.json")
        it["layers"] = {**sweep_layers(spans, verify, SWEEP_CELLS),
                        **attribution(spans, proc.launch, proc.exit_t)}
    return it


def service_iteration(grid, traced, deadline, reference):
    out_dir = WORK / "service"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    port_file = out_dir / "port"
    trace = (lambda name: ["--trace-out", WORK / f"service_{name}.json"]) if traced else (
        lambda name: [])
    master = Proc([SWEEPD, "--sweep", grid, "--trials", SWEEP_TRIALS, "--out", out_dir,
                   "--port-file", port_file] + trace("master"))
    # Start the workers once the master listens, as a launch script would:
    # a worker that finds no port file sleeps 20 ms before it looks again.
    while not port_file.exists() and master.status is None and now() < deadline:
        time.sleep(0.001)
    workers = [Proc([WORKER, "--port-file", port_file, "--name", f"w{i}"] + trace(f"w{i}"))
               for i in (1, 2)]
    procs = [master] + workers
    run_procs(procs, deadline)
    errors = [f"{Path(p.argv[0]).name} exited {p.status}" for p in procs if p.status != 0]
    first_lease = master.first_line_time(" leased to ")
    leases = sum(1 for _, line in master.lines if " leased to " in line)
    if first_lease is None:
        raise CheckFailed("the master never leased a cell: " +
                          "; ".join(line for _, line in master.lines[-3:]))
    verify, more, aggregate = verify_sweep(out_dir, deadline, reference)
    errors += more
    end = max(p.exit_t for p in procs)
    it = {
        "ops": SWEEP_CELLS,
        "errors": errors,
        "wall_s": end - master.launch,
        "setup_s": first_lease - master.launch,
        "node_updates": verify["node_updates"],
        "rounds": verify["rounds_total"],
        "aggregate": aggregate,
        **proc_usage(procs),
    }
    if traced:
        spans = []
        for name in ("master", "w1", "w2"):
            spans += load_trace(WORK / f"service_{name}.json")
        attempts = named(spans, "cell_attempt")
        last_commit = max(s.end for s in attempts)
        gaps, idle = [], []
        for w in workers:
            mine = sorted((s for s in attempts if s.lane[0] == w.pid), key=lambda s: s.start)
            gaps += [b.start - a.end for a, b in zip(mine, mine[1:])]
            idle.append(w.exit_t - w.launch - sum(s.end - s.start for s in mine))
            spans.append(benchstats.Span((w.pid, "life"), "worker", "service", w.launch,
                                         w.exit_t))
        spans.append(benchstats.Span((master.pid, "life"), "startup", "service",
                                     master.launch, first_lease))
        spans.append(benchstats.Span((master.pid, "life"), "drain", "service", last_commit,
                                     master.exit_t))
        roundtrips = [s.end - s.start for s in named(spans, "lease_roundtrip")]
        it["layers"] = {
            **sweep_layers(spans, verify, SWEEP_CELLS),
            "service.startup_s": first_lease - master.launch,
            "service.handoff_s_p50": statistics.median(gaps) if gaps else 0.0,
            "service.worker_idle_s": statistics.mean(idle),
            "service.drain_s": master.exit_t - last_commit,
            "service.lease_roundtrip_s_p50": statistics.median(roundtrips),
            "service.useful_lease_ratio": SWEEP_CELLS / leases,
            **attribution(spans, master.launch, end),
        }
    return it


# ------------------------------------------------------------- measuring ---

def measure(name, seed, seconds, trace, deadline):
    w = WORKLOADS[name]
    kind = w["kind"]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    grid = write_grid(seed) if kind != "scenario" else None
    reference = []  # the first in-process aggregate of this seed
    probe = {}

    def iteration(traced):
        if kind == "scenario":
            if traced and not probe:
                samples = []
                for _ in range(GRAPH_PROBES):
                    proc = Proc([DRIVER, "graph-probe", "--spec", f"{w['spec']} seed={seed}"])
                    run_procs([proc], deadline)
                    samples.append(proc.result())
                probe.update({key: statistics.median(s[key] for s in samples)
                              for key in samples[0]})
            return scenario_iteration(w, seed, traced, deadline, probe)
        if kind == "sweep":
            return local_sweep_iteration(grid, traced, deadline, reference)
        return service_iteration(grid, traced, deadline, reference)

    untraced, traced, errors, attempted, failed = [], [], [], 0, 0
    start = now()
    pass_times = []
    while True:
        t0 = now()
        for is_traced in ([False, True] if trace else [False]):
            try:
                it = iteration(is_traced)
            except Exception as e:  # a crash, a timeout or unreadable output
                it = {"ops": w["ops"], "errors": [f"{type(e).__name__}: {e}"]}
            attempted += it["ops"]
            if it["errors"]:
                failed += it["ops"]
                errors += it["errors"]
                break
            (traced if is_traced else untraced).append(it)
        pass_times.append(now() - t0)
        if errors or now() + statistics.median(pass_times) > start + seconds:
            break

    if kind == "service" and not errors:
        # The service aggregate must equal the in-process orchestrator's.
        try:
            local = local_sweep_iteration(grid, False, deadline, reference)
            attempted += SWEEP_CELLS
            for it in untraced + traced:
                if it["aggregate"] != reference[0]:
                    errors.append("service aggregate differs from the in-process "
                                  "orchestrator's (wall column ignored)")
                    failed += it["ops"]
            errors += local["errors"]
        except Exception as e:
            errors.append(f"{type(e).__name__}: {e}")
            failed += SWEEP_CELLS

    rounds = {it["rounds"] for it in untraced + traced}
    if len(rounds) > 1:
        errors.append(f"iterations of one seed stepped different round totals {sorted(rounds)}")

    return untraced, traced, errors, attempted, failed


def summarize(untraced, traced):
    med = lambda key: statistics.median(it[key] for it in untraced)
    e2e = {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "node_updates_per_s": statistics.median(
            it["node_updates"] / (it["wall_s"] - it["setup_s"]) for it in untraced),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    layers = {}
    if traced:
        for key, _ in PER_LAYER:
            values = [it["layers"][key] for it in traced if key in it["layers"]]
            layers[key] = statistics.median(values) if values else 0.0
        layers["proc.cpu_s"] = med("cpu_s")
        layers["proc.invol_ctx_switches"] = med("invol_cs")
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
    return e2e, layers


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name, seed, seconds, trace, env, untraced, traced, errors, attempted,
           failed):
    print(f"== perfbench  workload={name}  seed={seed}  seconds={seconds}  trace={trace}")
    print(f"   why: {WORKLOADS[name]['why']}")
    print("   env: " + json.dumps(env, sort_keys=True))
    ratio = benchstats.failed_ratio(attempted, failed)
    unit = "trials" if WORKLOADS[name]["kind"] == "scenario" else "cells"
    if errors:
        print("   checks: FAIL")
        for e in errors[:10]:
            print(f"     - {e}")
    else:
        print("   checks: PASS")
    print(f"   failed_ratio = {ratio:.6g} fraction ({failed} of {attempted} {unit})")
    if not untraced or (trace and not traced):
        return {}
    e2e, layers = summarize(untraced, traced)
    print(f"   iterations: {len(untraced)} untraced" +
          (f", {len(traced)} traced" if trace else ""))
    if not trace:
        for key, unit_name in END_TO_END:
            q = [it[key] for it in untraced] if key not in ("setup_s", "node_updates_per_s") \
                else None
            spread = ""
            if q and len(q) >= 2:
                spread = f"   (min {min(q):.4g}, max {max(q):.4g})"
            print(f"   {key:<22} {fmt(e2e[key]):>14} {unit_name}{spread}")
        return {key: {"value": e2e[key], "unit": u} for key, u in END_TO_END}
    p99_note = ""
    if not all(it.get("p99_resolved", True) for it in traced):
        p99_note = ("   (fewer than 10 samples beyond p99: max of "
                    f"{int(layers['trial.round_samples'])} samples reported)")
    for key, unit_name in PER_LAYER:
        note = p99_note if key == "trial.round_s_p99" else ""
        print(f"   {key:<32} {fmt(layers[key]):>14} {unit_name}{note}")
    print(f"   tracing overhead (traced - untraced wall_s): {layers['trace.overhead_s']:.4g} s; "
          f"unattributed share {layers['trace.unattributed_share']:.2%}")
    return {key: {"value": layers[key], "unit": u} for key, u in PER_LAYER}


def self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_benchstats.py")
    return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark arithmetic's unit tests and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load = os.getloadavg()
    build()
    deadline = now() + RUN_LIMIT_S
    env = environment(load)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        if args.workload == "all":
            deadline = now() + RUN_LIMIT_S
        untraced, traced, errors, att, fail = measure(
            name, args.seed, args.seconds, args.trace, deadline)
        got = report(name, args.seed, args.seconds, args.trace, env, untraced, traced, errors,
                     att, fail)
        correct = correct and not errors and bool(got)
        attempted += att
        failed += fail
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

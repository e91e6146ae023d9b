#!/usr/bin/env python3
"""Benchmark of the cherednik engine: four workloads, each loading one layer.

    python3 perfbench/run.py --workload t1-generic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run it from anywhere; it uses the ``src/`` tree next to this directory and
never an installed copy.  Every pass of a workload runs in a fresh
single-threaded interpreter (``worker.py``), one at a time, so lru caches
and allocator state never carry over from one pass to the next.

``--trace 0`` repeats passes while the next one is expected to end within
``--seconds`` (at least one), adds set-up-only interpreters, and reports the
median of each end-to-end metric.  Times are reported at reference host
speed: seconds as measured times the host speed that ``worker.py`` samples
in the same process (the measured seconds are printed too).

``--trace 1`` runs one untraced and one traced pass of the same order and
reports the per-layer metrics, the tracing overhead, one row per computed
degree and a check that the layer shares look as expected; spans go to
``perfbench/out/``.  The seed only shuffles the order of cells or
families within a pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("t1-generic", "gram-oracle", "stability-sweep", "t0-grid")
SETUP_SAMPLES = 5  # set-up-only interpreters per run, on top of one per pass
RUN_DEADLINE_S = 165.0  # a run must end within 180 s


def planned_ops(workload: str) -> int:
    """Operations in one pass, the three canary operations included."""
    sizes = {
        "t1-generic": len(pins.T1_GENERIC),
        "gram-oracle": sum(len(v) for v in pins.GRAM_ORACLE.values()),
        "stability-sweep": len(pins.STABILITY),
        "t0-grid": len(pins.T0_GRID),
    }
    return 3 + sizes[workload]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def run_meta(workload: str, seed: int, trace: int) -> dict:
    u = platform.uname()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": f"{u.system} {u.release} {u.machine}",
        "cpus": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
    }


class Worker:
    """Starts worker interpreters for one run, all before one deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def __call__(self, *extra: str) -> dict | None:
        cmd = [
            sys.executable, "-I", str(WORKER),
            "--src", str(SRC), "--out", str(OUT),
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            print("no time left before the run deadline", file=sys.stderr)
            return None
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            print("a worker ran past the run deadline and was killed", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, res: dict) -> None:
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.failures += res["failures"]

    def lost(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        self.failures.append(why)


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict | None:
    """End-to-end metrics: medians over passes and over set-up interpreters."""
    worker = Worker(workload, seed, time.monotonic() + RUN_DEADLINE_S)
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        res = worker("--pass-index", str(len(passes)))
        if res is None:
            tally.lost(planned_ops(workload), f"pass {len(passes)} did not finish")
            break
        tally.add(res)
        passes.append(res)
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    if not passes:
        return None
    setups = list(passes)
    for _ in range(SETUP_SAMPLES):
        res = worker("--mode", "setup")
        if res is None:
            tally.lost(1, "a set-up interpreter did not finish")
        else:
            setups.append(res)
    print(f"{workload}: {len(passes)} pass(es), {len(setups)} set-ups, seed {seed}")
    print(f"  order of pass 0: {', '.join(passes[0]['order'])}")
    for name, runs, speed_key in (
        ("wall_s", passes, "speed"), ("cpu_s", passes, "speed"), ("setup_s", setups, "setup_speed")
    ):
        raw = statistics.median(r[name] for r in runs)
        speed = statistics.median(r[speed_key] for r in runs)
        print(f"  {name} as measured {raw!r} s at host speed {speed:.3f}")
    return {
        "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in setups),
    }


def layer_checks(workload: str, layers: dict, traced_wall: float) -> list:
    """(what, value, expected, ok) for the share each workload should show.

    A mismatch means a wrapper sits on the wrong name, not a failed operation.
    """
    if workload == "t1-generic":
        share = layers["linalg.echelon.s"] / traced_wall
        return [("echelon share of traced wall", share, ">= 0.5", share >= 0.5)]
    if workload == "gram-oracle":
        share = layers["dunkl.dunkl_z.oracle_s"] / layers["kernel.gram_oracle_kernel.s"]
        return [("dunkl_z share of gram_oracle_kernel", share, ">= 0.9", share >= 0.9)]
    if workload == "stability-sweep":
        share = layers["kernel.is_in_kernel.self_s"] / layers["stability.is_stably_in_kernel.s"]
        return [("is_in_kernel self share of is_stably_in_kernel", share, ">= 0.8", share >= 0.8)]
    cells = len(pins.T0_GRID) + 1  # the canary's hilbert cell too
    per_cell = layers["kernel.compute_graded_kernel.calls"] / cells
    return [("compute_graded_kernel calls per hilbert cell", per_cell, "== 2", per_cell == 2)]


def trace(workload: str, seed: int, tally: Tally) -> dict | None:
    """Per-layer metrics from one traced pass, against one untraced pass."""
    worker = Worker(workload, seed, time.monotonic() + RUN_DEADLINE_S)
    plain = worker("--pass-index", "0")
    if plain is None:
        tally.lost(planned_ops(workload), "the untraced pass did not finish")
        return None
    tally.add(plain)
    meta = json.dumps(run_meta(workload, seed, 1))
    traced = worker("--pass-index", "0", "--trace", "1", "--meta", meta)
    if traced is None:
        tally.lost(planned_ops(workload), "the traced pass did not finish")
        return None
    tally.add(traced)
    speed = traced["speed"]
    layers = {k: v * speed if k.endswith((".s", "_s")) else v for k, v in traced["layers"].items()}
    layers["trace.overhead_frac"] = (
        traced["wall_s"] * speed / (plain["wall_s"] * plain["speed"]) - 1
    )
    print(f"traced pass: {traced['wall_s']!r} s as measured at host speed {speed:.3f}")
    for row in traced["per_degree"]:
        print("per_degree " + json.dumps(row, sort_keys=True))
    for what, value, expected, ok in layer_checks(workload, layers, traced["wall_s"] * speed):
        print(f"layer check: {what} = {value:.3f}, expected {expected}: {'ok' if ok else 'MISMATCH'}")
    print(f"spans written to {Path(traced['spans_file']).relative_to(ROOT)}")
    return layers


def report(spec: list, values: dict, tally: Tally) -> dict:
    for m in spec:
        print(f"  {m['name']:<40} {values[m['name']]!r} {m['unit']}")
    frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':<40} {frac!r} ({tally.failed} of {tally.attempted} operations)")
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cherednik" / "__init__.py").is_file():
        print(f"no engine source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    print("meta " + json.dumps(run_meta(args.workload, args.seed, args.trace)))

    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        tally = Tally()
        if args.trace:
            values = trace(workload, args.seed, tally)
        else:
            values = measure(workload, args.seed, seconds, tally)
        if values is None:
            print(f"{workload}: no pass finished; no result", file=sys.stderr)
            return 1
        results[workload] = report(metric_spec, values, tally)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

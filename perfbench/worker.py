"""One pass (or one set-up) of one workload in a fresh interpreter.

run.py starts it as ``python -I worker.py --src <repo>/src ...``: isolated
mode ignores PYTHONPATH and user site-packages, and the engine is imported
from the source tree given on the command line, never from an install.
The last line of standard output is one JSON object.

Times are reported as measured, together with the host's speed relative to
a reference, which run.py multiplies in.  The host speed comes from
``speed_chunk``, a fixed pure-Python loop timed inside this same process:
ten times a second during a pass (from a wall-clock timer signal), and
twenty times in a row right after set-up.  On a shared host whose speed
drifts by up to 1.9x for tens of seconds, the product tracks the engine's
own work far more closely than the measured time does.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent

SAMPLE_PERIOD_S = 0.1
# Seconds of one speed_chunk on the fastest slices of the reference host (a
# 2-vCPU x86_64 VM, CPython 3.11); a host speed of 1 means that pace.
CHUNK_REF_S = 0.00060


def speed_chunk() -> float:
    """Seconds taken by a fixed integer loop: the host-speed probe.

    It allocates no containers, so it never triggers the cyclic garbage
    collector and its pace does not depend on the size of the engine's heap.
    """
    t = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return time.perf_counter() - t


def host_speed(chunks: list) -> float:
    """Mean of CHUNK_REF_S / chunk over the chunks, the slowest and fastest
    tenth dropped: a pass that spans a slow and a fast stretch of the host
    gets the average of the two."""
    speeds = sorted(CHUNK_REF_S / c for c in chunks)
    cut = len(speeds) // 10
    return statistics.fmean(speeds[cut:len(speeds) - cut])


class SpeedSampler:
    """Runs speed_chunk on a wall-clock timer signal in this process.

    The chunk runs between two bytecodes of whatever the pass is doing, on
    the same CPU and at the same moment, for about 1% of the pass's time.
    """

    def __init__(self):
        self.chunks: list[float] = []

    def _tick(self, signum, frame):
        self.chunks.append(speed_chunk())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_pass(ops, tracer, budget_s) -> dict:
    wall = cpu = 0.0
    failures = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, the pass goes on
            result, problems = None, [f"raised {exc!r}"]
        else:
            problems = None
        t1, c1 = time.perf_counter(), cpu_seconds()
        wall += t1 - t0
        cpu += c1 - c0
        if problems is None:
            try:
                problems = op.check(result)
            except Exception as exc:  # an unreadable answer is a wrong answer
                problems = [f"unreadable result: {exc!r}"]
        if t1 - t0 > budget_s:
            problems.append(f"took {t1 - t0:.1f} s, over the {budget_s:.0f} s budget")
        if problems:
            failures.append(f"{op.label}: {'; '.join(problems)}")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "pass"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for scratch files and spans")
    ap.add_argument("--meta", default="{}", help="JSON run metadata for the spans file")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(HERE)]
    import cherednik

    if not Path(cherednik.__file__).resolve().is_relative_to(src):
        print(f"cherednik imported from {cherednik.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    scratch = Path(args.out) / f"pass-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, scratch)
        setup = {
            "setup_s": time.perf_counter() - T_START,
            "setup_speed": host_speed([speed_chunk() for _ in range(20)]),
        }
        if args.mode == "setup":
            print(json.dumps(setup))
            return 0
        ops = workloads.order(ops, args.seed, args.pass_index)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        with SpeedSampler() as sampler:
            result = run_pass(ops, tracer, workloads.OP_BUDGET_S)
        result["speed"] = host_speed(sampler.chunks or [speed_chunk()])
        result.update(setup)
        result["order"] = [op.label for op in ops]
        if tracer is not None:
            result["layers"], result["per_degree"] = tracer.summary()
            spans_path = Path(args.out) / f"spans-{args.workload}.jsonl.gz"
            tracer.write(spans_path, {**json.loads(args.meta), "order": result["order"]})
            result["spans_file"] = str(spans_path)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

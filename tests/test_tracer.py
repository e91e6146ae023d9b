"""The benchmark tracer binds engine names by module; a rename must fail here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh isolated interpreter, so no wrapper leaks into other tests
INSTALL = """
import sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
from cherednik import cli, kernel, stability
Tracer().install()
assert kernel.is_in_kernel is stability.is_in_kernel is cli.is_in_kernel
assert kernel.is_in_kernel.__wrapped__
"""

# the echelon info reads F_3[c] tuples off the adapter and the dense rows
ODD_P = """
import sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
from cherednik import kernel
from cherednik.dunkl import DunklContext
tracer = Tracer()
tracer.install()
kernel.compute_graded_kernel(DunklContext.make(n=4, p=3, t=1), max_degree=10)
metrics, per_degree = tracer.summary()
assert metrics["linalg.entry_cdeg_max"] == 4, metrics
assert metrics["linalg.strip_row.calls"] == 0, metrics
cdeg = [row["entry_cdeg_max"] for row in sorted(per_degree, key=lambda row: row["degree"])]
assert cdeg == [0, 0, 0, 0, 0, 1, 2, 3, 4, 3], cdeg
"""


def run_isolated(script):
    return subprocess.run(
        [sys.executable, "-I", "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )


def test_tracer_installs_on_the_engine():
    proc = run_isolated(INSTALL)
    assert proc.returncode == 0, proc.stderr


def test_tracer_reads_the_generic_echelon_at_odd_p():
    proc = run_isolated(ODD_P)
    assert proc.returncode == 0, proc.stderr

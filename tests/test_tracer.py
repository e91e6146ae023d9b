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


def test_tracer_installs_on_the_engine():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

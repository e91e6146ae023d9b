#!/usr/bin/env python3
"""Print two sha256 per cell: the engine's per-degree kernel data and its dump.

For each cell the first digest covers, per computed degree: d, M, L, live,
points, the kernel rows (each with its items sorted) and pivots that
``GradedKernel.kernel`` derives, and the constraint rows, as canonical JSON
(``kernel_text``).  Two trees that print the same
first digests give the same answers on these cells, whatever the order of
the keys inside a row.  The second digest, after ``dump=``, is of the text
``hilbert --dump-kernel`` writes for the same kernel, so equal second
digests mean byte-identical dump files.  Run it with the package on the
path, for instance

    PYTHONPATH=src python scripts/kernel_digests.py

Cells are (p, n, t, c, degree cap); a cap of None runs to the first zero
of dim L.
"""

import hashlib
import json

from cherednik.cli import export_kernel_json
from cherednik.dunkl import DunklContext
from cherednik.kernel import compute_graded_kernel

CELLS = [
    (2, 5, 1, "generic", None),
    (3, 4, 1, "generic", None),
    (2, 3, 1, "generic", None),
    (2, 4, 1, "generic", None),
    (3, 5, 1, "generic", 7),
    (3, 6, 1, "generic", 5),
    (2, 7, 1, "generic", 6),
    (2, 9, 0, 1, None),
    (3, 7, 0, 1, None),
    (5, 6, 0, 1, None),
    (3, 4, 0, 1, None),
    (7, 8, 0, 1, None),
    (2, 4, 0, 1, None),
    (3, 10, 0, 1, None),
    (2, 13, 0, 1, None),
    (2, 5, 0, 0, None),
    (3, 4, 1, 2, None),
    (5, 4, 1, 0, None),
    (2, 6, 1, 1, 8),
    (5, 6, 1, 3, 8),
    (2, 7, 1, "generic", None),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_text(gk) -> str:
    """The per-degree kernel data of ``gk`` as canonical JSON."""
    degrees = []
    for d, dd in sorted(gk.degrees.items()):
        rows, pivots = gk.kernel(d)
        degrees.append({
            "d": d,
            "M": dd.dim_m,
            "L": len(dd.pivots),
            "live": dd.live,
            "points": dd.points,
            "kernel_rows": [sorted(row.items()) for row in rows],
            "kernel_pivots": pivots,
            "constraint_rows": dd.constraint_rows,
        })
    return json.dumps(degrees, sort_keys=True, separators=(",", ":"))


def cell_digests(p, n, t, c, cap) -> tuple[str, str]:
    """(kernel digest, dump digest) of one cell."""
    gk = compute_graded_kernel(DunklContext.make(n=n, p=p, t=t, c=c), max_degree=cap)
    dump_text = json.dumps(export_kernel_json(gk), sort_keys=True, indent=1)  # as cli.cmd_hilbert writes it
    return sha256(kernel_text(gk)), sha256(dump_text)


def main() -> int:
    for cell in CELLS:
        p, n, t, c, cap = cell
        kernel, dump = cell_digests(*cell)
        print(f"p={p} n={n} t={t} c={c} cap={cap} {kernel} dump={dump}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

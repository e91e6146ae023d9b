#!/usr/bin/env python3
"""Print one sha256 per cell over the engine's per-degree kernel data.

For each cell the digest covers, per computed degree: d, M, L, live,
points, the kernel rows (each with its items sorted), the kernel pivots
and the constraint rows, as canonical JSON.  Two trees that print the same
lines give the same answers on these cells, whatever the order of the keys
inside a row.  Run it with the package on the path, for instance

    PYTHONPATH=src python scripts/kernel_digests.py

Cells are (p, n, t, c, degree cap); a cap of None runs to the first zero
of dim L.
"""

import hashlib
import json

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


def cell_digest(p, n, t, c, cap) -> str:
    gk = compute_graded_kernel(DunklContext.make(n=n, p=p, t=t, c=c), max_degree=cap)
    degrees = [
        {
            "d": d,
            "M": dd.dim_m,
            "L": dd.dim_l,
            "live": dd.live,
            "points": dd.points,
            "kernel_rows": [sorted(row.items()) for row in dd.kernel_rows],
            "kernel_pivots": dd.kernel_pivots,
            "constraint_rows": dd.constraint_rows,
        }
        for d, dd in sorted(gk.degrees.items())
    ]
    text = json.dumps(degrees, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    for cell in CELLS:
        p, n, t, c, cap = cell
        print(f"p={p} n={n} t={t} c={c} cap={cap} {cell_digest(*cell)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

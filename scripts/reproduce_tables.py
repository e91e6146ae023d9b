#!/usr/bin/env python3
"""Reproduce the desk-scale series tables and conjecture comparisons.

Runs the t=0 grid, the t=1 characteristic-2 cells, and the two
open-question cells (t=1 with p=3 n=4 and p=2 n=4), printing one row per
cell and writing RunRecords + a CSV summary under --out.
"""

import argparse
import json
import sys
from pathlib import Path

from cherednik.cli import _budget, _run_cell
from cherednik.dunkl import default_c


CELLS = (
    [(p, n, 0) for p, n in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 7), (5, 6)]]
    + [(2, 3, 1), (2, 5, 1)]
    + [(3, 4, 1), (2, 4, 1)]
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="tables_out")
    ap.add_argument("--budget-seconds", type=_budget, default=900.0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'p':>2} {'n':>2} {'t':>2}  {'series':<42} {'printed':>8} {'remark':>8}")
    for p, n, t in CELLS:
        c = default_c(t)
        record = _run_cell(p, n, t, c, None, budget_seconds=args.budget_seconds)[0]
        (out / f"run_p{p}_n{n}_t{t}.json").write_text(
            json.dumps(record.to_json(), sort_keys=True, indent=1)
        )
        if record.status != "ok":
            print(f"{p:>2} {n:>2} {t:>2}  <{record.status}>")
            rows.append((p, n, t, record.status, "", ""))
            continue
        coeffs = record.series["coeffs"]
        m_a = record.conjecture["as_printed"]["match"]
        m_b = record.conjecture["remark_consistent"]["match"]
        print(f"{p:>2} {n:>2} {t:>2}  {str(coeffs):<42} {str(m_a):>8} {str(m_b):>8}")
        rows.append((p, n, t, "ok", m_a, m_b))
    csv_path = out / "summary.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("p,n,t,status,as_printed_match,remark_consistent_match\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"\nwrote {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

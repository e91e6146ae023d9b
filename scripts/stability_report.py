#!/usr/bin/env python3
"""Run the stability sweeps for the catalogued monomial families.

Emits one verdict JSON per polynomial (the five stable families, the
rejected monomial x1^5*x2, and the mixed-coefficient degree-8 generator
with its x1-multiple) and prints a one-line summary each.
"""

import argparse
import json
import sys
from pathlib import Path

from cherednik.cli import _count
from cherednik.stability import (
    MIXED_GENERATOR,
    MIXED_X1_MULTIPLE,
    StabilityInstance,
    certify_mixed_kernel_generator,
    is_stably_in_kernel,
)

FAMILIES = [
    "x1^6",
    "x1^5*x2^2*x3^2",
    "x1^4*x2^4",
    "x1^3*x2^3*x3^3",
    "x1^2*x2^2*x3^2*x4^2",
    "x1^5*x2",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="stability_out")
    ap.add_argument("--extra-above-bound", type=_count, default=0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, text in enumerate(FAMILIES):
        verdict = is_stably_in_kernel(
            StabilityInstance.from_text(text),
            extra_above_bound=args.extra_above_bound,
        )
        (out / f"family_{idx}.json").write_text(
            json.dumps(verdict.to_json(), sort_keys=True, indent=1)
        )
        print(
            f"{text:<24} stable={verdict.stable} bound={verdict.bound} "
            f"checked={[e.n for e in verdict.per_n]}"
        )
    report = certify_mixed_kernel_generator()
    payload = {
        "generator": report.generator.to_json(),
        "x1_multiple": report.x1_multiple.to_json(),
        "auxiliary": report.auxiliary.to_json(),
        "identity_ok": report.identity_ok,
        "ok": report.ok,
    }
    (out / "mixed_generator.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1)
    )
    print(f"{MIXED_GENERATOR:<24} stable={report.generator.stable}")
    print(f"{MIXED_X1_MULTIPLE:<24} stable={report.x1_multiple.stable}")
    print(f"mixed-generator identity ok={report.identity_ok}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

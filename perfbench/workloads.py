"""The four workloads: their inputs, their operations and the checks on them.

``build`` does the set-up (contexts, parsed polynomials, fresh directories)
and returns the operations; ``order`` applies the seed.  Every engine entry
point is looked up on its module when the operation runs, so the tracer's
wrappers see the same calls a user's code would make.

Each workload loads one engine layer and leaves the others nearly idle:

* ``t1-generic``: fraction-free F_p[c] elimination (echelon + strip_row);
  Dunkl work is a few percent and no kernel basis is consumed.
* ``gram-oracle``: Dunkl operators on the Gram oracle's tree (the char-2
  core at p=2, the general core at odd p); linalg is under 1%.
* ``stability-sweep``: the membership tree, which builds no matrix; most of
  its time is the upstairs char-2 operator inside ``is_in_kernel``.
* ``t0-grid``: the user path through cli, cache, series and
  ``--dump-kernel``; Dunkl-column build over F_p dominates and the kernel
  bases are consumed.

Every pass opens with the same three-operation canary on tiny inputs: one
``hilbert`` cell through the CLI, one oracle degree and one stability
family.  It costs milliseconds, checks that each layer still answers
correctly, and gives every traced layer a span on every workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cherednik import cli, kernel, stability
from cherednik.dunkl import DunklContext

import pins

# An operation that takes longer than this counts as failed.
OP_BUDGET_S = 60.0


@dataclass
class Op:
    label: str
    group: str  # the seed shuffles groups; operations in a group keep their order
    run: Callable[[], object]
    check: Callable[[object], list]  # mismatch messages, empty when correct


def kernel_digest(rows, pivots) -> str:
    """sha256 of canonical kernel rows over F_p, independent of engine code."""
    payload = [list(pivots), [[[c, int(v)] for c, v in sorted(r.items())] for r in rows]]
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def dump_digest(data: dict) -> tuple[str, list]:
    """sha256 of a --dump-kernel JSON through the first degree with dim L = 0.

    Degrees after that one must have L = 0 and ker = M; they are checked,
    not hashed, so dropping the redundant verification degrees keeps the
    digest.  Returns (digest, mismatch messages).
    """
    problems = []
    kept = {}
    done = False
    for d in sorted(data["degrees"], key=int):
        entry = data["degrees"][d]
        if done:
            if entry["dim_l"] != 0 or entry["dim_kernel"] != entry["dim_m"]:
                problems.append(f"degree {d} after the first zero has L != 0")
            continue
        kept[d] = entry
        done = entry["dim_l"] == 0
    payload = {k: v for k, v in data.items() if k != "degrees"}
    payload["degrees"] = kept
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), problems


def _t1_op(p, n, cap, want_zero, want_dims) -> Op:
    ctx = DunklContext.make(n=n, p=p, t=1)

    def check(gk):
        got = gk.dims()
        out = [
            f"d={d}: (M, ker, L) {tuple(got.get(d, ()))} != {want}"
            for d, want in want_dims.items()
            if tuple(got.get(d, ())) != want
        ]
        if gk.first_zero_degree != want_zero:
            out.append(f"first zero degree {gk.first_zero_degree} != {want_zero}")
        if cap is not None and max(got) != cap:
            out.append(f"stopped at degree {max(got)}, not at the cap {cap}")
        return out

    return Op(
        f"t1 p={p} n={n} d<={cap or 'zero'}",
        f"t1 p={p} n={n}",
        lambda: kernel.compute_graded_kernel(ctx, max_degree=cap),
        check,
    )


def _oracle_op(p, n, d, want_dim, want_digest, ctx) -> Op:
    def check(result):
        rows, pivots = result
        if len(rows) != want_dim:
            return [f"dim ker {len(rows)} != {want_dim}"]
        if kernel_digest(rows, pivots) != want_digest:
            return ["kernel rows differ from the pinned digest"]
        return []

    return Op(
        f"oracle p={p} n={n} d={d}",
        f"oracle p={p} n={n}",
        lambda: kernel.gram_oracle_kernel(d, ctx),
        check,
    )


def _stability_op(text, want) -> Op:
    inst = stability.StabilityInstance.from_text(text)

    def check(verdict):
        got = verdict.to_json()
        return [] if got == want else [f"verdict {got} != {want}"]

    return Op(
        f"stable {text}",
        f"stable {text}",
        lambda: stability.is_stably_in_kernel(inst),
        check,
    )


def _hilbert_op(p, n, want, scratch: Path) -> Op:
    want_rc, want_series, want_sha = want
    cell = scratch / f"hilbert-p{p}-n{n}"
    cell.mkdir(parents=True)
    dump = cell / "kernel.json"
    argv = [
        "hilbert", "--p", str(p), "--n", str(n), "--t", "0",
        "--dump-kernel", str(dump), "--cache-dir", str(cell / "cache"),
    ]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def check(result):
        rc, stdout = result
        if rc != want_rc:
            return [f"exit code {rc} != {want_rc}"]
        record = json.loads(stdout.strip().splitlines()[-1])
        out = []
        if record["status"] != "ok":
            out.append(f"status {record['status']}")
        if tuple(record["series"]["coeffs"]) != want_series:
            out.append(f"series {record['series']['coeffs']} != {list(want_series)}")
        sha, problems = dump_digest(json.loads(dump.read_text()))
        out += problems
        if sha != want_sha:
            out.append("--dump-kernel file differs from the pinned digest")
        return out

    return Op(f"hilbert p={p} n={n}", f"hilbert p={p} n={n}", run, check)


def _canary(scratch: Path) -> list:
    (p, n), want = pins.CANARY_HILBERT
    (op, on, od), (dim, digest) = pins.CANARY_ORACLE
    text, verdict = pins.CANARY_STABILITY
    ctx = DunklContext.make(n=on, p=op, t=0)
    ops = [
        _hilbert_op(p, n, want, scratch),
        _oracle_op(op, on, od, dim, digest, ctx),
        _stability_op(text, verdict),
    ]
    for o in ops:
        o.group = "canary"
    return ops


def build(name: str, scratch: Path) -> list:
    """Set up one pass of a workload; returns its operations, canary first."""
    ops = _canary(scratch)
    if name == "t1-generic":
        for (p, n, cap), (zero, dims) in pins.T1_GENERIC.items():
            ops.append(_t1_op(p, n, cap, zero, dims))
    elif name == "gram-oracle":
        for (p, n), degrees in pins.GRAM_ORACLE.items():
            ctx = DunklContext.make(n=n, p=p, t=0)
            for d, (dim, digest) in sorted(degrees.items()):
                ops.append(_oracle_op(p, n, d, dim, digest, ctx))
    elif name == "stability-sweep":
        for text, verdict in pins.STABILITY.items():
            ops.append(_stability_op(text, verdict))
    elif name == "t0-grid":
        for (p, n), want in pins.T0_GRID.items():
            ops.append(_hilbert_op(p, n, want, scratch))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


def order(ops: list, seed: int, pass_index: int) -> list:
    """Canary first, then the groups in an order drawn from (seed, pass)."""
    groups: dict[str, list] = {}
    for o in ops:
        groups.setdefault(o.group, []).append(o)
    canary = groups.pop("canary")
    names = list(groups)
    random.Random(f"{seed}/{pass_index}").shuffle(names)
    return canary + [o for g in names for o in groups[g]]


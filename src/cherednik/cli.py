"""Command-line surface: hilbert / check / sweep / selftest.

Exit codes: 0 success (verdicts included), 3 computed-vs-conjecture mismatch
(a finding, not an error), 2 usage or parse problems, 1 internal failure.
Machine-readable JSON goes to stdout; human summaries go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import random
import sys
import time
from functools import reduce
from pathlib import Path

from . import __version__
from .fields import CoeffDomain, RationalFunctionField, is_prime
from .poly import ParseError, ReducedPoly, format_poly, format_row, monomial_name, monomials_of_degree, parse_poly, random_homogeneous
from .dunkl import DunklContext, check_commutators, default_c, dunkl, dunkl_z, reduce_raw
from .kernel import (
    GradedKernel,
    _canonical,
    _pairings,
    _stacked_rows,
    _walk,
    compute_graded_kernel,
    contravariant_pairing,
    dunkl_columns,
    gram_oracle_kernel,
    gram_rows,
    is_in_kernel,
    is_singular,
    slot_symmetry_classes,
)
from .catalog import singular_catalog
from .series import (
    CongruenceData,
    baby_verma_series,
    compare,
    computed_hilbert,
    conjectured_hilbert,
    shape_check_t1,
)
from .stability import StabilityInstance, is_stably_in_kernel
from .cache import RunCache, RunRecord
from . import linalg

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

DEFAULT_VARIANT = "remark_consistent"


def _eprint(*args):
    print(*args, file=sys.stderr)


def _conjecture_applies(p: int, c: str) -> bool:
    """The closed-form conjectures are stated for c != 0."""
    return c == "generic" or int(c) % p != 0


def _run_cell(
    p: int,
    n: int,
    t: int,
    c: str,
    max_degree: int | None,
    budget_seconds: float | None = None,
) -> tuple[RunRecord, GradedKernel]:
    """(RunRecord, the graded kernel it was read from).

    A run stopped by the budget or by ``max_degree`` before the first zero
    of dim L gets ``status="exceeded_cap"``, and the dims and the
    ``timing.per_degree`` rows of the degrees it finished; its kernel holds
    those degrees.
    """
    start = time.monotonic()
    record = RunRecord(key=RunRecord.make_key(p, n, t, c))
    record.timing = {"timestamp": datetime.datetime.now().isoformat()}
    notes = record.notes
    gk = compute_graded_kernel(
        DunklContext.make(n=n, p=p, t=t, c=c), max_degree=max_degree, budget_seconds=budget_seconds
    )
    record.dims = {str(d): list(v) for d, v in gk.dims().items()}
    record.timing["per_degree"] = [
        {"degree": d, "M": dd.dim_m, "live": dd.live, "L": dd.dim_l, "points": dd.points, "seconds": round(dd.seconds, 4)}
        for d, dd in sorted(gk.degrees.items()) if d
    ]
    if not gk.completed:
        record.status = "exceeded_cap"
        stop = max(gk.degrees) + 1  # the degree the run did not start
        if max_degree is not None and stop > max_degree:
            notes.append(f"stopped at --max-degree {max_degree}, before the first zero of dim L")
        else:
            notes.append(f"kernel run exceeded {budget_seconds}s at degree {stop}")
        record.timing["wall_time_s"] = round(time.monotonic() - start, 3)
        return record, gk
    series = computed_hilbert(gk)
    record.series = series.to_json()
    cong = CongruenceData.of(n, p)
    record.conjecture = {}
    variants = ("as_printed", "remark_consistent")
    if not _conjecture_applies(p, c):
        variants = ()
        notes.append("conjecture not applicable: it is stated for c != 0 mod p")
    for variant in variants:
        predicted = conjectured_hilbert(cong, t, variant)
        verdict = compare(series, predicted)
        record.conjecture[variant] = {
            "series": list(predicted.coeffs),
            "factored": predicted.factored,
            "match": verdict.equal,
            "verdict": verdict.to_json(),
        }
    nt = baby_verma_series(n, p, t)
    record.baby_verma_bound_ok = all(
        series[d] <= nt[d] for d in range(max(series.degree(), nt.degree()) + 1)
    )
    if t == 1:
        rep = shape_check_t1(series, n, p)
        record.shape_check = {
            "ok": rep.ok,
            "inner": list(rep.inner.coeffs) if rep.inner else None,
            "message": rep.message,
        }
    record.timing["wall_time_s"] = round(time.monotonic() - start, 3)
    return record, gk


def _print_record(record: RunRecord) -> None:
    print(json.dumps(record.to_json(), sort_keys=True))
    k = record.key
    _eprint(f"p={k['p']} n={k['n']} t={k['t']} c={k['c_mode']}: {record.status}")
    if record.series:
        _eprint(f"  series    {record.series['coeffs']}")
        for variant, data in record.conjecture.items():
            tag = "match" if data["match"] else "MISMATCH"
            _eprint(f"  {variant:<18} {data['series']} [{tag}]")
        if record.shape_check:
            _eprint(
                f"  shape check: {record.shape_check['ok']}"
                f" inner={record.shape_check['inner']}"
            )


def _cached_cell(cache, p, n, t, c, max_degree, budget_seconds=None, use_cache=True):
    """(RunRecord, kernel or None): a cache hit, noted as one, with no
    kernel, else a run.

    Only a complete run, status "ok", is stored: lookups see no cap or
    budget.  With use_cache False the cache is neither read nor written.
    """
    record = cache.lookup(RunRecord.make_key(p, n, t, c)) if use_cache else None
    if record is not None:
        record.notes = list(record.notes) + ["cache hit"]
        return record, None
    record, gk = _run_cell(p, n, t, c, max_degree, budget_seconds)
    if use_cache and record.status == "ok":
        cache.store(record)
    return record, gk


def cmd_hilbert(args) -> int:
    c = default_c(args.t, args.c)
    try:
        ctx = DunklContext.make(n=args.n, p=args.p, t=args.t, c=c)
        if c == "generic" and args.p > 1 << 16:  # its point fields are tables of p^k <= 2^16
            raise ValueError(f"generic c needs p < 2^16, got p = {args.p}")
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE
    cache = RunCache(args.cache_dir)
    record, gk = _cached_cell(cache, args.p, args.n, args.t, c, args.max_degree, use_cache=not args.no_cache)
    if args.dump_kernel:  # the degrees the record's dims cover
        if gk is None:  # a cache hit, always complete: rerun to the first zero, as the stored record did
            gk = compute_graded_kernel(ctx)
        Path(args.dump_kernel).write_text(
            json.dumps(export_kernel_json(gk), sort_keys=True, indent=1)
        )
    _print_record(record)
    verdict = record.conjecture.get(DEFAULT_VARIANT)  # none for a capped run or c = 0 mod p
    return EXIT_MISMATCH if verdict and not verdict["match"] else EXIT_OK


def export_kernel_json(gk) -> dict:
    """Kernel bases as JSON arrays of formatted polynomials, keyed per degree.

    Each canonical RREF row is written by ``poly.format_row`` as it stands,
    the text ``format_poly`` gives its polynomial.  Monomial names are built
    once per degree and coefficient prefixes once per export.
    """
    ctx, dom, prefixes = gk.ctx, gk.ctx.domain, {}
    out = {
        "format_version": 1,  # this schema's own version, not the cache key's
        "p": ctx.p,
        "n": ctx.n,
        "t": ctx.t,
        "c_mode": dom.c_mode,
        "degrees": {},
    }
    for d in sorted(gk.degrees):
        dd, (rows, pivots) = gk.degrees[d], gk.kernel(d)
        names = [monomial_name(m) for m in monomials_of_degree(ctx.nvars, d)]
        out["degrees"][str(d)] = {
            "dim_m": dd.dim_m,
            "dim_kernel": dd.dim_kernel,
            "dim_l": dd.dim_l,
            "pivot_monomials": [names[c] for c in pivots],  # coefficient 1; ker B[0] = 0 has none
            "basis": [format_row(dom, row, names, prefixes) for row in rows],
        }
    return out


def cmd_check(args) -> int:
    try:
        if args.what == "stable":
            inst = StabilityInstance.from_text(args.poly, args.p)
            verdict = is_stably_in_kernel(
                inst,
                t=args.t if args.t is not None else 1,
                experimental=args.experimental,
                extra_above_bound=args.extra_above_bound,
            )
            out = {"check": "stable", **verdict.to_json()}
            print(json.dumps(out, sort_keys=True))
            _eprint(
                f"stable={verdict.stable} bound={verdict.bound} "
                f"checked n={[e.n for e in verdict.per_n]}"
            )
            return EXIT_OK
        t = args.t if args.t is not None else 0
        c = default_c(t, args.c)
        ctx = DunklContext.make(n=args.n, p=args.p, t=t, c=c)
        f = parse_poly(args.poly, ctx.nvars, ctx.domain)
        out = {
            "check": args.what,
            "polynomial": format_poly(f),
            "p": args.p,
            "n": args.n,
            "t": t,
            "c_mode": ctx.domain.c_mode,
        }
        if args.what == "singular":
            out["result"] = is_singular(f, ctx)
            summary = f"singular: {out['result']}"
        else:
            res = is_in_kernel(f, ctx)
            out.update(result=res.member, method=res.method)
            if res.witness is not None:
                out.update(witness=list(res.witness), witness_value=str(res.witness_value))
            summary = f"in kernel: {res.member}"
        print(json.dumps(out, sort_keys=True))
        _eprint(summary)
        return EXIT_OK
    except (ParseError, ValueError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE


def _int_list(text: str) -> list[int]:
    """``--p-list``/``--n-list``: comma-separated integers of at least 2, empty items skipped."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None
    if any(v < 2 for v in values):  # no cell has p < 2 or n < 2, and p = 0 breaks the n % p column
        raise argparse.ArgumentTypeError(f"every entry must be at least 2: {text!r}")
    return values


def _prime_list(text: str) -> list[int]:
    """``--p-list``: an ``_int_list`` of primes, so no cell of a sweep fails on its p."""
    values = _int_list(text)
    if not all(map(is_prime, values)):
        raise argparse.ArgumentTypeError(f"not a comma-separated list of primes: {text!r}")
    return values


def _at_least_zero(convert, kind: str):
    """An argparse type: convert(text), a usage error unless at least 0.  A negative
    cap or budget runs no degree yet records exceeded_cap, a negative count of extra
    odd n sweeps none; a NaN budget never stops a run."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be at least 0: {text!r}")
        return value

    return parse


_count = _at_least_zero(int, "an integer")  # the last degree to compute, or the odd n past the bound
_budget = _at_least_zero(float, "a number")  # seconds, checked before each degree


def cmd_sweep(args) -> int:
    """One hilbert run per (p, n); each summary row is written as its cell ends,
    so an interrupted sweep keeps the rows of the cells it finished."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = RunCache(args.cache_dir)
    c = default_c(args.t, args.c)
    csv_path = out_dir / "summary.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "n", "r", "series", "variant_A_match", "variant_B_match", "status"])
        fh.flush()
        for p in args.p_list:
            for n in args.n_list:
                try:
                    record = _cached_cell(cache, p, n, args.t, c, args.max_degree, args.budget_seconds)[0]
                except Exception as exc:  # record the failure, keep sweeping
                    record = RunRecord(key=RunRecord.make_key(p, n, args.t, c), status="error", notes=[repr(exc)])
                cell_path = out_dir / f"run_p{p}_n{n}_t{args.t}.json"
                cell_path.write_text(json.dumps(record.to_json(), sort_keys=True, indent=1))
                writer.writerow([
                    p,
                    n,
                    n % p,
                    " ".join(map(str, record.series["coeffs"])) if record.series else "",
                    record.conjecture.get("as_printed", {}).get("match", ""),
                    record.conjecture.get("remark_consistent", {}).get("match", ""),
                    record.status,
                ])
                fh.flush()
                _eprint(f"cell p={p} n={n}: {record.status}")
    _eprint(f"wrote {csv_path}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = []

    def report(name, ok, detail=""):
        line = f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
        print(line)
        if not ok:
            failures.append(line)

    rng = random.Random(11)
    core_checked, core_bad, col_checked, col_bad = 0, [], 0, []
    for p, t, n in [(2, 0, 3), (3, 0, 4), (2, 1, 3), (3, 1, 4)]:
        ctx = DunklContext.make(n=n, p=p, t=t)
        rep = check_commutators(ctx, degree=3, trials=4, seed=11)
        detail = ""
        if not rep.ok:
            bad = rep.failures[0]
            detail = f"(i={bad.i}, j={bad.j}, a={bad.a}, f={format_poly(bad.f)})"
        report(f"commutators p={p} t={t} n={n} ({rep.checked} identities)", rep.ok, detail)
        for f in (random_homogeneous(ctx.domain, n - 1, d, rng) for d in (1, 2, 3)):
            for i in range(1, n):
                core_checked += 1
                if dunkl_z(f, i, ctx) != dunkl(f, i, ctx).sub(dunkl(f, n, ctx)):
                    core_bad.append(f"(p={p}, t={t}, n={n}, i={i}, f={format_poly(f)})")
        dom, adapter = ctx.domain, linalg.RingAdapter.of(ctx.domain)
        for d, i in ((d, i) for d in (1, 2, 3) for i in range(1, n)):  # monomials in reverse grlex order
            monos, prev = monomials_of_degree(n - 1, d)[::-1], monomials_of_degree(n - 1, d - 1)
            for m, col in zip(monos, dunkl_columns(d, i, ctx, monos)):
                f, col_checked = ReducedPoly(dom, n - 1, {m: dom.one}), col_checked + 1
                got = ReducedPoly(dom, n - 1, {prev[r]: adapter.scalar_div(v, adapter.one) for r, v in col.items()})
                if got != dunkl(f, i, ctx).sub(dunkl(f, n, ctx)):
                    col_bad.append(f"(p={p}, t={t}, n={n}, i={i}, m={m})")
    detail = core_bad[0] if core_bad else ""
    report(f"dunkl core vs divided differences ({core_checked} images)", not core_bad, detail)
    report(f"dunkl columns vs divided differences ({col_checked} columns)", not col_bad, "".join(col_bad[:1]))

    elim_bad = []
    for p, rank, nrows, ncols in [(2, 2, 4, 5), (2, 3, 6, 7), (2, 1, 3, 6), (3, 2, 5, 4), (3, 3, 4, 7)]:
        dom = CoeffDomain.generic(p)
        R, adapter = dom.ring, linalg.RingAdapter.of(dom)
        rand = [[R.from_coeffs([rng.randrange(p) for _ in range(3)]) for _ in range(ncols)] for _ in range(rank + nrows)]
        A = [[reduce(R.add, (R.mul(a, b[j]) for a, b in zip(row, rand[:rank])), R.zero) for j in range(ncols)] for row in rand[rank:]]
        want = linalg.sparse_rref(dom, [{j: (v, R.one) for j, v in enumerate(r) if v} for r in A])
        try:
            rows, pivots = linalg.echelon(adapter, A)
            ok = (linalg.rref_scalar_rows(adapter, rows, pivots), pivots) == want
        except ArithmeticError:  # no certificate at any point
            ok = False
        if not ok:
            elim_bad.append(f"(p={p}, {nrows}x{ncols} of rank <= {rank})")
    report("generic elimination vs field-fraction RREF (5 matrices)", not elim_bad, "".join(elim_bad[:1]))

    def from_the_left(dom, rows, ncols):  # the RREF from the left: columns mirrored, reduced, mirrored back
        rref, pivots = linalg.sparse_rref(dom, [{ncols - 1 - j: v for j, v in r.items()} for r in rows])
        return [{ncols - 1 - j: v for j, v in r.items()} for r in rref], [ncols - 1 - c for c in pivots]

    kern_bad = []  # the engine and the Gram oracle share this route, so check it on its own
    for dom in [CoeffDomain.prime(p) for p in (2, 3, 5)] + [CoeffDomain.generic(p) for p in (2, 3)]:
        draw = dom.from_c_poly if isinstance(dom, RationalFunctionField) else lambda c: dom.from_int(c[0])
        for nrows, ncols in [(0, 4), (1, 5), (3, 6), (4, 4)]:
            values = [[draw([rng.randrange(dom.p), rng.randrange(dom.p)]) for _ in range(ncols)] for _ in range(nrows)]
            rref, pivots = from_the_left(dom, [{j: v for j, v in enumerate(r) if not dom.is_zero(v)} for r in values], ncols)
            want = from_the_left(dom, linalg.natural_kernel(dom, rref, pivots, range(ncols)), ncols)
            right = linalg.sparse_rref(dom, rref)
            if linalg.kernel_from_rref(dom, *right, ncols) != want:
                kern_bad.append(f"({dom!r}, {nrows}x{ncols} of rank {len(pivots)})")
    report("kernel extraction vs reduced natural kernel (20 matrices)", not kern_bad, "".join(kern_bad[:1]))

    for p, t, n, dmax in [(2, 0, 3, 5), (2, 1, 3, 6), (3, 0, 4, 5)]:
        ctx = DunklContext.make(n=n, p=p, t=t)
        gk = compute_graded_kernel(ctx)
        ok = all(gram_oracle_kernel(d, ctx) == gk.kernel(d) for d in range(1, min(dmax, max(gk.degrees)) + 1))
        report(f"oracle equivalence p={p} t={t} n={n} d<={dmax}", ok)

    slot_bad, live_bad, live_degrees = [], [], 0
    for p, t, n, c in [(2, 0, 5, 1), (3, 1, 4, "generic"), (5, 1, 4, 0), (2, 1, 6, "generic")]:
        ctx = DunklContext.make(n=n, p=p, t=t, c=c)
        gk, adapter = GradedKernel(ctx), linalg.RingAdapter.of(ctx.domain)
        for d in range(1, 8):
            R, ncols = gk.compute_degree(d - 1).constraint_rows, len(monomials_of_degree(n - 1, d))
            every = [r for i in range(1, n) for r in linalg.compose_rows_columns(adapter, R, dunkl_columns(d, i, ctx))]
            full = linalg.echelon(adapter, every)
            if d <= 3 and linalg.echelon(adapter, _stacked_rows(R, d, ctx, range(ncols))) != full:
                slot_bad.append(f"(p={p}, t={t}, n={n}, c={c}, d={d})")
            data = gk.compute_degree(d)
            live_degrees += data.live < ncols
            if (data.constraint_rows, data.pivots) != full:
                live_bad.append(f"(p={p}, t={t}, n={n}, c={c}, d={d})")
            if not data.dim_l:
                break
    report("stacked rows by slot symmetry vs every slot composed (12 degrees)", not slot_bad, "".join(slot_bad[:1]))
    report(f"live columns vs full stack ({live_degrees} degrees)", not live_bad, "".join(live_bad[:1]))

    gram_bad = []
    for p, t, n, c, d in [(2, 0, 4, 1, 4), (3, 1, 4, "generic", 3), (5, 1, 3, 0, 5), (2, 1, 3, "generic", 5)]:
        ctx = DunklContext.make(n=n, p=p, t=t, c=c)
        dom, rows, gram = ctx.domain, monomials_of_degree(n - 1, d), gram_rows(d, ctx)
        adapter = linalg.RingAdapter.of(dom)
        for k in rng.sample(range(len(rows)), 2):
            tree = _pairings(ReducedPoly(dom, n - 1, {rows[k]: dom.one}), d, ctx)
            if [adapter.scalar_div(g[k], adapter.one) for g in gram] != [tree.get(a, dom.zero) for a in rows]:
                gram_bad.append(f"(p={p}, t={t}, n={n}, c={c}, m={rows[k]})")
    report("gram recursion vs pairing tree (8 columns)", not gram_bad, "".join(gram_bad[:1]))

    ctx = DunklContext.make(n=7, p=2, t=1)
    cut_bad = []
    cut_cases = [
        ("x1^6", True), ("x1^4*x2^4", True), ("x1^5*x2", False), ("(1/(c+1))*x1^5*x2+x1^3*x2^3", False)
    ]
    for text, want in cut_cases:
        f = parse_poly(text, 6, ctx.domain)
        direct = is_in_kernel(f, ctx, method="direct")
        try:
            cut = is_in_kernel(f, ctx, method="cutoff")
            ok = cut.member == direct.member == want and (
                want or not contravariant_pairing(cut.witness, f, ctx).is_zero()
            )
            detail = f"cutoff {cut.member}, direct {direct.member}"
        except Exception as exc:  # a broken route may also fail its own assertions
            ok, detail = False, f"cutoff raised {exc!r}"
        if not ok:
            cut_bad.append(f"({text}: {detail})")
    report("membership cutoff vs direct (4 polynomials, n=7)", not cut_bad, "".join(cut_bad[:1]))

    orbit_bad = []  # x1^3*x3 leaves the spare slots 2, 4..8 non-contiguous
    for text, p, t in [("x1^4", 2, 1), ("x1^2*x2^2", 3, 1), ("x1^3*x3", 3, 0)]:
        ctx = DunklContext.make(n=9, p=p, t=t)
        f = parse_poly(text, 8, ctx.domain)
        classes = slot_symmetry_classes(f, ctx)
        orbit = _walk(f, 3, classes, ctx)
        plain = _walk(f, 3, [[i] for i in range(1, 9)], ctx)
        if set(orbit) != {a for a in plain if _canonical(a, classes)} or any(
            reduce_raw(g, ctx) != reduce_raw(plain[a], ctx) for a, g in orbit.items()
        ):
            orbit_bad.append(f"({text}, p={p}, t={t})")
    report("membership orbit walk vs plain walk (n=9)", not orbit_bad, "".join(orbit_bad[:1]))

    carry_bad = []  # each walk given the record of the one before, as a stability sweep does
    for text, p, ns, depth in [("x1^5*x2^2*x3^2", 2, (11, 13, 15), 6), ("x1^2*x2^2", 3, (5, 8, 11), 4)]:
        held = {}
        for ctx in (DunklContext.make(n=n, p=p, t=1) for n in ns):
            f = parse_poly(text, ctx.nvars, ctx.domain)
            carried, fresh = (_walk(f, depth, slot_symmetry_classes(f, ctx), ctx, h) for h in (held, None))
            carry_bad += [f"({text}, p={p}, n={ctx.n})"] if carried != fresh else []
    report("membership walk carried across n vs fresh walk (2 templates, 6 n)", not carry_bad, "".join(carry_bad[:1]))

    cat = [
        ("quad_pair", {"i": 1, "j": 2}, DunklContext.make(n=5, p=2, t=0), "singular"),
        ("skew_quad", {"i": 1, "j": 2, "k": 3}, DunklContext.make(n=4, p=3, t=0), "singular"),
        ("cubic_pair", {"i": 1, "j": 2}, DunklContext.make(n=4, p=3, t=0), "kernel"),
        ("power_pair", {"i": 1, "j": 2}, DunklContext.make(n=4, p=3, t=0), "kernel"),
        ("quartic_c_pair", {"i": 1, "j": 2}, DunklContext.make(n=5, p=2, t=1), "singular"),
        ("coeff_series", {"i": 1}, DunklContext.make(n=4, p=2, t=1), "singular"),
    ]
    for family, params, ctx, mode in cat:
        f = singular_catalog(family, params, ctx)
        ok = is_singular(f, ctx) if mode == "singular" else is_in_kernel(f, ctx).member
        report(f"catalog {family} ({mode})", ok)

    if failures:
        _eprint(f"{len(failures)} self-test failures; first: {failures[0]}")
        return EXIT_INTERNAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cherednik",
        description="Exact modular Dunkl-operator kernel and Hilbert-series engine",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hilbert", help="compute the quotient Hilbert series")
    h.add_argument("--p", type=int, required=True)
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--t", type=int, required=True, choices=(0, 1))
    h.add_argument("--c", type=str, default=None, help="'generic' or a residue mod p")
    h.add_argument("--max-degree", type=_count, default=None)
    h.add_argument("--no-cache", action="store_true")
    h.add_argument("--cache-dir", type=str, default=None)
    h.add_argument("--dump-kernel", type=str, default=None)
    h.set_defaults(func=cmd_hilbert)

    ck = sub.add_parser("check", help="certify one polynomial")
    ck.add_argument("what", choices=("singular", "kernel", "stable"))
    ck.add_argument("--poly", type=str, required=True)
    ck.add_argument("--p", type=int, required=True)
    ck.add_argument("--n", type=int, default=None)
    ck.add_argument("--t", type=int, default=None, choices=(0, 1))
    ck.add_argument("--c", type=str, default=None)
    ck.add_argument("--experimental", action="store_true")
    ck.add_argument("--extra-above-bound", type=_count, default=0)
    ck.set_defaults(func=cmd_check)

    sw = sub.add_parser("sweep", help="grid of hilbert runs with CSV summary")
    sw.add_argument("--p-list", type=_prime_list, default=[])
    sw.add_argument("--n-list", type=_int_list, default=[])
    sw.add_argument("--t", type=int, required=True, choices=(0, 1))
    sw.add_argument("--c", type=str, default=None)
    sw.add_argument("--out", type=str, required=True)
    sw.add_argument("--max-degree", type=_count, default=None)
    sw.add_argument("--budget-seconds", type=_budget, default=None,
                    help="checked before each degree, so one degree can run past it")
    sw.add_argument("--cache-dir", type=str, default=None)
    sw.set_defaults(func=cmd_sweep)

    st = sub.add_parser("selftest", help="run the built-in property suites")
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "check" and args.what in ("singular", "kernel"):
        if args.n is None:
            ap.error("check singular/kernel needs --n")
        if args.experimental or args.extra_above_bound:
            ap.error("--experimental and --extra-above-bound apply only to check stable")
    elif args.command == "check" and (args.n is not None or args.c not in (None, "generic")):
        ap.error("check stable sweeps n itself at generic c: no --n, and no --c but generic")
    try:
        return args.func(args)
    except (ParseError,) as exc:
        _eprint(f"parse error: {exc}")
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        _eprint(f"internal error: {exc!r}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is pinned exactly (integer equality); expected runtimes
from the plan are reported but never asserted, so slow hardware cannot turn
a correct build red.
"""

import time

import pytest

from cherednik.fields import CoeffDomain
from cherednik.poly import parse_poly
from cherednik.dunkl import DunklContext, check_commutators, dunkl_difference
from cherednik.kernel import compute_graded_kernel, gram_oracle_kernel, is_in_kernel, is_singular
from cherednik.catalog import singular_catalog
from cherednik.series import (
    CongruenceData,
    baby_verma_series,
    closed_form_t0,
    closed_form_t1_p2,
    compare,
    computed_hilbert,
    conjectured_hilbert,
    shape_check_t1,
)
from cherednik.stability import (
    StabilityInstance,
    is_stably_in_kernel,
)
from cherednik.cli import _run_cell

T0_CELLS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 7), (5, 6)]

_kernel_cache = {}


def kernel_for(p, n, t):
    key = (p, n, t)
    if key not in _kernel_cache:
        _kernel_cache[key] = compute_graded_kernel(DunklContext.make(n=n, p=p, t=t))
    return _kernel_cache[key]


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_t0_exact_reproduction():
    times = {}
    for p, n in T0_CELLS:
        start = time.monotonic()
        series = computed_hilbert(kernel_for(p, n, 0))
        times[(p, n)] = time.monotonic() - start
        expected = closed_form_t0(n, p)
        assert series.coeffs == expected.coeffs, (p, n, series.coeffs, expected.coeffs)
    total = sum(times.values())
    _line(
        1,
        True,
        f"t=0 series equals [p]_z(1+(n-2)z+z^2) on {len(T0_CELLS)} cells "
        f"(total {total:.1f}s, max cell {max(times.values()):.1f}s)",
    )


def test_criterion_2_t0_graded_dimensions():
    for p, n in T0_CELLS:
        series = computed_hilbert(kernel_for(p, n, 0))
        if p == 2:
            expected = (1, n - 1, n - 1, 1)
        else:
            expected = (1, n - 1) + (n,) * (p - 2) + (n - 1, 1)
        assert series.coeffs == expected, (p, n, series.coeffs, expected)
        beyond = kernel_for(p, n, 0).degrees[p + 2].dim_l
        assert beyond == 0
    _line(2, True, "per-degree t=0 dimensions match the graded pattern on all cells")


def test_criterion_3_t1_p2_exact_reproduction():
    times = {}
    for n in (3, 5):
        start = time.monotonic()
        series = computed_hilbert(kernel_for(2, n, 1))
        times[n] = time.monotonic() - start
        assert series.coeffs == closed_form_t1_p2(n).coeffs, (n, series.coeffs)
    _line(
        3,
        True,
        f"t=1, p=2 series equals (1+z)^(n-1)(1+(n-1)z^2+(n-1)z^4+z^6) for "
        f"n=3,5 (n=5 in {times[5]:.1f}s)",
    )


@pytest.mark.stretch
def test_criterion_3_stretch_n7_exact():
    start = time.monotonic()
    gk = compute_graded_kernel(DunklContext.make(n=7, p=2, t=1))
    assert gk.completed
    series = computed_hilbert(gk)
    assert series.coeffs == closed_form_t1_p2(7).coeffs, series.coeffs
    _line(3, True, f"stretch: n=7 certified exact series matches the closed form ({time.monotonic() - start:.0f}s)")


def test_criterion_4_t1_degree_checkpoints():
    gk = kernel_for(2, 5, 1)
    dims = {d: v[2] for d, v in gk.dims().items()}
    expected = {2: 10, 4: 29, 5: 32, 10: 1, 11: 0}
    for d, want in expected.items():
        assert dims[d] == want, (d, dims[d], want)
    _line(
        4,
        True,
        "n=5 checkpoints dim L[2]=10, L[4]=29, L[5]=32, L[n+5]=1, L[n+6]=0",
    )


def test_criterion_5_singular_catalog():
    start = time.monotonic()
    checks = []

    def add(name, ok):
        checks.append((name, ok))

    for n in (5, 7):
        ctx = DunklContext.make(n=n, p=2, t=0)
        f = singular_catalog("quad_pair", {"i": 1, "j": 2}, ctx)
        add(f"quad_pair p=2 n={n}", is_singular(f, ctx))
    for p, n in [(3, 4), (3, 7), (5, 6)]:
        ctx = DunklContext.make(n=n, p=p, t=0)
        f = singular_catalog("skew_quad", {"i": 1, "j": 2, "k": 3}, ctx)
        add(f"skew_quad p={p} n={n}", is_singular(f, ctx))
    ctx34 = DunklContext.make(n=4, p=3, t=0)
    add(
        "cubic_pair p=3 n=4",
        is_in_kernel(singular_catalog("cubic_pair", {"i": 1, "j": 2}, ctx34), ctx34).member,
    )
    for p, n in [(3, 4), (5, 6)]:
        ctx = DunklContext.make(n=n, p=p, t=0)
        f = singular_catalog("power_pair", {"i": 1, "j": 2}, ctx)
        assert f.degree() == p
        add(f"power_pair p={p} n={n} (degree p)", is_in_kernel(f, ctx).member)
    ctx51 = DunklContext.make(n=5, p=2, t=1)
    add(
        "quartic_c_pair p=2 n=5",
        is_singular(singular_catalog("quartic_c_pair", {"i": 1, "j": 2}, ctx51), ctx51),
    )
    ctx42 = DunklContext.make(n=4, p=2, t=1)
    for i in (1, 2, 3):
        add(
            f"coeff_series p=2 n=4 i={i}",
            is_singular(singular_catalog("coeff_series", {"i": i}, ctx42), ctx42),
        )
    bad = [name for name, ok in checks if not ok]
    _line(
        5,
        not bad,
        f"{len(checks)} catalog certifications in {time.monotonic()-start:.1f}s"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_6_stability():
    start = time.monotonic()
    families = [
        "x1^6",
        "x1^5*x2^2*x3^2",
        "x1^4*x2^4",
        "x1^3*x2^3*x3^3",
        "x1^2*x2^2*x3^2*x4^2",
    ]
    for text in families:
        verdict = is_stably_in_kernel(StabilityInstance.from_text(text))
        assert verdict.stable, (text, verdict.to_json())
    rejected = is_stably_in_kernel(StabilityInstance.from_text("x1^5*x2"))
    assert not rejected.stable
    assert rejected.per_n[-1].witness is not None
    # the rejection residual, exactly: (D_{y1-y2})^3 x1^5 x2 = c(x1 x2^2 + x2^3)
    for n in (3, 5):
        ctx = DunklContext.make(n=n, p=2, t=1)
        g = parse_poly("x1^5*x2", n - 1, ctx.domain)
        for _ in range(3):
            g = dunkl_difference(g, 1, 2, ctx)
        assert g == parse_poly("(c)*x1*x2^2+(c)*x2^3", n - 1, ctx.domain)
    _line(
        6,
        True,
        f"five families stably in the kernel; x1^5*x2 rejected with exact "
        f"residual c(x1*x2^2+x2^3) ({time.monotonic()-start:.1f}s)",
    )


def test_criterion_7_property_suites():
    start = time.monotonic()
    # commutator identities across a (p, t, n) grid, >= 500 instances
    total = 0
    for p, t, n in [(2, 0, 3), (2, 0, 5), (3, 0, 4), (2, 1, 3), (2, 1, 5), (3, 1, 4)]:
        report = check_commutators(
            DunklContext.make(n=n, p=p, t=t), degree=3, trials=4, seed=17
        )
        assert report.ok, f"commutator failure at p={p} t={t} n={n}"
        total += report.checked
    assert total >= 500, total
    # recursive kernel vs Gram oracle on every criterion-1 cell
    for p, n in T0_CELLS:
        gk = kernel_for(p, n, 0)
        for d in range(1, gk.first_zero_degree + 1):
            rows, pivots = gram_oracle_kernel(d, DunklContext.make(n=n, p=p, t=0))
            kernel_rows, kernel_pivots = gk.kernel(d)
            assert rows == kernel_rows, (p, n, d)
            assert pivots == kernel_pivots, (p, n, d)
    # shape constraint on every t=1 run; baby Verma coefficientwise bound
    for p, n, t in [(2, 3, 1), (2, 5, 1)]:
        series = computed_hilbert(kernel_for(p, n, t))
        rep = shape_check_t1(series, n, p)
        assert rep.ok, (p, n, rep.message)
    for p, n in T0_CELLS:
        series = computed_hilbert(kernel_for(p, n, 0))
        bound = baby_verma_series(n, p, 0)
        assert all(
            series[d] <= bound[d] for d in range(max(series.degree(), bound.degree()) + 1)
        )
    for n in (3, 5):
        series = computed_hilbert(kernel_for(2, n, 1))
        bound = baby_verma_series(n, 2, 1)
        assert all(
            series[d] <= bound[d] for d in range(max(series.degree(), bound.degree()) + 1)
        )
    _line(
        7,
        True,
        f"{total} commutator identities, oracle equivalence on all 7 cells, "
        f"shape checks and quotient bounds clean ({time.monotonic()-start:.0f}s)",
    )


def test_criterion_8_conjecture_variant_report():
    start = time.monotonic()
    reports = []
    for p, n in [(3, 4), (2, 4)]:
        record = _run_cell(p, n, 1, "generic", None, budget_seconds=900)[0]
        assert record.status in ("ok", "exceeded_cap"), record.status
        if record.status == "exceeded_cap":
            reports.append(f"p={p} n={n}: exceeded cap (skipped)")
            continue
        both = record.conjecture
        assert set(both) == {"as_printed", "remark_consistent"}
        reports.append(
            f"p={p} n={n}: computed={record.series['coeffs']}, "
            f"as_printed match={both['as_printed']['match']}, "
            f"remark match={both['remark_consistent']['match']}"
        )
    _line(
        8,
        True,
        "; ".join(reports) + f" ({time.monotonic()-start:.0f}s, cap 900s)",
    )

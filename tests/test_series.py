import itertools
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cherednik
from cherednik import kernel
from cherednik.dunkl import DunklContext
from cherednik.kernel import compute_graded_kernel
from cherednik.series import (
    CongruenceData,
    IncompleteSeriesError,
    Series,
    _poly_divide_exact,
    _poly_mul,
    _trim,
    baby_verma_series,
    closed_form_t0,
    closed_form_t1_p2,
    compare,
    computed_hilbert,
    conjectured_hilbert,
    q_bracket,
    q_factorial,
    q_r_polynomial,
    shape_check_t1,
)


def test_q_bracket_values():
    assert q_bracket(3).coeffs == (1, 1, 1)
    assert q_bracket(0).coeffs == ()
    assert q_factorial(0).coeffs == (1,)
    assert q_factorial(3).coeffs == (1, 2, 2, 1)


def test_series_power():
    assert Series((1, 1)).pow(3).coeffs == (1, 3, 3, 1)
    assert Series((1, -1)).pow(2).coeffs == (1, -2, 1)
    assert q_bracket(3).pow(0).coeffs == (1,)
    assert q_bracket(2).pow(1) == q_bracket(2)


def test_q_r_polynomial_values():
    assert q_r_polynomial(CongruenceData.of(5, 2)).coeffs == (1, 3, 1)
    assert q_r_polynomial(CongruenceData.of(6, 2)).coeffs == (1,)  # r = 0
    assert q_r_polynomial(CongruenceData.of(7, 3)).coeffs == (1, 5, 1)


def test_congruence_decomposition():
    cong = CongruenceData.of(11, 3)
    assert (cong.k, cong.r) == (3, 2)
    with pytest.raises(ValueError):
        CongruenceData(n=5, p=2, k=1, r=3)


def test_conjecture_t0_matches_closed_form():
    for p, n in [(2, 5), (3, 7), (5, 6)]:
        cong = CongruenceData.of(n, p)
        assert conjectured_hilbert(cong, 0).coeffs == closed_form_t0(n, p).coeffs


def test_conjecture_t1_variants_coincide_for_p2():
    cong = CongruenceData.of(5, 2)
    a = conjectured_hilbert(cong, 1, "as_printed")
    b = conjectured_hilbert(cong, 1, "remark_consistent")
    assert a.coeffs == b.coeffs == closed_form_t1_p2(5).coeffs


def test_conjecture_t1_variants_differ_for_odd_p():
    cong = CongruenceData.of(4, 3)
    a = conjectured_hilbert(cong, 1, "as_printed")
    b = conjectured_hilbert(cong, 1, "remark_consistent")
    assert a.coeffs != b.coeffs
    # they differ exactly by the factor 1 + z^3
    assert a.coeffs == b.mul(Series((1, 0, 0, 1))).coeffs


def test_conjecture_t0_degree_and_leading_coefficient():
    for p, n in [(2, 5), (3, 4), (5, 6), (3, 7)]:
        s = conjectured_hilbert(CongruenceData.of(n, p), 0)
        assert s.degree() == p + 1
        assert s.coeffs[-1] == 1


def test_baby_verma_values():
    assert baby_verma_series(3, 2, 0).coeffs == (1, 2, 2, 1)
    assert baby_verma_series(2, 5, 0).coeffs == (1, 1)
    for n, p, t in [(3, 2, 0), (4, 3, 0), (3, 2, 1), (4, 3, 1), (5, 2, 1)]:
        assert baby_verma_series(n, p, t).coeffs[0] == 1


def test_computed_hilbert_values():
    gk = compute_graded_kernel(DunklContext.make(n=5, p=2, t=0))
    assert computed_hilbert(gk).coeffs == (1, 4, 4, 1)
    gk34 = compute_graded_kernel(DunklContext.make(n=4, p=3, t=0))
    assert computed_hilbert(gk34).coeffs == (1, 3, 4, 3, 1)
    gk13 = compute_graded_kernel(DunklContext.make(n=3, p=2, t=1))
    assert computed_hilbert(gk13).coeffs == (1, 2, 3, 4, 4, 4, 3, 2, 1)


def test_computed_hilbert_incomplete_raises():
    gk = compute_graded_kernel(DunklContext.make(n=5, p=2, t=1), max_degree=4)
    assert not gk.completed
    with pytest.raises(IncompleteSeriesError) as exc:
        computed_hilbert(gk)
    assert exc.value.partial_dims


def test_budget_stop_returns_the_unfinished_kernel(monkeypatch):
    # a kernel clock that moves one second per reading: a 2.5 s budget runs
    # out at the check before degree 3, once degrees 1 and 2 are finished
    ticks = itertools.count()
    monkeypatch.setattr(
        kernel, "time", SimpleNamespace(monotonic=lambda: next(ticks), perf_counter=time.perf_counter)
    )
    gk = compute_graded_kernel(DunklContext.make(n=5, p=2, t=1), budget_seconds=2.5)
    assert gk.completed is False
    assert sorted(gk.dims()) == [0, 1, 2]
    with pytest.raises(IncompleteSeriesError) as exc:
        computed_hilbert(gk)
    assert exc.value.partial_dims == {d: v[2] for d, v in gk.dims().items()}


def test_shape_check_examples():
    assert shape_check_t1(closed_form_t1_p2(5), 5, 2).inner.coeffs == (1, 4, 4, 1)
    assert shape_check_t1(closed_form_t1_p2(3), 3, 2).inner.coeffs == (1, 2, 2, 1)
    # the p | n regime has inner polynomial 1
    lead = Series((1,))
    for _ in range(3):
        lead = lead.mul(q_bracket(2))
    assert shape_check_t1(lead, 4, 2).inner.coeffs == (1,)


def test_shape_check_failures():
    bad = Series((1, 1, 1))  # not divisible by (1+z)^4
    rep = shape_check_t1(bad, 5, 2)
    assert not rep.ok and rep.inner is None
    odd_support = Series(q_bracket(2).mul(Series((1, 1))).coeffs)  # (1+z)^2 -> q=1+z
    rep2 = shape_check_t1(odd_support, 2, 2)
    assert not rep2.ok


def test_compare():
    a = Series((1, 4, 4, 1))
    assert compare(a, a).equal
    v = compare(a, Series((1, 4, 5, 1)))
    assert not v.equal and v.first_mismatch == 2
    assert (v.computed_value, v.predicted_value) == (4, 5)
    assert not compare(a, Series((1, 4, 4))).equal


def test_total_dimension_and_palindromicity_t0():
    for p, n in [(2, 5), (3, 4)]:
        gk = compute_graded_kernel(DunklContext.make(n=n, p=p, t=0))
        s = computed_hilbert(gk)
        assert sum(s.coeffs) == p * n
        assert s.coeffs == tuple(reversed(s.coeffs))


def test_coefficientwise_baby_verma_bound():
    for p, n, t in [(2, 5, 0), (3, 4, 0), (2, 3, 1), (2, 5, 1)]:
        gk = compute_graded_kernel(DunklContext.make(n=n, p=p, t=t))
        s = computed_hilbert(gk)
        nt = baby_verma_series(n, p, t)
        assert all(s[d] <= nt[d] for d in range(max(s.degree(), nt.degree()) + 1))


def reference_divide_exact(num, den):
    """Exact division by repeated subtraction of the remainder's lead, the
    division series.py used before its top-down loop; None if inexact."""
    num = list(num)
    den = list(_trim(den))
    q = [0] * max(0, len(num) - len(den) + 1)
    while _trim(num):
        tn = _trim(num)
        if len(tn) < len(den) or tn[-1] % den[-1]:
            return None
        coef, sh = tn[-1] // den[-1], len(tn) - len(den)
        q[sh] = coef
        num = list(tn)
        for i, x in enumerate(den):
            num[sh + i] -= coef * x
    return _trim(q)


def reference_baby_verma(n, p, t):
    """The printed quotient (1-z^{2s})...(1-z^{ns}) / (1-z)^{n-1}, divided exactly."""
    step = p if t == 1 else 1
    num = (1,)
    for j in range(2, n + 1):
        num = _poly_mul(num, (1,) + (0,) * (j * step - 1) + (-1,))
    q = reference_divide_exact(num, Series((1, -1)).pow(n - 1).coeffs)
    assert q is not None and min(q) >= 0
    return q


def reference_conjecture(cong, t, variant):
    """The conjectures with each factor substituted z -> z^p on its own."""
    p, r, n = cong.p, cong.r, cong.n
    h0 = q_factorial(r).mul(q_bracket(p)).mul(q_r_polynomial(cong))
    if t == 0:
        return h0.coeffs, f"[{r}]_z! * [{p}]_z * Q_{r}({n},z)"
    lead = q_bracket(p).pow(n - 1)
    if variant == "remark_consistent":
        return lead.mul(h0.substitute_power(p)).coeffs, f"[{p}]_z^{n-1} * h0(z^{p})"
    inner = (
        q_factorial(r).substitute_power(p)
        .mul(q_factorial(p).substitute_power(p))
        .mul(q_r_polynomial(cong).substitute_power(p))
    )
    return lead.mul(inner).coeffs, f"[{p}]_z^{n-1} * [{r}]_zp! * [{p}]_zp! * Q_{r}({n},z^p)"


CELLS = [(n, p, t) for n in range(2, 13) for p in (2, 3, 5, 7, 11) for t in (0, 1)]


@pytest.mark.parametrize("n,p,t", CELLS)
def test_products_equal_the_printed_formulas(n, p, t):
    assert baby_verma_series(n, p, t) == Series(reference_baby_verma(n, p, t), "baby_verma")
    cong = CongruenceData.of(n, p)
    for variant in ("remark_consistent", "as_printed"):
        coeffs, label = reference_conjecture(cong, t, variant)
        assert conjectured_hilbert(cong, t, variant) == Series(coeffs, f"conjecture_{variant}", label)


polys = st.lists(st.integers(-9, 9), max_size=8)


@settings(max_examples=300, deadline=None)
@given(a=polys, b=polys.filter(any), r=polys)
def test_poly_divide_exact_undoes_mul(a, b, r):
    b = _trim(b)
    prod = _poly_mul(a, b)
    assert _poly_divide_exact(prod, b) == _trim(a)
    # a nonzero remainder of lower degree than b leaves a non-multiple
    rem = _trim(r[: len(b) - 1])
    num = [x + y for x, y in itertools.zip_longest(prod, rem, fillvalue=0)]
    assert _poly_divide_exact(num, b) == (None if rem else _trim(a))


@settings(max_examples=300, deadline=None)
@given(num=polys, den=polys.filter(any))
def test_poly_divide_exact_agrees_with_the_reference(num, den):
    assert _poly_divide_exact(num, den) == reference_divide_exact(num, den)


def test_as_printed_builds_at_large_p_in_a_fresh_interpreter():
    # with each factor substituted on its own, the dense [71]_z^2 ran over
    # every zero of [71]_{z^71}!: 3.7 s on one Intel Xeon core; the digest is
    # that build's coefficients
    code = (
        "import hashlib, time; from cherednik.series import CongruenceData, conjectured_hilbert; "
        "t = time.perf_counter(); s = conjectured_hilbert(CongruenceData.of(3, 71), 1, 'as_printed'); "
        "print(time.perf_counter() - t, hashlib.sha256(','.join(map(str, s.coeffs)).encode()).hexdigest())"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(cherednik.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seconds, digest = proc.stdout.split()
    assert digest == "7a713ccf184e9b7900ce17f6b0d6b55e2dad8bd5ddbc3f4c6e2d2ecb2d3a41f6"
    assert float(seconds) < 2.0

import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cherednik
from cherednik.fields import (
    CoeffDomain,
    DomainMismatchError,
    GF2X,
    GFPX,
    _digits,
    _primitive_code,
    point_field,
)
from cherednik.poly import ReducedPoly


def test_char2_value_add():
    dom = CoeffDomain.prime(2)
    one = dom.from_int(1)
    assert dom.is_zero(dom.add(one, one))


def test_generic_inverse_pair():
    dom = CoeffDomain.generic(2)
    c = dom.c_scalar()
    a = dom.div(c, dom.add(c, dom.one))
    b = dom.div(dom.add(c, dom.one), c)
    assert dom.mul(a, b) == dom.one


def test_generic_reduction_by_hand_p3():
    # (c^2 - 1)/(c + 1) reduces to c - 1 = c + 2 over F_3
    dom = CoeffDomain.generic(3)
    num = dom.from_c_poly((-1, 0, 1))
    den = dom.from_c_poly((1, 1))
    got = dom.div(num, den)
    assert got == dom.from_c_poly((2, 1))


def test_division_by_zero():
    for dom in (CoeffDomain.prime(2), CoeffDomain.generic(2)):
        with pytest.raises(ZeroDivisionError):
            dom.div(dom.one, dom.zero)


def test_domain_mismatch():
    a = ReducedPoly.constant(CoeffDomain.prime(2), 2, 1)
    b = ReducedPoly.constant(CoeffDomain.prime(3), 2, 1)
    with pytest.raises(DomainMismatchError):
        a.add(b)


@st.composite
def generic_scalar(draw, p):
    dom = CoeffDomain.generic(p)
    num = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    den = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    nv = dom.ring.from_coeffs(num)
    dv = dom.ring.from_coeffs(den)
    if dv == dom.ring.zero:
        dv = dom.ring.one
    return dom.make(nv, dv)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=334, deadline=None)
@given(data=st.data())
def test_field_axioms(p, data):
    dom = CoeffDomain.generic(p)
    a = data.draw(generic_scalar(p))
    b = data.draw(generic_scalar(p))
    c = data.draw(generic_scalar(p))
    assert dom.mul(a, dom.add(b, c)) == dom.add(dom.mul(a, b), dom.mul(a, c))
    assert dom.add(dom.add(a, b), c) == dom.add(a, dom.add(b, c))
    assert dom.mul(dom.mul(a, b), c) == dom.mul(a, dom.mul(b, c))
    if not dom.is_zero(a):
        assert dom.mul(a, dom.inv(a)) == dom.one


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fraction_canonical_form(p, data):
    # normalize(a*g / b*g) == a/b for random nonzero g
    dom = CoeffDomain.generic(p)
    a = data.draw(generic_scalar(p))
    g_coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    g = dom.ring.from_coeffs(g_coeffs)
    if g == dom.ring.zero:
        g = dom.ring.one
    num, den = a
    scaled = dom.make(dom.ring.mul(num, g), dom.ring.mul(den, g))
    assert scaled == a


def test_gf2x_ops():
    # (c+1)^2 = c^2+1 over F_2
    a = GF2X.from_coeffs((1, 1))
    assert GF2X.mul(a, a) == GF2X.from_coeffs((1, 0, 1))
    q, r = GF2X.divmod(GF2X.from_coeffs((1, 0, 1)), a)
    assert q == a and r == 0
    assert GF2X.gcd(GF2X.from_coeffs((1, 0, 1)), a) == a


def test_gfpx_monic_gcd():
    R = GFPX(5)
    a = R.mul(R.from_coeffs((2, 1)), R.from_coeffs((3, 4)))
    g = R.gcd(a, R.from_coeffs((2, 1)))
    # gcd is monic: x + 2 is the monic scaling of (2 + x)... (2,1) is monic
    assert g == R.from_coeffs((2, 1))


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        CoeffDomain.prime(4)
    with pytest.raises(ValueError):
        CoeffDomain.generic(6)


# The j-th primitive modulus of each table field, as a code: every evaluation
# point of F_p(c), so every point count, kernel digest and certificate
# depends on them.  The values were computed by the first search written.
PRIMITIVE_CODES = {
    2: (45, 57, 63),
    3: (32, 62, 128),
    5: (7, 13, 18),
    7: (11, 16, 37),
    13: (184, 188, 206),
    37: (50, 52, 59),
    127: (130, 139, 156),
    131: (145, 162, 198),
    251: (270, 277, 281),
    257: (3, 5, 6),
    65521: (17, 29, 34),
}


@pytest.mark.parametrize("p", list(PRIMITIVE_CODES))
def test_primitive_codes_are_pinned(p):
    assert tuple(_primitive_code(p, j) for j in range(3)) == PRIMITIVE_CODES[p]


def reference_tables(F):
    """exp (doubled) and log of F_p[c]/(m), one element at a time: c * v shifts
    the digits up and adds top * (c^k mod m) digitwise, read from tables over
    the low h and the high k - h digits."""
    p, k, h, order = F.p, F.k, F.k // 2, F.order

    def digitwise_sums(w):
        return [
            sum((d + e) % p * p**i for i, (d, e) in enumerate(zip(_digits(x, p, len(w)), w)))
            for x in range(p ** len(w))
        ]

    neg_m = [(-a) % p for a in F.ring.coeffs(F.modulus)[:k]]
    low = [digitwise_sums([t * a % p for a in neg_m[:h]]) for t in range(p)]
    high = [digitwise_sums([t * a % p for a in neg_m[h:]]) for t in range(p)]
    top_weight, split = p ** (k - 1), p**h
    exp, log = array("H", bytes(4 * order)), array("H", bytes(2 * (order + 1)))
    code = 1
    for i in range(order):
        exp[i] = exp[i + order] = code
        log[code] = i
        top, rest = divmod(code, top_weight)
        rest *= p
        code = low[top][rest % split] + split * high[top][rest // split]
    return exp, log


@pytest.mark.parametrize(
    "p, j", [(p, 0) for p in PRIMITIVE_CODES if p <= 257] + [(2, 1), (3, 1)]
)
def test_bulk_tables_match_the_element_by_element_build(p, j):
    F = point_field(p, j)
    exp, log = reference_tables(F)
    assert F._exp == exp
    assert F._log == log


@pytest.mark.parametrize("p", [4099, 65521])
def test_prime_field_tables_build_in_linear_time(p):
    # one element at a time, with p tables of p entries each, the build took
    # about half a minute at p = 4099 and would take hours at p = 65521; a
    # fresh interpreter times it, so a slow build fails here and not below
    code = (
        "import time; from cherednik.fields import point_field; "
        f"t = time.perf_counter(); point_field({p}, 0); print(time.perf_counter() - t)"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(cherednik.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0
    # at k = 1 the modulus is c + m_0, so exp lists the powers of the root -m_0
    F = point_field(p, 0)
    g = -F.ring.coeffs(F.modulus)[0] % p
    assert F.k == 1 and len(F._exp) == 2 * (p - 1) and len(F._log) == p
    power = 1
    for i in range(2 * (p - 1)):
        assert F._exp[i] == power
        power = power * g % p
    assert all(F._exp[F._log[x]] == x for x in range(1, p))
    assert sorted(F._log[1:]) == list(range(p - 1))

import pytest
from hypothesis import given, settings, strategies as st

from cherednik.fields import (
    CoeffDomain,
    DomainMismatchError,
    GF2X,
    GFPX,
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

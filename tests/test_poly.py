import random

import pytest
from hypothesis import given, settings, strategies as st

from cherednik.fields import CoeffDomain
from cherednik.poly import (
    ParseError,
    ReducedPoly,
    format_poly,
    format_row,
    monomial_index,
    monomial_name,
    monomials_of_degree,
    parse_poly,
    random_homogeneous,
)


@pytest.fixture
def f2():
    return CoeffDomain.prime(2)


def test_cube_identity_p2(f2):
    # (x1+x2)(x1^2+x1x2+x2^2) = x1^3+x2^3 over F_2
    a = parse_poly("x1+x2", 4, f2)
    b = parse_poly("x1^2+x1*x2+x2^2", 4, f2)
    assert a.mul(b) == parse_poly("x1^3+x2^3", 4, f2)


def test_additive_identity(f2):
    f = parse_poly("x1^2+x2^2", 3, f2)
    assert f.add(ReducedPoly.zero(f2, 3)) == f


def test_difference_of_squares_p3():
    dom = CoeffDomain.prime(3)
    got = parse_poly("x1-x2", 2, dom).mul(parse_poly("x1+x2", 2, dom))
    assert got == parse_poly("x1^2+2*x2^2", 2, dom)


def test_slot_count_mismatch(f2):
    f = parse_poly("x1", 2, f2)
    g = parse_poly("x1", 3, f2)
    with pytest.raises(ValueError):
        f.add(g)


def test_parse_examples(f2):
    f = parse_poly("x1^2+x1*x2+x2^2", 4, f2)
    assert f.degree() == 2 and len(f.terms) == 3
    dom = CoeffDomain.generic(2)
    g = parse_poly("(c+1)*x1", 3, dom)
    assert len(g.terms) == 1
    assert format_poly(g) == "(c+1)*x1"


def test_parse_out_of_range(f2):
    with pytest.raises(ParseError):
        parse_poly("x5", 3, f2)  # n = 4 has slots x1..x3
    with pytest.raises(ParseError):
        parse_poly("x0", 3, f2)


def test_parse_malformed_coefficient(f2):
    with pytest.raises((ParseError, ValueError)):
        parse_poly("(c+)*x1", 3, CoeffDomain.generic(2))


F3, F3C = CoeffDomain.prime(3), CoeffDomain.generic(3)


@pytest.mark.parametrize(
    "text,domain,expected",
    [
        # coefficients, powers and signs
        ("(1/(c+1))*x1", F3C, "((1)/(c+1))*x1"),
        ("-(c)*x1", F3C, "(2*c)*x1"),
        ("c^2^2*x1", F3C, "(c^4)*x1"),
        ("x1^0", F3C, "1"),
        ("0*x1", F3C, "0"),
        ("x1--x2", F3C, "x1+x2"),
        # a sign after '*' negates its factor, not the rest of the text
        ("x1*-1", F3, "2*x1"),
        ("2*-c*x1", F3C, "(c)*x1"),
        # ordinary expressions
        ("(x1+x2)*x3", F3C, "x1*x3+x2*x3"),
        ("(x1+x2)^3", F3, "x1^3+x2^3"),
        ("x1/2", F3, "2*x1"),
        # malformed
        ("x1+", F3C, ParseError),
        ("x1-", F3C, ParseError),
        ("x1*", F3C, ParseError),
        ("*x1", F3C, ParseError),
        ("x1**x2", F3C, ParseError),
        ("x1^", F3C, ParseError),
        ("()", F3C, ParseError),
        ("x1x2", F3C, ParseError),
        ("2x1", F3C, ParseError),
        ("x1(c)", F3C, ParseError),
        ("(2)(3)*x1", F3C, ParseError),
        ("x1/x2", F3C, ParseError),
        ("(1/0)*x1", F3C, ParseError),
        ("", F3C, ParseError),
        ("x0", F3C, ParseError),
        ("x4", F3C, ParseError),
        # a constant term is its bare coefficient, last in the term order
        ("x1+2+c", F3C, "x1+(c+2)"),
        ("x2-1", F3, "x2+2"),
        ("c/(c+1)+x1^2", F3C, "x1^2+((c)/(c+1))"),
    ],
)
def test_parse_table(text, domain, expected):
    if expected is ParseError:
        with pytest.raises(ParseError):
            parse_poly(text, 3, domain)
    else:
        assert format_poly(parse_poly(text, 3, domain)) == expected


def test_monomial_order_graded_lex_descending():
    monos = monomials_of_degree(3, 2)
    assert monos[0] == (2, 0, 0)
    assert list(monos) == sorted(monos, reverse=True)


@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [-1, -2])
def test_no_monomial_of_negative_degree(nvars, d):
    # one variable used to give ((d,),), an exponent tuple that is no monomial
    assert monomials_of_degree(nvars, d) == ()
    assert monomial_index(nvars, d) == {}


@pytest.mark.parametrize("p,mode", [(2, "generic"), (3, "generic"), (5, "value")])
@settings(max_examples=167, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_parse_format_roundtrip(p, mode, seed):
    rng = random.Random(seed)
    dom = CoeffDomain.generic(p) if mode == "generic" else CoeffDomain.prime(p)
    f = random_homogeneous(dom, 3, rng.randint(0, 4), rng, max_terms=5)
    assert parse_poly(format_poly(f), 3, dom) == f


@pytest.mark.parametrize("p,mode", [(2, "generic"), (3, "generic"), (5, "value")])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_format_row_matches_format_poly(p, mode, seed):
    rng = random.Random(seed)
    dom = CoeffDomain.generic(p) if mode == "generic" else CoeffDomain.prime(p)
    d = rng.randint(0, 4)
    f = random_homogeneous(dom, 3, d, rng, max_terms=6)
    if rng.random() < 0.5:  # fractions in c, or a unit other than 1 over F_p
        den = dom.from_c_poly([rng.randrange(p), 1]) if mode == "generic" else dom.from_int(rng.randrange(1, p))
        f = f.scalar_mul(dom.inv(den))
    idx, names, prefixes = monomial_index(3, d), [monomial_name(m) for m in monomials_of_degree(3, d)], {}
    for g in (f, f.neg()):  # one prefix memo serves both rows
        items = [(idx[m], v) for m, v in g.terms.items()]
        rng.shuffle(items)  # the row's key order must not matter
        assert format_row(dom, dict(items), names, prefixes) == format_poly(g)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), d1=st.integers(0, 3), d2=st.integers(0, 3))
def test_homogeneity_preserved(seed, d1, d2):
    rng = random.Random(seed)
    dom = CoeffDomain.prime(3)
    f = random_homogeneous(dom, 3, d1, rng)
    g = random_homogeneous(dom, 3, d2, rng)
    prod = f.mul(g)
    if not prod.is_zero():
        assert prod.degree() == d1 + d2
    h = random_homogeneous(dom, 3, d1, rng)
    s = f.add(h)
    if not s.is_zero():
        assert s.degree() == d1

import random

import pytest
from hypothesis import given, settings, strategies as st

from cherednik.fields import CoeffDomain
from cherednik.poly import ReducedPoly, format_poly, parse_poly, random_homogeneous
from cherednik.action import (
    Transposition,
    apply_transposition,
    divided_difference,
    lift,
    reduce_last,
)


def test_slot_swap():
    dom = CoeffDomain.prime(2)
    f = parse_poly("x1^2*x2", 3, dom)
    assert apply_transposition(f, Transposition(1, 2), 4) == parse_poly(
        "x1*x2^2", 3, dom
    )


def test_substitution_n3_p2():
    dom = CoeffDomain.prime(2)
    f = parse_poly("x1", 2, dom)
    assert apply_transposition(f, Transposition(1, 3), 3) == parse_poly(
        "x1+x2", 2, dom
    )


def test_transposition_requires_distinct():
    with pytest.raises(ValueError):
        Transposition(2, 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_involution(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    dom = CoeffDomain.prime(p)
    n = rng.randint(3, 5)
    f = random_homogeneous(dom, n - 1, rng.randint(0, 4), rng)
    i = rng.randint(1, n)
    j = rng.randint(1, n)
    if i == j:
        j = 1 + (j % n)
        if i == j:
            return
    s = Transposition(i, j)
    assert apply_transposition(apply_transposition(f, s, n), s, n) == f


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_transposition_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    dom = CoeffDomain.prime(3)
    n = 4
    f = random_homogeneous(dom, n - 1, rng.randint(0, 3), rng)
    g = random_homogeneous(dom, n - 1, rng.randint(0, 3), rng)
    s = Transposition(rng.randint(1, n - 1), n)
    lhs = apply_transposition(f.mul(g), s, n)
    rhs = apply_transposition(f, s, n).mul(apply_transposition(g, s, n))
    assert lhs == rhs


def test_geometric_sum_example():
    dom = CoeffDomain.prime(5)
    f = parse_poly("x1^3", 3, dom)
    assert divided_difference(f, 1, 2, 4) == parse_poly("x1^2+x1*x2+x2^2", 3, dom)


def test_symmetric_input_gives_zero():
    dom = CoeffDomain.prime(3)
    f = parse_poly("x1*x2", 3, dom)
    assert divided_difference(f, 1, 2, 4).is_zero()


def test_substitution_path_hand_value():
    dom = CoeffDomain.prime(2)
    f = parse_poly("x1^2", 2, dom)
    assert divided_difference(f, 1, 3, 3) == parse_poly("x2", 2, dom)


def test_degree_zero_returns_zero():
    dom = CoeffDomain.prime(2)
    f = ReducedPoly.constant(dom, 3, 1)
    assert divided_difference(f, 1, 2, 4).is_zero()


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_divided_difference_times_difference_recovers(seed):
    # (x_i - x_k) * dd(f) == f - s f, checked in the lifted n-variable ring
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    dom = CoeffDomain.prime(p)
    n = rng.randint(3, 5)
    d = rng.randint(1, 4)
    f = random_homogeneous(dom, n - 1, d, rng)
    i = rng.randint(1, n - 1)
    k = rng.randint(i + 1, n)
    dd = divided_difference(f, i, k, n)
    s = Transposition(i, k)
    target = f.sub(apply_transposition(f, s, n))
    xi = ReducedPoly.variable(dom, n, i)
    xk = (
        ReducedPoly.variable(dom, n, k)
        if k < n
        else ReducedPoly.variable(dom, n, n)
    )
    lifted = lift(dd).mul(xi.sub(xk))
    assert reduce_last(lifted) == target


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_closed_form_agrees_with_lift_divide(seed):
    rng = random.Random(seed)
    dom = CoeffDomain.prime(rng.choice([2, 3, 5]))
    n = rng.randint(3, 5)
    f = random_homogeneous(dom, n - 1, rng.randint(1, 4), rng)
    i = rng.randint(1, n - 2)
    k = rng.randint(i + 1, n - 1)
    a = divided_difference(f, i, k, n, method="closed")
    b = divided_difference(f, i, k, n, method="lift")
    assert a == b

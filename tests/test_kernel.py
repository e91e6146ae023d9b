import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cherednik import linalg
from cherednik.fields import CoeffDomain, Scalar
from cherednik.poly import ReducedPoly, monomials_of_degree, parse_poly, random_homogeneous
from cherednik.dunkl import DunklContext, reduce_raw
from cherednik.series import baby_verma_series, computed_hilbert
from cherednik.kernel import (
    GradedKernel,
    _canonical,
    _pairings,
    _walk,
    compute_graded_kernel,
    contravariant_pairing,
    dunkl_columns,
    dunkl_matrices,
    gram_oracle_kernel,
    gram_rows,
    is_in_kernel,
    is_singular,
    kernel_at_degree,
    ResourceLimitError,
    slot_symmetry_classes,
)


def ctx_of(n, p, t, c=None):
    return DunklContext.make(n=n, p=p, t=t, c=c)


def dims_list(gk):
    dd = gk.dims()
    return [dd[d][2] for d in sorted(dd)]


def test_pairing_on_constants():
    ctx = ctx_of(3, 2, 0)
    one = ReducedPoly.constant(ctx.domain, 2, 1)
    assert contravariant_pairing((0, 0), one, ctx).value == 1


def test_pairing_degree_one():
    # B(y_1 - y_3, x_1) = 1 and B(y_1 - y_3, x_2) = 0 at p=2, t=0, n=3
    ctx = ctx_of(3, 2, 0)
    x1 = parse_poly("x1", 2, ctx.domain)
    x2 = parse_poly("x2", 2, ctx.domain)
    assert contravariant_pairing((1, 0), x1, ctx).value == 1
    assert contravariant_pairing((1, 0), x2, ctx).value == 0
    with pytest.raises(ValueError):
        contravariant_pairing((1, 0), ReducedPoly.constant(ctx.domain, 2, 1), ctx)


def test_b_of_one_xi_vanishes():
    ctx = ctx_of(4, 3, 0)
    # degree mismatch forbids B(1, x_i) directly; the constant term is 0
    x1 = parse_poly("x1", 3, ctx.domain)
    assert ctx.domain.is_zero(x1.constant_term())


@pytest.mark.parametrize(
    "p,n,t,expected",
    [
        (2, 5, 0, [1, 4, 4, 1, 0]),
        (3, 4, 0, [1, 3, 4, 3, 1, 0]),
        (2, 3, 1, [1, 2, 3, 4, 4, 4, 3, 2, 1, 0]),
    ],
)
def test_known_quotient_dimensions(p, n, t, expected):
    gk = compute_graded_kernel(ctx_of(n, p, t))
    assert gk.completed
    assert dims_list(gk) == expected


def test_kernel_degree_two_dimensions_p2_n5():
    gk = compute_graded_kernel(ctx_of(5, 2, 0))
    # dim ker B[2] = C(4,2) = 6 spanned by the quadratic singular family
    assert gk.degrees[2].dim_kernel == 6
    assert gk.degrees[2].dim_l == 4


def test_t1_degree_four_checkpoint():
    gk = compute_graded_kernel(ctx_of(5, 2, 1))
    assert gk.degrees[4].dim_l == 29  # C(7,4) - C(4,2)


def test_kernel_at_degree_wrapper():
    ctx = ctx_of(5, 2, 0)
    gk = GradedKernel(ctx)
    basis = kernel_at_degree(2, gk, ctx)
    assert len(basis) == 6
    assert all(b.degree() == 2 for b in basis)
    with pytest.raises(ValueError):
        kernel_at_degree(0, gk, ctx)


@pytest.mark.parametrize(
    "p,n,t,dmax", [(2, 3, 0, 6), (2, 3, 1, 6), (3, 4, 0, 6), (3, 4, 1, 6)]
)
def test_oracle_equivalence_small(p, n, t, dmax):
    ctx = ctx_of(n, p, t)
    gk = GradedKernel(ctx)
    for d in range(1, dmax + 1):
        data = gk.compute_degree(d)
        rows, pivots = gram_oracle_kernel(d, ctx)
        assert rows == data.kernel_rows
        assert pivots == data.kernel_pivots


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
@pytest.mark.parametrize("n", [3, 4])
def test_large_p_matches_the_oracle_and_the_baby_verma_series(p, n):
    # the core's tables are bounded by n and the exponent width, not by p, and
    # compose packs F_p entries wide enough that sums never carry across rows
    ctx = ctx_of(n, p, 0)
    gk = compute_graded_kernel(ctx)
    for d in range(1, max(gk.degrees) + 1):
        assert gram_oracle_kernel(d, ctx) == (gk.degrees[d].kernel_rows, gk.degrees[d].kernel_pivots)
    assert computed_hilbert(gk).coeffs == baby_verma_series(n, p, 0).coeffs


@pytest.mark.slow
def test_oracle_equivalence_t1_n5():
    ctx = ctx_of(5, 2, 1)
    gk = GradedKernel(ctx)
    for d in range(1, 7):
        data = gk.compute_degree(d)
        rows, pivots = gram_oracle_kernel(d, ctx)
        assert rows == data.kernel_rows
        assert pivots == data.kernel_pivots


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    t=st.sampled_from([0, 1]),
    n=st.integers(3, 5),
    d=st.integers(1, 4),
    c=st.one_of(st.just("generic"), st.integers(0, 4)),
    seed=st.integers(0, 10**9),
)
def test_gram_recursion_matches_pairing_tree(p, t, n, d, c, seed):
    # G_d[a][m] from the degree recursion against the tree of iterated images
    rng = random.Random(seed)
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    dom, adapter = ctx.domain, linalg.RingAdapter(ctx.domain)
    monos = monomials_of_degree(n - 1, d)
    gram = gram_rows(d, ctx)
    assert len(gram) == len(monos) and all(len(row) == len(monos) for row in gram)
    for k in rng.sample(range(len(monos)), min(3, len(monos))):
        tree = _pairings(ReducedPoly(dom, n - 1, {monos[k]: dom.one}), d, ctx)
        for a, row in zip(monos, gram):
            assert adapter.scalar_div(row[k], adapter.one) == tree.get(a, dom.zero), (a, monos[k])


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    t=st.sampled_from([0, 1]),
    n=st.integers(3, 6),
    d=st.integers(1, 4),
    c=st.one_of(st.just("generic"), st.integers(0, 4)),
)
def test_dunkl_matrices_follow_the_slot_symmetry(p, t, n, d, c):
    # D_i re-indexed from D_1 by s = (1 i) against dunkl_z run on every slot
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    assert list(dunkl_matrices(d, ctx)) == [dunkl_columns(d, i, ctx) for i in range(1, n)]


def test_gram_oracle_degree_zero_and_limit():
    ctx = ctx_of(5, 2, 0)
    assert gram_oracle_kernel(0, ctx) == ([], [])
    with pytest.raises(ResourceLimitError):
        gram_oracle_kernel(6, ctx, max_pairings=10)


def test_ideal_property_and_invariance():
    rng = random.Random(3)
    for p, n, t in [(2, 5, 0), (3, 4, 0), (2, 3, 1)]:
        gk = compute_graded_kernel(ctx_of(n, p, t))
        for d in range(1, gk.first_zero_degree):
            assert gk.check_ideal_property(d)
        pairs = [(1, 2), (rng.randint(1, n - 1), n)]
        for d in range(1, gk.first_zero_degree):
            assert gk.check_sn_invariance(d, pairs)


def test_zero_tail_verified():
    # the run stops at the first zero of dim L; the degrees after it are zero too
    gk = compute_graded_kernel(ctx_of(5, 2, 0))
    d0 = gk.first_zero_degree
    assert max(gk.degrees) == d0
    assert [gk.compute_degree(d0 + k).dim_l for k in (0, 1, 2)] == [0, 0, 0]


def test_membership_examples():
    ctx = ctx_of(5, 2, 0)
    assert is_in_kernel(parse_poly("x1*x2*x3", 4, ctx.domain), ctx).member
    ctx34 = ctx_of(4, 3, 0)
    assert is_in_kernel(parse_poly("x1^2*x2-x1*x2^2", 3, ctx34.domain), ctx34).member
    ctx51 = ctx_of(5, 2, 1)
    res = is_in_kernel(parse_poly("x1^5*x2", 4, ctx51.domain), ctx51)
    assert not res.member
    assert res.witness is not None and sum(res.witness) == 6
    assert not res.witness_value.is_zero()
    # the witness really is a nonzero pairing
    val = contravariant_pairing(
        res.witness, parse_poly("x1^5*x2", 4, ctx51.domain), ctx51
    )
    assert not val.is_zero()


def test_membership_against_kernel_basis():
    # the walk's verdict against the engine's basis in every degree where both
    # ker B and L are nonzero, and every witness against the reference pairing
    rng = random.Random(7)
    for p, n, t, max_degree in [(2, 5, 1, None), (3, 4, 1, 8), (3, 4, 0, None), (2, 5, 0, None), (5, 6, 0, None)]:
        ctx = ctx_of(n, p, t)
        gk = compute_graded_kernel(ctx, max_degree=max_degree)
        verdicts = set()
        for d, (_, dim_ker, dim_l) in gk.dims().items():
            if not dim_ker or not dim_l:
                continue
            basis = gk.basis_polys(d)
            members = [rng.choice(basis), rng.choice(basis).add(rng.choice(basis))]
            others = [random_homogeneous(ctx.domain, n - 1, d, rng, max_terms=3) for _ in range(3)]
            for g in members + others:
                res = is_in_kernel(g, ctx)
                assert res.member == gk.reduce_poly(g, d).is_zero(), (p, n, t, d, g)
                verdicts.add(res.member)
                if not res.member:
                    value = contravariant_pairing(res.witness, g, ctx)
                    assert not value.is_zero() and value == res.witness_value, (p, n, t, d, g)
        assert verdicts == {True, False}, (p, n, t)


def test_cutoff_path_matches_direct():
    # same verdicts from the depth-cutoff route and the full-depth route
    ctx = ctx_of(7, 2, 1)
    cases = [
        ("x1^6", True),
        ("x1^4*x2^4", True),
        ("x1^5*x2", False),
        ("(1/(c+1))*x1^5*x2+x1^3*x2^3", False),
    ]
    for text, expect in cases:
        f = parse_poly(text, 6, ctx.domain)
        fast = is_in_kernel(f, ctx, method="cutoff")
        slow = is_in_kernel(f, ctx, method="direct")
        assert fast.member == slow.member == expect
        if not expect:
            v = contravariant_pairing(fast.witness, f, ctx)
            assert not v.is_zero()


def _on_slots(g: ReducedPoly, slots, nv: int) -> ReducedPoly:
    """g in len(slots) variables, its variable k moved to slot slots[k]."""
    terms = {}
    for m, v in g.terms.items():
        mm = [0] * nv
        for k, e in zip(slots, m):
            mm[k - 1] = e
        terms[tuple(mm)] = v
    return ReducedPoly(g.domain, nv, terms)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    t=st.sampled_from([0, 1]),
    n=st.integers(4, 10),
    c=st.one_of(st.just("generic"), st.integers(0, 4)),
    scattered=st.booleans(),
    d=st.integers(2, 4),
    seed=st.integers(0, 10**9),
)
# spare runs of length p at n = 9: weights mu = p vanish mod p
@example(p=2, t=1, n=9, c="generic", scattered=False, d=4, seed=1)
@example(p=3, t=1, n=9, c="generic", scattered=True, d=4, seed=2)
@example(p=3, t=0, n=10, c=1, scattered=True, d=4, seed=3)
def test_orbit_walk_matches_plain_walk(p, t, n, c, scattered, d, seed):
    # the walk on orbit representatives of the spare slots against the walk
    # with singleton classes, which has no orbit slots, on every multiset of
    # the first; support slots first (contiguous spares) or scattered
    rng = random.Random(seed)
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    dom, nv = ctx.domain, n - 1
    k = rng.randint(1, min(3, nv - 2))
    slots = sorted(rng.sample(range(1, nv + 1), k)) if scattered else list(range(1, k + 1))
    f = _on_slots(random_homogeneous(dom, k, d, rng), slots, nv)
    if c == "generic":  # a second denominator group: terms over 1 + c
        g = _on_slots(random_homogeneous(dom, k, d, rng), slots, nv)
        f = f.add(g.scalar_mul(dom.div(dom.one, dom.add(dom.one, dom.c_scalar()))))
    depth = rng.randint(1, d)
    classes = slot_symmetry_classes(f, ctx)
    orbit = _walk(f, depth, classes, ctx)
    plain = _walk(f, depth, [[i] for i in range(1, nv + 1)], ctx)
    assert set(orbit) == {a for a in plain if _canonical(a, classes)}
    for a, g in orbit.items():
        assert reduce_raw(g, ctx) == reduce_raw(plain[a], ctx), (a, f)


def test_symmetry_classes():
    ctx = ctx_of(6, 2, 1)
    f = parse_poly("x1^5*x2^2*x3^2", 5, ctx.domain)
    classes = slot_symmetry_classes(f, ctx)
    assert [1] in classes
    assert [2, 3] in classes
    assert [4, 5] in classes


def test_degree_twelve_closure_n5():
    # every degree-(n+7) monomial lies in the kernel at n=5: the graded
    # engine says dim L[12] = 0, and direct membership spot checks agree
    ctx = ctx_of(5, 2, 1)
    gk = compute_graded_kernel(ctx)
    assert gk.compute_degree(12).dim_l == 0
    monos = monomials_of_degree(4, 12)
    assert gk.degrees[12].dim_kernel == len(monos)
    for m in monos:
        assert gk.reduce_poly(ReducedPoly(ctx.domain, 4, {m: ctx.domain.one}), 12).is_zero()
    for m in (monos[0], monos[len(monos) // 2]):
        f = ReducedPoly(ctx.domain, 4, {m: ctx.domain.one})
        assert is_in_kernel(f, ctx).member


def test_singularity_flags():
    ctx = ctx_of(5, 2, 0)
    assert is_singular(parse_poly("x1^2+x1*x2+x2^2", 4, ctx.domain), ctx)
    assert not is_singular(parse_poly("x1", 4, ctx.domain), ctx)
    ctx37 = ctx_of(7, 3, 0)
    f = parse_poly("x1^3-x1*x2^2+x2^3", 6, ctx37.domain)
    # kernel membership is the certified property; raw singularity can fail
    assert is_in_kernel(f, ctx37).member

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cherednik.action import reduce_last
from cherednik.fields import CoeffDomain
from cherednik.poly import ReducedPoly, format_poly, parse_poly, random_homogeneous
from cherednik.dunkl import (
    DunklContext,
    Packed,
    check_commutators,
    dunkl,
    dunkl_difference,
    dunkl_z,
    dunkl_z_raw,
    lift_raw,
    pack_monomial,
    _spare_terms,
    split_orbits,
    unpack_monomial,
)


def ctx_of(n, p, t, c=None):
    return DunklContext.make(n=n, p=p, t=t, c=c)


def test_t0_difference_on_variable():
    ctx = ctx_of(5, 2, 0)
    f = parse_poly("x1", 4, ctx.domain)
    assert dunkl_difference(f, 1, 2, ctx) == parse_poly("1", 4, ctx.domain)


def test_t0_difference_on_product():
    ctx = ctx_of(5, 2, 0)
    f = parse_poly("x1*x2", 4, ctx.domain)
    assert dunkl_difference(f, 1, 2, ctx) == parse_poly("x1+x2", 4, ctx.domain)


def test_t1_generic_hand_value():
    ctx = ctx_of(3, 2, 1)
    f = parse_poly("x1", 2, ctx.domain)
    assert format_poly(dunkl_difference(f, 1, 2, ctx)) == "(c+1)"


def test_singular_quadratic_p2():
    ctx = ctx_of(5, 2, 0)
    f = parse_poly("x1^2+x1*x2+x2^2", 4, ctx.domain)
    for i in range(1, 5):
        assert dunkl_z(f, i, ctx).is_zero()


def test_singular_skew_p3():
    ctx = ctx_of(4, 3, 0)
    f = parse_poly("x2-x3", 3, ctx.domain).mul(parse_poly("x1-x2-x3", 3, ctx.domain))
    for i in range(1, 4):
        for j in range(1, 5):
            if i != j:
                assert dunkl_difference(f, i, j, ctx).is_zero()


def test_triple_application_residual():
    ctx = ctx_of(5, 2, 1)
    f = parse_poly("x1^5*x2", 4, ctx.domain)
    for _ in range(3):
        f = dunkl_difference(f, 1, 2, ctx)
    assert f == parse_poly("(c)*x1*x2^2+(c)*x2^3", 4, ctx.domain)


def test_same_index_difference_is_zero():
    ctx = ctx_of(4, 3, 0)
    f = parse_poly("x1^2", 3, ctx.domain)
    assert dunkl_difference(f, 2, 2, ctx).is_zero()


def test_difference_matches_single_dunkls():
    rng = random.Random(5)
    for p, t, n in [(2, 0, 4), (3, 0, 4), (2, 1, 3), (3, 1, 4)]:
        ctx = ctx_of(n, p, t)
        for _ in range(5):
            f = random_homogeneous(ctx.domain, n - 1, rng.randint(1, 3), rng)
            for i in range(1, n):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    assert dunkl_difference(f, i, j, ctx) == dunkl(f, i, ctx).sub(
                        dunkl(f, j, ctx)
                    )


def _difference_oracle(f, i, ctx):
    return dunkl(f, i, ctx).sub(dunkl(f, ctx.n, ctx))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    t=st.sampled_from([0, 1]),
    n=st.integers(3, 6),
    c=st.one_of(st.just("generic"), st.integers(0, 4)),
    seed=st.integers(0, 10**9),
)
def test_dunkl_z_matches_divided_differences(p, t, n, c, seed):
    # the core against D_{y_i} - D_{y_n} built from divided differences
    rng = random.Random(seed)
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    dom = ctx.domain
    f = random_homogeneous(dom, n - 1, rng.randint(0, 3), rng)
    if c == "generic" and f.terms:
        # one coefficient over the non-trivial denominator c + 1
        terms = dict(f.terms)
        m = rng.choice(sorted(terms))
        terms[m] = dom.div(terms[m], dom.from_c_poly((1, 1)))
        f = ReducedPoly(dom, n - 1, terms)
    for i in range(1, n):
        assert dunkl_z(f, i, ctx) == _difference_oracle(f, i, ctx)


@pytest.mark.parametrize("t", [0, 1])
def test_p2_c0_uses_the_real_c(t):
    # c = 0 at p = 2 leaves only t * (d_i - d_n); c must not be taken as 1
    rng = random.Random(4)
    for n in (3, 4, 5):
        ctx = ctx_of(n, 2, t, c=0)
        for _ in range(4):
            f = random_homogeneous(ctx.domain, n - 1, rng.randint(1, 4), rng)
            for i in range(1, n):
                assert dunkl_z(f, i, ctx) == _difference_oracle(f, i, ctx)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    t=st.sampled_from([0, 1]),
    n=st.integers(3, 5),
    generic=st.booleans(),
    seed=st.integers(0, 10**9),
)
def test_upstairs_core_commutes_with_reduction(p, t, n, generic, seed):
    # reduce_last(D F) == D reduce_last(F) for unreduced n-slot F: the fact
    # the cutoff membership route relies on when it reduces only its leaves
    rng = random.Random(seed)
    ctx = ctx_of(n, p, t, "generic" if generic else 1)
    dom = ctx.domain
    big = random_homogeneous(dom, n, rng.randint(0, 4), rng)
    raw = {m: v[0] for m, v in big.terms.items()} if generic else dict(big.terms)
    i = rng.randint(1, n - 1)
    packed = Packed(1, [(None, {pack_monomial(m, 1): v for m, v in raw.items()})])
    image = {unpack_monomial(k, n, 1): v for _, h in dunkl_z_raw(packed, i, ctx).groups for k, v in h.items()}
    if generic:
        image = {m: (v, dom.ring.one) for m, v in image.items()}
    assert reduce_last(ReducedPoly(dom, n, image)) == dunkl_z(reduce_last(big), i, ctx)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_degree_lowering(seed):
    rng = random.Random(seed)
    p, t, n = rng.choice([(2, 0, 4), (3, 0, 4), (2, 1, 5), (3, 1, 4)])
    ctx = ctx_of(n, p, t)
    d = rng.randint(1, 4)
    f = random_homogeneous(ctx.domain, n - 1, d, rng)
    g = dunkl_z(f, rng.randint(1, n - 1), ctx)
    if not g.is_zero():
        assert g.degree() == d - 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_dunkl_operators_commute(seed):
    rng = random.Random(seed)
    p, t, n = rng.choice([(2, 0, 4), (3, 0, 4), (2, 1, 4), (3, 1, 4)])
    ctx = ctx_of(n, p, t)
    f = random_homogeneous(ctx.domain, n - 1, rng.randint(2, 4), rng)
    i = rng.randint(1, n - 1)
    j = rng.randint(1, n - 1)
    a = dunkl_z(dunkl_z(f, i, ctx), j, ctx)
    b = dunkl_z(dunkl_z(f, j, ctx), i, ctx)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_linearity(seed):
    rng = random.Random(seed)
    ctx = ctx_of(4, 3, 1)
    d = rng.randint(1, 4)
    f = random_homogeneous(ctx.domain, 3, d, rng)
    g = random_homogeneous(ctx.domain, 3, d, rng)
    i = rng.randint(1, 3)
    assert dunkl_z(f.add(g), i, ctx) == dunkl_z(f, i, ctx).add(dunkl_z(g, i, ctx))


def dunkl_parts(text, i, j, n, p):
    """(alpha, beta) with D_{y_i - y_j} f = alpha + c * beta at t = 1: alpha is
    D at (t, c) = (1, 0), beta is D at (t, c) = (0, 1), both over F_p."""
    parts = []
    for t, c in ((1, 0), (0, 1)):
        ctx = ctx_of(n, p, t, c)
        parts.append(dunkl_difference(parse_poly(text, n - 1, ctx.domain), i, j, ctx))
    return parts


def over_generic(f, p):
    """f over F_p, embedded in F_p(c)."""
    dom = CoeffDomain.generic(p)
    return ReducedPoly(dom, f.nvars, {m: dom.from_int(v) for m, v in f.terms.items()})


def test_dunkl_parts_examples():
    alpha, beta = dunkl_parts("x1^2", 1, 2, 3, 2)
    assert alpha.is_zero()  # derivative 2 x1 = 0 at p = 2
    alpha3, _ = dunkl_parts("x1^2", 1, 2, 4, 3)
    assert alpha3 == parse_poly("2*x1", 3, CoeffDomain.prime(3, 0))
    a0, b0 = dunkl_parts("1", 1, 2, 3, 2)
    assert a0.is_zero() and b0.is_zero()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_parts_identity(seed):
    # D_{y_i - y_j} f == alpha + c * beta as polynomials in c
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    n = rng.randint(3, 5)
    ctx = ctx_of(n, p, 1)
    f = random_homogeneous(CoeffDomain.prime(p), n - 1, rng.randint(1, 4), rng)
    i = rng.randint(1, n)
    j = rng.randint(1, n)
    if i == j:
        return
    alpha, beta = dunkl_parts(format_poly(f), i, j, n, p)
    c = ctx.domain.c_scalar()
    got = dunkl_difference(over_generic(f, p), i, j, ctx)
    assert got == over_generic(alpha, p).add(over_generic(beta, p).scalar_mul(c))


@pytest.mark.parametrize("p,t,n", [(2, 0, 3), (3, 1, 4)])
def test_commutators_pass(p, t, n):
    ctx = ctx_of(n, p, t)
    report = check_commutators(ctx, degree=3, trials=12, seed=3)
    assert report.ok and report.checked >= 100


def test_commutators_catch_corruption():
    # dropping one reflection term from the operator must break the relations
    ctx = ctx_of(3, 2, 0)

    def corrupted(f, i, j, ctx_):
        from cherednik.action import divided_difference

        dom = ctx_.domain
        out = ReducedPoly.zero(dom, ctx_.nvars)
        for k in range(1, ctx_.n + 1):
            if k != i and k != ctx_.n:  # drop the k = n term of the i-sum
                out = out.sub(divided_difference(f, i, k, ctx_.n))
            if k != j:
                out = out.add(divided_difference(f, j, k, ctx_.n))
        return out.scalar_mul(dom.c_scalar())

    report = check_commutators(
        ctx, degree=2, trials=4, seed=1, dunkl_difference_fn=corrupted
    )
    assert not report.ok
    assert report.failures[0].lhs != report.failures[0].rhs


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("t", [0, 1])
def test_degree_past_one_byte_per_slot(p, t):
    # exponents >= 256 do not fit one byte, so the lift widens every slot
    ctx = ctx_of(3, p, t)
    f = parse_poly("x1^300", 2, ctx.domain)
    assert lift_raw(f).nb == 2
    for i in (1, 2):
        image = dunkl_z(f, i, ctx)
        assert not image.is_zero() and image.degree() == 299
        assert image == _difference_oracle(f, i, ctx)


@pytest.mark.parametrize("slots", [(1, 2, 4), (3, 2, 4), (2, 5, 6)])
def test_spare_terms_follow_the_reflection_sums(slots):
    # a spare slot k's table entry on x_i^a x_k^e x_n^b is delta_{ik} +
    # delta_{kn} as the key offsets that take -c v and those that take c v,
    # each offset written once: the terms at m - e_i and m - e_n of an empty slot are
    # left out, and the pair at m - e_k that cancels when e > a, b is skipped
    ui, uk, un = (1 << 8 * (s - 1) for s in slots)
    for a, e, b in itertools.product(range(5), repeat=3):
        want: dict = {}
        for x, y, ux, uy in ((a, e, ui, uk), (e, b, uk, un)):
            sign = 1 if x > y else -1
            for s in range(min(x, y), max(x, y)):
                off = (s - x) * ux + (x - 1 - s) * uy
                if not e and off in (-ui, -un):
                    continue
                want[off] = want.get(off, 0) + sign
        want = {off: w for off, w in want.items() if w}
        minus, plus = _spare_terms(a, e, b, ui, uk, un)
        got = [(off, 1) for off in minus] + [(off, -1) for off in plus]
        assert len({off for off, _ in got}) == len(got), (a, e, b)
        assert dict(got) == want, (a, e, b)


@pytest.mark.parametrize("nb", [1, 2])
@pytest.mark.parametrize("p,t,c", [(2, 1, "generic"), (3, 1, "generic"), (5, 0, 1), (3, 1, 2)])
def test_core_on_orbit_representatives(nb, p, t, c):
    # spare slots 2, 4, 5, 6 around the support {1, 3}: a chain of operators
    # on orbit representatives, popping the first spare slot when it is hit,
    # against the same chain on plain terms, upstairs and term by term
    n = 7
    ctx = ctx_of(n, p, t, c)
    f = parse_poly("x1^4*x3^2+(2)*x1^2*x3^4+x1*x3^5", n - 1, ctx.domain)
    lifted = lift_raw(f)
    g = Packed(nb, [
        (den, {pack_monomial(unpack_monomial(k, n, lifted.nb), nb): v for k, v in terms.items()})
        for den, terms in lifted.groups
    ])
    orbit, reps, plain = (2, 4, 5, 6), g, g
    for j in (1, 3, 2, 1, 4):
        if j == orbit[0]:
            reps, orbit = split_orbits(reps, n, orbit, orbit[1:]), orbit[1:]
        reps = dunkl_z_raw(reps, j, ctx, orbit)
        plain = dunkl_z_raw(plain, j, ctx)
        expanded = split_orbits(reps, n, orbit, ())
        assert plain.groups
        assert dict(expanded.groups) == dict(plain.groups)


@st.composite
def _orbit_representatives(draw):
    """(f, n, orbit): packed terms given by Sym(orbit)-representatives.  The
    orbit slots hold a run of one base value and at most three other slots,
    in runs of length 1, 2 or 3, so runs of length p = 2, 3 occur and no
    term has more than 11 * 10 * 9 arrangements."""
    nb = draw(st.sampled_from([1, 2]))
    size = draw(st.integers(1, 11))
    n = size + draw(st.integers(1, 3))
    orbit = tuple(range(n - size, n))
    value = st.integers(0, 300) if nb == 2 else st.integers(0, 9)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        runs = draw(st.lists(st.tuples(value, st.sampled_from([1, 2, 3])), max_size=2))
        vals = [v for v, length in runs for _ in range(length)][:3][:size]
        vals = sorted(vals + [draw(value)] * (size - len(vals)), reverse=True)
        head = [draw(value) for _ in range(n - size)]
        terms[pack_monomial(tuple(head[:-1] + vals + head[-1:]), nb)] = draw(st.integers(1, 4))
    return Packed(nb, [(None, terms)]), n, orbit


@settings(max_examples=120, deadline=None)
@given(case=_orbit_representatives())
def test_one_pass_expansion_matches_single_slot_splits(case):
    # splitting to () in one pass equals len(orbit) splits of one slot each,
    # term for term and in the same order, and each representative goes to
    # every distinct arrangement of its orbit values, repeated values included
    f, n, orbit = case
    step = f
    for k in range(len(orbit)):
        step = split_orbits(step, n, orbit[k:], orbit[k + 1 :])
    once = split_orbits(f, n, orbit, ())
    assert list(once.groups[0][1].items()) == list(step.groups[0][1].items())
    fixed = [k for k in range(1, n + 1) if k not in orbit]
    got: dict = {}
    for key in once.groups[0][1]:
        m = unpack_monomial(key, n, f.nb)
        vals = tuple(m[k - 1] for k in orbit)
        got.setdefault((tuple(m[k - 1] for k in fixed), tuple(sorted(vals, reverse=True))), set()).add(vals)
    assert len(got) == len(f.groups[0][1])
    for key in f.groups[0][1]:
        m = unpack_monomial(key, n, f.nb)
        vals = tuple(m[k - 1] for k in orbit)
        arranged = got[tuple(m[k - 1] for k in fixed), vals]
        assert vals in arranged
        assert len(vals) > 7 or arranged == set(itertools.permutations(vals))

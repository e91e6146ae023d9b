import copy
import importlib.util
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cherednik import kernel as kernel_module, linalg
from cherednik.action import Transposition, apply_transposition
from cherednik.fields import CoeffDomain
from cherednik.poly import ReducedPoly, monomials_of_degree, parse_poly, random_homogeneous
from cherednik.dunkl import DunklContext, dunkl, reduce_raw
from cherednik.series import baby_verma_series, computed_hilbert
from cherednik.catalog import singular_catalog
from cherednik.kernel import (
    GradedKernel,
    _canonical,
    _gram_levels,
    _pairings,
    _stacked_rows,
    _staircase,
    _swapped_columns,
    _walk,
    compute_graded_kernel,
    contravariant_pairing,
    dunkl_columns,
    gram_oracle_kernel,
    gram_rows,
    is_in_kernel,
    is_singular,
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


def test_points_per_degree_do_not_depend_on_earlier_runs():
    # equal F_2(c) domains, distinct objects, share one adapter: each run must
    # still read the points it tried, whichever domain came first
    runs = [compute_graded_kernel(DunklContext.make(n=5, p=2, t=1)) for _ in range(2)]
    assert runs[0].ctx.domain == runs[1].ctx.domain and runs[0].ctx.domain is not runs[1].ctx.domain
    points = [[gk.degrees[d].points for d in range(1, gk.first_zero_degree)] for gk in runs]
    assert all(k >= 1 for k in points[0]) and points[0] == points[1]


@pytest.mark.parametrize("p, n, t", [(2, 5, 1), (3, 4, 1), (2, 9, 0), (5, 6, 0)])
def test_constraint_rows_are_dual_to_the_kernel(p, n, t):
    # the constraint rows are the RREF from the right: their largest columns
    # are the standard monomials S_d, the stored pivots and the columns that
    # are not kernel pivots, and S_d fixes the live columns of the next degree
    ctx = ctx_of(n, p, t)
    gk = compute_graded_kernel(ctx)
    assert gk.completed
    zero, nv = linalg.RingAdapter.of(ctx.domain).zero, ctx.nvars
    for d, dd in sorted(gk.degrees.items()):
        tops = [max(k for k, v in enumerate(row) if v != zero) for row in dd.constraint_rows]
        assert dd.pivots == tops == sorted(set(tops), reverse=True)
        standard = set(range(dd.dim_m)) - set(gk.kernel(d)[1])
        assert set(tops) == standard and len(standard) == dd.dim_l
        for row, top in zip(dd.constraint_rows, tops):
            assert all(row[k] == zero for k in tops if k != top)
        if d + 1 in gk.degrees:
            monos = monomials_of_degree(nv, d)
            S = {monos[k] for k in standard}
            live = sum(
                all(m[:j] + (m[j] - 1,) + m[j + 1 :] in S for j in range(nv) if m[j])
                for m in monomials_of_degree(nv, d + 1)
            )
            assert gk.degrees[d + 1].live == live


@pytest.mark.parametrize("p, n, t", [(2, 5, 1), (3, 4, 1), (2, 9, 0), (5, 6, 0)])
def test_normal_form_reads_the_constraint_rows(p, n, t):
    # the normal form lies on S_d, is idempotent, leaves f - nf(f) in ker B[d],
    # fixes each x^s with s in S_d, and is what reduction by the kernel basis gives
    ctx = ctx_of(n, p, t)
    gk = compute_graded_kernel(ctx)
    dom, nv, rng = ctx.domain, ctx.nvars, random.Random(p * 100 + n)
    for d, dd in sorted(gk.degrees.items()):
        monos = monomials_of_degree(nv, d)
        standard = {monos[s] for s in dd.pivots}
        for m in rng.sample(sorted(standard), min(4, len(standard))):
            x_s = ReducedPoly(dom, nv, {m: dom.one})
            assert gk.reduce_poly(x_s, d) == x_s, (d, m)
        rows, pivots = gk.kernel(d)
        for f in [random_homogeneous(dom, nv, d, rng, max_terms=4) for _ in range(3)]:
            nf = gk.reduce_poly(f, d)
            assert set(nf.terms) <= standard, (d, f)
            assert gk.reduce_poly(nf, d) == nf, (d, f)
            assert gk.reduce_poly(f.sub(nf), d).is_zero(), (d, f)
            vec = {monos.index(m): v for m, v in f.terms.items()}
            for pc, row in zip(pivots, rows):  # subtract f's coefficient at each kernel pivot times its row
                coef = vec.get(pc, dom.zero)
                for k, x in row.items():
                    vec[k] = dom.sub(vec.get(k, dom.zero), dom.mul(coef, x))
            assert nf == ReducedPoly(dom, nv, {monos[k]: v for k, v in vec.items() if not dom.is_zero(v)}), (d, f)


# scripts/kernel_digests.py's first digest, taken while each degree still
# stored its kernel basis: d, M, L, live, points, the kernel rows and pivots
# and the constraint rows, so a change that moves an answer or the number of
# evaluation points tried shows here
KERNEL_DIGESTS = {
    (2, 5, 1, "generic"): "3cb972db5cd5eeda80c7c42cb203265ef1b5f3ff1b971933e9cee37cedd1dec1",
    (3, 4, 1, "generic"): "af1dcfae0c32071ab15016e6818f9dd3703c3a6baec966abe358be9856a14172",
    (2, 9, 0, 1): "45324191171f55b9a94044dac3027ed5616a1373190ce5028d889ce4b2fe8dab",
}


@pytest.mark.parametrize("p, n, t, c", list(KERNEL_DIGESTS))
def test_kernel_digests_are_pinned(p, n, t, c):
    path = Path(__file__).resolve().parents[1] / "scripts" / "kernel_digests.py"
    spec = importlib.util.spec_from_file_location("kernel_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    gk = compute_graded_kernel(ctx_of(n, p, t, c))
    assert script.sha256(script.kernel_text(gk)) == KERNEL_DIGESTS[p, n, t, c]


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4)])
def test_staircase_takes_each_relation_from_the_last_free_divisor(p, n):
    # a dead m could take its relation from any free f = m / x_j; the staircase
    # takes the largest j, and the relation e_m + w_m lies in ker B[d]
    ctx = ctx_of(n, p, 1)
    gk, dom, nv = GradedKernel(ctx), ctx.domain, ctx.nvars
    choices = 0
    for d in range(2, 9):
        prev = gk.compute_degree(d - 1)
        rref = linalg.rref_scalar_rows(gk.adapter, prev.constraint_rows, prev.pivots)
        live, relations = _staircase(prev.pivots, rref, d, nv, dom)
        if not live:
            break
        lower, monos = monomials_of_degree(nv, d - 1), monomials_of_degree(nv, d)
        standard = {lower[s] for s in prev.pivots}
        dd = gk.compute_degree(d)
        rows = linalg.rref_scalar_rows(gk.adapter, dd.constraint_rows, dd.pivots)
        for k, m in enumerate(monos):
            free = [j for j in range(nv) if m[j] and m[:j] + (m[j] - 1,) + m[j + 1 :] not in standard]
            assert (k in live) == (not free) == (k not in relations), (d, m)
            if not free:
                continue
            choices += len(free) > 1
            j = free[-1]
            f = lower.index(m[:j] + (m[j] - 1,) + m[j + 1 :])
            want = {
                monos.index(lower[s][:j] + (lower[s][j] + 1,) + lower[s][j + 1 :]): dom.neg(row[f])
                for s, row in zip(prev.pivots, rref)
                if f in row
            }
            assert relations[k] == want, (d, m)
            for row in rows:
                acc = row.get(k, dom.zero)
                for c, w in want.items():
                    acc = dom.add(acc, dom.mul(row.get(c, dom.zero), w))
                assert dom.is_zero(acc), (d, m)
    assert choices  # some dead m has two free divisors, so the choice is tested


@pytest.mark.parametrize("p, n, t", [(2, 5, 0), (3, 4, 0), (2, 3, 1)])
def test_gram_levels_are_held_for_one_context(p, n, t):
    # degrees out of order, a second context in between: each kernel is the
    # engine's and the one a cleared cache gives, and one context stays held
    ctx, other = ctx_of(n, p, t), ctx_of(4, 2, 0)
    gk = GradedKernel(ctx)
    _gram_levels.cache_clear()
    got = {}
    for d in (3, 1, 3, 2):
        got.setdefault(d, []).append(gram_oracle_kernel(d, ctx))
        if d == 1:
            assert gram_oracle_kernel(2, other) == GradedKernel(other).kernel(2)
    assert _gram_levels.cache_info().currsize == 1 and len(_gram_levels(ctx)) == 4
    for d, results in got.items():
        _gram_levels.cache_clear()
        assert results == [gk.kernel(d)] * len(results) == [gram_oracle_kernel(d, ctx)] * len(results), d
    # the held levels are shared: reducing one leaves every level as it was
    before = copy.deepcopy([gram_rows(e, ctx) for e in range(4)])
    gram_oracle_kernel(3, ctx)
    assert [gram_rows(e, ctx) for e in range(4)] == before
    gram_rows(2, other)
    assert _gram_levels.cache_info().currsize == 1 and len(_gram_levels(other)) == 3


def test_kernel_at_degree_wrapper():
    ctx = ctx_of(5, 2, 0)
    gk = GradedKernel(ctx)
    basis = gk.basis_polys(2)
    assert len(basis) == 6
    assert all(b.degree() == 2 for b in basis)


@pytest.mark.parametrize(
    "p,n,t,dmax", [(2, 3, 0, 6), (2, 3, 1, 6), (3, 4, 0, 6), (3, 4, 1, 6)]
)
def test_oracle_equivalence_small(p, n, t, dmax):
    ctx = ctx_of(n, p, t)
    gk = GradedKernel(ctx)
    for d in range(1, dmax + 1):
        kernel_rows, kernel_pivots = gk.kernel(d)
        rows, pivots = gram_oracle_kernel(d, ctx)
        assert rows == kernel_rows
        assert pivots == kernel_pivots


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
@pytest.mark.parametrize("n", [3, 4])
def test_large_p_matches_the_oracle_and_the_baby_verma_series(p, n):
    # the core's tables are bounded by n and the exponent width, not by p, and
    # compose packs F_p entries wide enough that sums never carry across rows
    ctx = ctx_of(n, p, 0)
    gk = compute_graded_kernel(ctx)
    for d in range(1, max(gk.degrees) + 1):
        assert gram_oracle_kernel(d, ctx) == gk.kernel(d)
    assert computed_hilbert(gk).coeffs == baby_verma_series(n, p, 0).coeffs


@pytest.mark.slow
def test_oracle_equivalence_t1_n5():
    ctx = ctx_of(5, 2, 1)
    gk = GradedKernel(ctx)
    for d in range(1, 7):
        kernel_rows, kernel_pivots = gk.kernel(d)
        rows, pivots = gram_oracle_kernel(d, ctx)
        assert rows == kernel_rows
        assert pivots == kernel_pivots


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
@example(p=2, t=0, n=5, d=4, c=1)  # no live column: ker B[4] = M[4]
@example(p=2, t=1, n=4, d=4, c="generic")  # one live column, and L[4] = 0
@example(p=2, t=1, n=6, d=4, c="generic")  # 10 of 70 columns live
@example(p=5, t=1, n=4, d=7, c=0)  # 18 of 36 columns live
def test_stacked_rows_follow_the_slot_symmetry(p, t, n, d, c):
    # R D_1 with its columns permuted by s = (1 i) against R D_i composed for
    # every slot, on every column; then the engine's degree, built and reduced
    # on the live columns and extended by the relations, against the same stack
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    gk = GradedKernel(ctx)
    R = gk.compute_degree(d - 1).constraint_rows
    adapter, ncols = linalg.RingAdapter(ctx.domain), len(monomials_of_degree(n - 1, d))
    every = [row for i in range(1, n) for row in linalg.compose_rows_columns(adapter, R, dunkl_columns(d, i, ctx))]
    full = linalg.echelon(adapter, every)
    assert linalg.echelon(adapter, _stacked_rows(R, d, ctx, range(ncols))) == full
    data = gk.compute_degree(d)
    assert data.dim_l <= data.live <= ncols
    assert (data.constraint_rows, data.pivots) == full


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    t=st.sampled_from([0, 1]),
    n=st.integers(3, 6),
    d=st.integers(1, 4),
    c=st.one_of(st.just("generic"), st.integers(0, 4)),
    seed=st.integers(0, 10**9),
)
@example(p=3, t=1, n=2, d=5, c="generic", seed=0)  # one operator slot
@example(p=2, t=0, n=4, d=3, c=0, seed=1)  # D = t (d_i - d_n) = 0: every column empty
@example(p=2, t=1, n=3, d=300, c="generic", seed=2)  # exponents past 255: two bytes a slot
@example(p=3, t=0, n=3, d=300, c=1, seed=3)  # the same over F_3
def test_dunkl_columns_match_divided_differences(p, t, n, d, c, seed):
    # every column of the one-pass build against D_{y_i} - D_{y_n} by divided
    # differences, on a subset of the monomials out of grlex order, as
    # _stacked_rows passes them
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    dom, adapter, rng = ctx.domain, linalg.RingAdapter(ctx.domain), random.Random(seed)
    monos, prev = monomials_of_degree(n - 1, d), monomials_of_degree(n - 1, d - 1)
    subset = rng.sample(monos, min(len(monos), 12))
    if subset == sorted(subset, key=monos.index):
        subset.reverse()
    for i in range(1, n):
        cols = dunkl_columns(d, i, ctx, subset)
        assert len(cols) == len(subset)
        for m, col in zip(subset, cols):
            f = ReducedPoly(dom, n - 1, {m: dom.one})
            got = ReducedPoly(dom, n - 1, {prev[r]: adapter.scalar_div(v, adapter.one) for r, v in col.items()})
            assert got == dunkl(f, i, ctx).sub(dunkl(f, n, ctx))
            if t == 0 and c != "generic" and c % p == 0:
                assert not col


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    t=st.sampled_from([0, 1]),
    n=st.integers(2, 6),
    d=st.integers(1, 5),
    c=st.one_of(st.just("generic"), st.integers(0, 4)),
)
@example(p=3, t=1, n=2, d=4, c="generic")  # one slot: nothing to relabel
@example(p=2, t=0, n=5, d=3, c=0)  # D = t (d_i - d_n) = 0: every column empty
@example(p=5, t=0, n=6, d=3, c=2)
@example(p=2, t=1, n=6, d=4, c="generic")
def test_swapped_columns_match_the_core(p, t, n, d, c):
    # D_i relabeled from D_{n-1} by s = (i n-1) against D_i from the core, on
    # every column, as sparse maps: a relabeled column may list its rows in
    # another order
    ctx = ctx_of(n, p, t, c if c == "generic" else c % p)
    core = dunkl_columns(d, n - 1, ctx)
    for i in range(1, n):
        assert _swapped_columns(core, d, i, n - 1) == dunkl_columns(d, i, ctx), i


@pytest.mark.parametrize("p, n, t", [(2, 5, 0), (3, 4, 1), (5, 3, 0), (2, 2, 1)])
def test_gram_rows_run_the_core_once_per_level(p, n, t):
    # one core matrix, D_{n-1}, per new level, and none for a level held
    ctx, calls = ctx_of(n, p, t), []
    core = kernel_module.dunkl_columns

    def counted(d, i, ctx, monomials=None):
        calls.append((d, i))
        return core(d, i, ctx, monomials)

    _gram_levels.cache_clear()
    with mock.patch.object(kernel_module, "dunkl_columns", counted):
        for d in range(1, 5):
            gram_rows(d, ctx)
            assert calls == [(e, n - 1) for e in range(1, d + 1)], d
        for d in (4, 2, 0):
            gram_rows(d, ctx)
    assert calls == [(e, n - 1) for e in range(1, 5)]
    _gram_levels.cache_clear()


@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: GradedKernel(ctx).kernel(-1),
        lambda ctx: GradedKernel(ctx).compute_degree(-1),
        lambda ctx: GradedKernel(ctx).basis_polys(-1),
        lambda ctx: GradedKernel(ctx).reduce_poly(ReducedPoly(ctx.domain, ctx.nvars, {}), -1),
        lambda ctx: gram_rows(-2, ctx),
        lambda ctx: gram_oracle_kernel(-1, ctx),
    ],
    ids=["kernel", "compute_degree", "basis_polys", "reduce_poly", "gram_rows", "gram_oracle_kernel"],
)
def test_negative_degree_is_a_value_error(call):
    with pytest.raises(ValueError, match="negative"):
        call(ctx_of(4, 3, 1))


def test_gram_oracle_degree_zero_and_limit():
    ctx = ctx_of(5, 2, 0)
    assert gram_oracle_kernel(0, ctx) == ([], [])
    assert GradedKernel(ctx).kernel(0) == ([], []) and GradedKernel(ctx).basis_polys(0) == []
    assert gram_rows(0, ctx) == [[linalg.RingAdapter.of(ctx.domain).one]]
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


def union_find_classes(f, ctx):
    """The slot classes as the transitive closure of the swaps fixing f,
    by union-find, and the number of swaps it applies: it tries each pair
    of used slots not yet joined; the slots f does not use are joined."""
    nv = ctx.nvars
    parent = list(range(nv + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    used = [i for i in range(1, nv + 1) if any(m[i - 1] for m in f.terms)]
    spare = [i for i in range(1, nv + 1) if i not in used]
    for a, b in zip(spare, spare[1:]):
        parent[find(b)] = find(a)
    swaps = 0
    for a, b in itertools.combinations(used, 2):
        if find(a) != find(b):
            swaps += 1
            if apply_transposition(f, Transposition(a, b), ctx.n) == f:
                parent[find(b)] = find(a)
    classes = {}
    for i in range(1, nv + 1):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values()), swaps


@st.composite
def slot_templates(draw):
    """A random template on 3 to 8 slots, symmetrized over random blocks of
    its used slots, so that its support is symmetric, partly symmetric or not."""
    nv, p = draw(st.integers(3, 8)), draw(st.sampled_from([2, 3]))
    ctx = ctx_of(nv + 1, p, draw(st.sampled_from([0, 1])))
    used = sorted(draw(st.sets(st.integers(0, nv - 1), min_size=1, max_size=min(nv, 5))))
    exps = st.lists(st.integers(0, 3), min_size=len(used), max_size=len(used))
    terms = {}
    for e in draw(st.lists(exps, min_size=1, max_size=3)):
        m = [0] * nv
        for i, x in zip(used, e):
            m[i] = x
        terms[tuple(m)] = draw(st.integers(1, p - 1))
    blocks = st.lists(st.lists(st.sampled_from(used), min_size=2, max_size=3, unique=True), max_size=2)
    for block in draw(blocks) if len(used) > 1 else ():
        orbit = {}
        for m, v in terms.items():
            for image in itertools.permutations([m[i] for i in block]):
                moved = list(m)
                for i, x in zip(block, image):
                    moved[i] = x
                orbit[tuple(moved)] = (orbit.get(tuple(moved), 0) + v) % p
        terms = {m: v for m, v in orbit.items() if v}
    dom = ctx.domain
    return ReducedPoly(dom, nv, {m: dom.from_int(v) for m, v in terms.items()}), ctx


@settings(max_examples=150, deadline=None)
@given(slot_templates())
def test_slot_symmetry_classes_match_union_find(case):
    f, ctx = case
    want, swaps = union_find_classes(f, ctx)
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_transposition(*args)

    with mock.patch.object(kernel_module, "apply_transposition", counted):
        assert slot_symmetry_classes(f, ctx) == want, f
    assert len(calls) <= swaps


# Templates whose supports are only partly symmetric: some slot swaps fix the
# support but not f, or fix f on some slots only.  A slot joined to a class
# without its swap check leaves the walk on too few multisets, and the
# second template of each cell, a non-member, loses its witness.
PARTLY_SYMMETRIC = [
    ((3, 4, 0), ["x1*x3+x2*x3", "x1*x2+2*x1*x3"]),
    ((2, 5, 0), ["x1^2+x1*x2+x2^2", "x2*x3+x2*x4", "x1*x3+x1*x4+x2*x3+x3*x4"]),
    ((2, 3, 1), ["x1^3*x2+x1*x2^3", "x1^4*x2+x1^2*x2^3"]),
    ((2, 5, 1), ["x1^2*x2+x1*x2^2+x3^3", "(c)*x1^2*x2+(c+1)*x3^2*x4"]),
]


@pytest.mark.parametrize("cell, texts", PARTLY_SYMMETRIC)
def test_membership_on_partly_symmetric_templates(cell, texts):
    p, n, t = cell
    ctx = ctx_of(n, p, t)
    gk = GradedKernel(ctx)
    polys = [parse_poly(text, n - 1, ctx.domain) for text in texts]
    if t == 1 and n == 5:  # a member whose classes are [[1, 2], [3, 4]]
        polys.append(singular_catalog("quartic_c_pair", {"i": 1, "j": 2}, ctx))
    for f in polys:
        assert is_in_kernel(f, ctx).member == gk.reduce_poly(f, f.degree()).is_zero(), f


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

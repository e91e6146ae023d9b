"""Elimination over F_p, the certified modular route over F_p(c) and the
table fields it runs on."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cherednik import linalg
from cherednik.fields import CoeffDomain, PrimeField, RationalFunctionField, point_field


def reversed_columns(rows, ncols):
    return [{ncols - 1 - j: v for j, v in row.items()} for row in rows]


def mirrored(rref, ncols):
    """(rows, pivots) with every column j read as ncols - 1 - j."""
    rows, pivots = rref
    return reversed_columns(rows, ncols), [ncols - 1 - c for c in pivots]


def from_the_left(dom, rows, ncols):
    """The RREF from the left: ``sparse_rref`` on the columns reversed, mirrored back."""
    return mirrored(linalg.sparse_rref(dom, reversed_columns(rows, ncols)), ncols)


def field_fraction_route(dom, A):
    """The RREF from the right, and the kernel read off the RREF from the left
    and reduced, by direct elimination over F_p(c): the independent oracle."""
    R, ncols = dom.ring, len(A[0])
    rows = [{j: (v, R.one) for j, v in enumerate(row) if v != R.zero} for row in A]
    rref, pivots = from_the_left(dom, rows, ncols)
    kernel = from_the_left(dom, linalg.natural_kernel(dom, rref, pivots, range(ncols)), ncols)
    return linalg.sparse_rref(dom, rows), kernel


def modular_route(dom, A):
    """The engine's one elimination: the certified RREF of A from the right,
    and the kernel read off it."""
    adapter = linalg.RingAdapter(dom)
    rows, pivots = linalg.echelon(adapter, A)
    rref = linalg.rref_scalar_rows(adapter, rows, pivots)
    return (rref, pivots), linalg.kernel_from_rref(dom, rref, pivots, len(A[0]))


def low_rank(R, left, right):
    return [
        [
            sum_polys(R, [R.mul(a, brow[j]) for a, brow in zip(lrow, right)])
            for j in range(len(right[0]))
        ]
        for lrow in left
    ]


def sum_polys(R, values):
    out = R.zero
    for v in values:
        out = R.add(out, v)
    return out


def at_point(F, A):
    return [{j: F.evaluate(v) for j, v in enumerate(row) if F.evaluate(v)} for row in A]


@st.composite
def poly_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    R = CoeffDomain.generic(p).ring
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rank = draw(st.integers(1, 4))

    def poly():
        return R.from_coeffs(draw(st.lists(st.integers(0, p - 1), max_size=3)))

    left = [[poly() for _ in range(rank)] for _ in range(nrows)]
    right = [[poly() for _ in range(ncols)] for _ in range(rank)]
    return p, low_rank(R, left, right)


@settings(max_examples=60, deadline=None)
@given(poly_matrices())
def test_route_matches_field_fraction_rref(case):
    p, A = case
    dom = CoeffDomain.generic(p)
    assert modular_route(dom, A) == field_fraction_route(dom, A)


@st.composite
def field_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    row = st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols)
    return p, [draw(row) for _ in range(nrows)]


def span(p, rows, ncols):
    """Every F_p-combination of the rows, as tuples."""
    out = {(0,) * ncols}
    for row in rows:
        out = {tuple((a + k * b) % p for a, b in zip(v, row)) for v in out for k in range(p)}
    return out


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_echelon_over_a_prime_field_against_enumeration(case):
    p, A = case
    dom, ncols = CoeffDomain.prime(p), len(A[0])
    adapter = linalg.RingAdapter(dom)
    # the RREF from the left: echelon on the columns reversed, mirrored back
    right, right_pivots = linalg.echelon(adapter, [row[::-1] for row in A])
    rows, pivots = [row[::-1] for row in right], [ncols - 1 - c for c in right_pivots]
    assert span(p, rows, ncols) == span(p, A, ncols)
    # canonical RREF: increasing pivots, pivot entry 1, zeros in the other pivot columns
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for r, (row, pc) in enumerate(zip(rows, pivots)):
        assert not any(row[:pc]) and row[pc] == 1
        assert all(other[pc] == 0 for other in rows[:r] + rows[r + 1 :])
    right, right_pivots = linalg.echelon(adapter, A)
    assert span(p, right, ncols) == span(p, A, ncols)
    rref = linalg.rref_scalar_rows(adapter, right, right_pivots)
    kernel, _ = linalg.kernel_from_rref(dom, rref, right_pivots, ncols)
    dense = [[v.get(c, 0) for c in range(ncols)] for v in kernel]
    assert len(span(p, dense, ncols)) == p ** (ncols - len(pivots)) == p ** len(kernel)
    for v in dense:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)


@st.composite
def canonical_rrefs(draw):
    """(domain, canonical RREF rows, pivots, ncols), with L = 0, 1 and M among the ranks."""
    dom = draw(
        st.sampled_from([CoeffDomain.prime(p) for p in (2, 3, 5)] + [CoeffDomain.generic(p) for p in (2, 3)])
    )
    ncols = draw(st.integers(1, 7))
    rank = draw(st.sampled_from([0, 1, ncols, draw(st.integers(0, ncols))]))
    pivots = sorted(draw(st.permutations(range(ncols)))[:rank])
    digits = st.lists(st.integers(0, dom.p - 1), max_size=3)

    def entry():
        if isinstance(dom, PrimeField):
            return draw(st.integers(0, dom.p - 1))
        R = dom.ring
        den = R.from_coeffs(draw(digits))
        return dom.make(R.from_coeffs(draw(digits)), R.one if den == R.zero else den)

    one = dom.from_int(1)
    rows = []
    for pc in pivots:
        row = {pc: one}
        for col in range(pc + 1, ncols):
            if col not in pivots and not dom.is_zero(v := entry()):
                row[col] = v
        rows.append(row)
    return dom, rows, pivots, ncols


def reduced_natural_kernel(dom, rows, pivots, ncols):
    """The kernel read off the RREF from the left: reduce one vector per free column."""
    vectors = linalg.natural_kernel(dom, rows, pivots, range(ncols))
    if not isinstance(dom, RationalFunctionField) or not vectors:
        return from_the_left(dom, vectors, ncols)
    adapter = linalg.RingAdapter(dom)
    cleared = [adapter.clear_denominators(v, ncols)[::-1] for v in vectors]
    return mirrored(linalg._modular_rref(adapter, cleared), ncols)


@settings(max_examples=150, deadline=None)
@given(canonical_rrefs())
def test_kernel_from_the_right_matches_the_reduced_natural_kernel(case):
    dom, rows, pivots, ncols = case
    right, right_pivots = linalg.sparse_rref(dom, rows)
    assert linalg.kernel_from_rref(dom, right, right_pivots, ncols) == reduced_natural_kernel(dom, rows, pivots, ncols)


def dense_gauss_jordan(F, rows, ncols):
    """Textbook Gauss-Jordan on dense lists: the reference for ``sparse_rref``."""
    A = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(A)) if not F.is_zero(A[i][j])), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = F.inv(A[r][j])
        A[r] = [F.mul(inv, x) for x in A[r]]
        for i, row in enumerate(A):
            if i != r and not F.is_zero(f := row[j]):
                A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, A[r])]
        pivots.append(j)
    return [{j: x for j, x in enumerate(row) if not F.is_zero(x)} for row in A[: len(pivots)]], pivots


@st.composite
def redundant_stacks(draw):
    """(field, sparse rows, ncols): a few base rows stacked with duplicates,
    scalar multiples, zero rows and combinations of them, shuffled."""
    p, j = draw(st.sampled_from([(2, None), (3, None), (5, None), (7, None), (2, 0), (3, 0)]))
    F = PrimeField(p) if j is None else point_field(p, j)
    q = p if j is None else F.q
    scalar, nonzero = st.one_of(st.just(0), st.integers(1, q - 1)), st.integers(1, q - 1)
    ncols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    stack = list(base)
    for how in draw(st.lists(st.sampled_from(["duplicate", "multiple", "zero", "combination"]), max_size=8)):
        if how == "zero":
            stack.append([0] * ncols)
        elif how == "duplicate":
            stack.append(list(draw(st.sampled_from(base))))
        elif how == "multiple":
            f = draw(nonzero)
            stack.append([F.mul(f, x) for x in draw(st.sampled_from(base))])
        else:
            row = [0] * ncols
            for b in base:
                f = draw(scalar)
                row = [F.add(x, F.mul(f, y)) for x, y in zip(row, b)]
            stack.append(row)
    stack = draw(st.permutations(stack))
    return F, [{j: x for j, x in enumerate(row) if x} for row in stack], ncols


@settings(max_examples=300, deadline=None)
@given(redundant_stacks())
def test_sparse_rref_matches_dense_gauss_jordan(case):
    F, rows, ncols = case
    before = [dict(row) for row in rows]
    assert linalg.sparse_rref(F, rows) == mirrored(dense_gauss_jordan(F, reversed_columns(rows, ncols), ncols), ncols)
    assert rows == before


@pytest.mark.parametrize("p", [2, 3])
def test_sparse_rref_prepares_a_changed_pivot_row_again(p):
    # sparse_rref gets the rows below with their columns reversed; in the
    # columns below, row 0 becomes pivot 0, and its copy, row 1, is cleared by
    # pivot row 0 in its prepared (log) form; row 2 becomes pivot 1, whose
    # column is then cleared from pivot row 0; row 3 reduces against the
    # changed pivot row 0, which must not be read in its old log form
    F = point_field(p, 0)
    rows = [{0: 1, 1: 2, 3: 1}, {0: 1, 1: 2, 3: 1}, {1: 1, 2: 3, 3: 1}, {0: 1, 2: 5}]
    assert linalg.sparse_rref(F, reversed_columns(rows, 4)) == mirrored(dense_gauss_jordan(F, rows, 4), 4)


class OffByOne(PrimeField):
    """F_p whose sums are one too large, so that a - a is never zero."""

    def add(self, a, b):
        return (a + b + 1) % self.p

    sub = CoeffDomain.sub  # subtraction goes through the broken sum too
    subtract_multiple = CoeffDomain.subtract_multiple  # and so does the row update


def test_sparse_rref_rejects_a_field_that_does_not_clear_the_pivot():
    with pytest.raises(ArithmeticError):
        linalg.sparse_rref(OffByOne(3), [{0: 1, 1: 2}, {0: 2, 1: 1}])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("bad", [0, 1])
def test_bad_point_is_dropped(p, bad):
    dom = CoeffDomain.generic(p)
    R = dom.ring
    F = point_field(p, bad)
    c = R.from_coeffs((0, 1))
    base = [[R.one, c, R.add(c, R.one)], [c, R.one, R.zero]]
    A = [base[0], [R.mul(F.modulus, v) for v in base[1]]]
    # at the bad point the second row vanishes, so the rank drops to 1
    assert len(linalg.sparse_rref(F, at_point(F, A))[1]) == 1
    # entries of degree k + 1 need two good points: the bad point is dropped
    # whether it comes first or between them, so three points are tried
    adapter = linalg.RingAdapter(dom)
    assert linalg.echelon(adapter, [row[::-1] for row in A])[1] == [2, 1]
    assert adapter.points_tried == 3
    assert modular_route(dom, A) == field_fraction_route(dom, A)


@pytest.mark.parametrize("p", [2, 3])
def test_point_that_moves_a_pivot_is_dropped(p):
    dom = CoeffDomain.generic(p)
    R = dom.ring
    F = point_field(p, 0)
    A = [[R.one, F.modulus]]
    # at point 0 the row is e_0: the rank holds, but the pivot moves from column 1 to 0
    assert linalg.sparse_rref(F, at_point(F, A))[1] == [0]
    adapter = linalg.RingAdapter(dom)
    assert linalg.echelon(adapter, A) == (A, [1])
    # point 0 is dropped, and the entry of degree k takes points 1 and 2
    assert adapter.points_tried == 3
    assert modular_route(dom, A) == field_fraction_route(dom, A)


@pytest.mark.parametrize(
    "p, coeffs",
    [
        # entries of degree 9 and 10 against a budget of k = 16 per point
        (2, [[(1, 1) + (0,) * 7 + (1,), (1,) + (0,) * 9 + (1,), (1, 1)]]),
        # entries of degree 6 and 7 against a budget of k = 10 per point
        (3, [[(1, 1) + (0,) * 4 + (1,), (2,) + (0,) * 6 + (1,), (0, 1)]]),
    ],
)
def test_entries_past_one_point_need_crt(p, coeffs):
    dom = CoeffDomain.generic(p)
    R = dom.ring
    A = [[R.from_coeffs(v) for v in row] for row in coeffs]
    A.append([R.mul(A[0][0], R.from_coeffs((0, 1))), R.one, A[0][1]])
    adapter = linalg.RingAdapter(dom)
    linalg.echelon(adapter, [row[::-1] for row in A])
    assert adapter.points_tried >= 2
    assert modular_route(dom, A) == field_fraction_route(dom, A)


@pytest.mark.parametrize("p", [2, 3])
def test_point_where_a_relation_has_no_value_is_skipped(p):
    dom = CoeffDomain.generic(p)
    R = dom.ring
    m0 = point_field(p, 0).modulus
    # A = [-1, m0]: built on column 1 alone, with e_0 + e_1 / m0 in its kernel
    relations = {0: {1: dom.make(R.one, m0)}}
    adapter = linalg.RingAdapter(dom)
    rows, pivots = linalg.echelon(adapter, [[R.one]], [1], relations)
    # 1/m0 has no value at point 0, which is skipped and counted; points 1
    # and 2 rebuild the denominator of degree k
    assert adapter.points_tried == 3
    assert (rows, pivots) == linalg.echelon(linalg.RingAdapter(CoeffDomain.generic(p)), [[R.neg(R.one), m0]])


@pytest.mark.parametrize("p", [2, 3])
def test_relation_past_one_point_needs_a_second(p):
    dom = CoeffDomain.generic(p)
    R = dom.ring
    F = point_field(p, 0)
    c = R.from_coeffs((0, 1))
    w = R.add(R.mul(c, F.modulus), R.one)  # degree k + 1, and 1 at point 0
    # A is the identity on columns 2 and 1, with e_0 + w e_2 + c e_1 in its kernel
    relations = {0: {2: (w, R.one), 1: (c, R.one)}}
    adapter = linalg.RingAdapter(dom)
    rows, pivots = linalg.echelon(adapter, [[R.zero, R.one], [R.one, R.zero]], [1, 2], relations)
    # point 0 rebuilds -w as -1, and only the degree bound on each row times
    # each relation rejects it there
    assert adapter.points_tried == 2
    full = [[R.neg(w), R.zero, R.one], [R.neg(c), R.one, R.zero]]
    assert (rows, pivots) == linalg.echelon(linalg.RingAdapter(CoeffDomain.generic(p)), full)


def _one_point(dom, A):
    """(colmax, used, rebuilt rows, pivots) of the route at the first point."""
    R = dom.ring
    F = point_field(dom.p, 0)
    rows, pivots = linalg.sparse_rref(F, at_point(F, A))
    used = [(F, rows)]
    colmax = [max(R.deg(row[j]) for row in A) for j in range(len(A[0]))]
    return colmax, used, linalg._reconstruct(R, used), pivots


@pytest.mark.parametrize("p", [2, 3])
def test_certificate_rejects_a_perturbed_entry(p):
    dom = CoeffDomain.generic(p)
    R = dom.ring
    c = R.from_coeffs((0, 1))
    c1 = R.add(c, R.one)
    A = [[c, R.one, c1, R.zero], [R.one, c1, R.mul(c, c), c], [c1, R.add(c1, c1), R.one, R.one]]
    colmax, used, rebuilt, pivots = _one_point(dom, A)
    ncols = len(A[0])

    def certified(rows):
        partners = linalg.natural_kernel(dom, rows, pivots, range(ncols))
        return linalg._certified(R, colmax, rows, partners, used)

    assert certified(rebuilt)
    row = dict(rebuilt[0])
    col = next(j for j in row if j not in pivots)
    num, den = row[col]
    row[col] = (R.add(num, den), den)  # the entry plus one
    assert not certified([row] + rebuilt[1:])


def test_certificate_needs_the_degree_bound():
    dom = CoeffDomain.generic(2)
    R = dom.ring
    c = R.from_coeffs((0, 1))
    A = [[R.one, c, R.mul(c, c)], [c, R.one, R.one]]
    colmax, used, rebuilt, pivots = _one_point(dom, A)
    partners = linalg.natural_kernel(dom, rebuilt, pivots, range(3))
    assert linalg._certified(R, colmax, rebuilt, partners, used)
    # the same rows, claimed for a matrix of degree 16 = the point's budget
    assert not linalg._certified(R, [16] * 3, rebuilt, partners, used)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_field_generator_has_full_order(p):
    F = point_field(p, 0)
    g = F.evaluate(F.ring.from_coeffs((0, 1)))

    def power(a, e):
        out = F.one
        while e:
            if e & 1:
                out = F.mul(out, a)
            a = F.mul(a, a)
            e >>= 1
        return out

    order = F.q - 1
    assert F.q == p**F.k <= 1 << 16 and F.q * p > 1 << 16
    assert power(g, order) == F.one
    ell, rest = 2, order
    while rest > 1:
        if rest % ell == 0:
            assert power(g, order // ell) != F.one
            while rest % ell == 0:
                rest //= ell
        ell += 1


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(0, 4), min_size=16, max_size=16),
    st.lists(st.integers(0, 4), min_size=16, max_size=16),
    st.integers(0, 1),
)
def test_table_field_matches_polynomial_arithmetic(p, xs, ys, j):
    F = point_field(p, j)
    R, m = F.ring, F.modulus
    a, b = R.from_coeffs(xs[: F.k]), R.from_coeffs(ys[: F.k])
    ea, eb = F.evaluate(a), F.evaluate(b)
    assert F.residue(ea) == a and F.residue(eb) == b
    assert F.residue(F.add(ea, eb)) == R.add(a, b)
    assert F.residue(F.sub(ea, eb)) == R.sub(a, b)
    assert F.residue(F.neg(ea)) == R.neg(a)
    assert F.residue(F.mul(ea, eb)) == R.divmod(R.mul(a, b), m)[1]
    # evaluating a polynomial of degree >= k reduces it mod m first
    big = R.mul(a, R.from_coeffs((0,) * F.k + (1,)))
    assert F.evaluate(big) == F.evaluate(R.divmod(big, m)[1])
    if a != R.zero:
        assert R.divmod(R.mul(F.residue(F.inv(ea)), a), m)[1] == R.one
        assert F.div(eb, ea) == F.mul(eb, F.inv(ea))
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(ea)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_field_row_update_matches_the_generic_one(p):
    # seeded random sparse rows; some entries are set to cancel, and on
    # every other trial the lead column of the pivot row cancels too
    F, rng = point_field(p, 0), random.Random(p)
    cancelled = lead_cancelled = 0
    for trial in range(600):
        cols = rng.sample(range(40), rng.randrange(1, 25))
        prow = {k: rng.randrange(1, F.q) for k in cols}
        row = {k: rng.randrange(1, F.q) for k in rng.sample(range(40), rng.randrange(0, 25))}
        fac = rng.randrange(1, F.q)
        for k in cols:
            if rng.random() < 0.3 or (trial % 2 and k == min(cols)):
                row[k] = F.mul(fac, prow[k])
        want, got = dict(row), dict(row)
        CoeffDomain.subtract_multiple(F, want, fac, prow)
        F.subtract_multiple(got, fac, F.prepare(prow))
        assert got == want and all(got.values())
        cancelled += len(row.keys() - got.keys())
        lead_cancelled += min(cols) not in got
    assert cancelled > lead_cancelled >= 300


def entrywise_product(p, rows, cols):
    """R * D over F_p[c] one coefficient convolution at a time, as GFPX tuples."""
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            acc = [0] * 16
            for k, v in col.items():
                for i, a in enumerate(row[k]):
                    for j, b in enumerate(v):
                        acc[i + j] += a * b
            coeffs = [x % p for x in acc]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            out_row.append(tuple(coeffs))
        out.append(out_row)
    return out


@st.composite
def odd_poly_products(draw):
    p = draw(st.sampled_from([3, 5]))
    R = CoeffDomain.generic(p).ring
    nrows, inner, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(0, 6))
    poly = st.lists(st.integers(0, p - 1), max_size=5).map(R.from_coeffs)
    rows = draw(st.lists(st.lists(poly, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
    cols = draw(st.lists(st.dictionaries(st.integers(0, inner - 1), poly), min_size=ncols, max_size=ncols))
    return p, rows, [{k: v for k, v in col.items() if v} for col in cols]


@settings(max_examples=80, deadline=None)
@given(odd_poly_products())
def test_packed_compose_matches_entrywise_product(case):
    p, rows, cols = case
    adapter = linalg.RingAdapter(CoeffDomain.generic(p))
    assert linalg.compose_rows_columns(adapter, rows, cols) == entrywise_product(p, rows, cols)


@pytest.mark.parametrize("p", [3, 5])
def test_packed_compose_has_room_for_the_largest_sums(p):
    # every coefficient p - 1 and every column full: the largest digit sums
    top = (p - 1,) * 6
    rows = [[top] * 40 for _ in range(3)]
    cols = [{k: top for k in range(40)} for _ in range(2)]
    adapter = linalg.RingAdapter(CoeffDomain.generic(p))
    assert linalg.compose_rows_columns(adapter, rows, cols) == entrywise_product(p, rows, cols)


def test_gf2_compose_has_room_for_the_longest_products():
    # F_2[c] bit masks with their top bits set and an odd number of terms per
    # column: each entry of R * D reaches bit length max_r + max_v - 1
    R, rng = CoeffDomain.generic(2).ring, random.Random(5)
    rows = [[rng.randrange(1 << 6, 1 << 7) for _ in range(9)] for _ in range(4)]
    cols = [{k: rng.randrange(1 << 4, 1 << 5) for k in rng.sample(range(9), size)} for size in (1, 3, 5, 9)]
    want = [[functools.reduce(R.add, (R.mul(row[k], v) for k, v in col.items()), R.zero) for col in cols] for row in rows]
    assert max(v.bit_length() for row in want for v in row) == 7 + 5 - 1
    adapter = linalg.RingAdapter(CoeffDomain.generic(2))
    assert linalg.compose_rows_columns(adapter, rows, cols) == want


@pytest.mark.parametrize("p", [3, 65521, 2**31 - 1])
def test_prime_field_compose_has_room_for_the_largest_sums(p):
    # every entry p - 1 and every column full: the largest sums of products
    rows = [[p - 1] * 40 for _ in range(3)]
    cols = [{k: p - 1 for k in range(40)} for _ in range(2)]
    adapter = linalg.RingAdapter(CoeffDomain.prime(p))
    want = [[sum(row[k] * v for k, v in col.items()) % p for col in cols] for row in rows]
    assert linalg.compose_rows_columns(adapter, rows, cols) == want

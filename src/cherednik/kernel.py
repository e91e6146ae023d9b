"""The contravariant form, its graded kernel, and membership certificates.

The pairing of a y-side monomial (y_{i_1}-y_n)^{a_1} ... (y_{n-1}-y_n)^{a_{n-1}}
against an x-side polynomial q is the constant term of the iterated Dunkl
image D^a q.  Degree by degree,

    ker B[d] = { f : D_{y_i - y_n} f  lies in  ker B[d-1]  for every i },

which turns each graded piece into a plain matrix kernel: stack the Dunkl
matrices composed with the previous degree's constraint rows and reduce the
stack once, from the right (``reduce_from_the_right``).
Only D_{y_1 - y_n} is computed term by term: s = (1 i) fixes y_n, so
D_{y_i - y_n} = s D_{y_1 - y_n} s, a re-indexing of its matrix.
An independent oracle builds the full Gram matrix by a degree recursion on
its rows, G_e[a] = G_{e-1}[a - e_j] * D_j, keeping every row, and reduces it;
it builds every slot's D_j directly.

Membership of a single polynomial is decided without any matrices by one
walk over iterated Dunkl images.  The operators commute, so the walk runs
over multisets of operator slots, up to the stabilizer of the polynomial
among slot permutations.  It stays upstairs on packed raw n-slot terms,
prunes empty images, and stops ``tail`` operators short of the degree:
tail 0 on the ``direct`` route, whose leaves are constants, and tail 3 on
the ``cutoff`` route.  The spare slots U that f does not use and the
multiset a has not touched are interchangeable on D^a f, since each
D_{y_j - y_n} with j, n outside U commutes with Sym(U); so a node keeps one
representative per Sym(U)-orbit, the term with nonincreasing U-exponents,
and the core weights each re-sorted output by mu_e', the number of U-slots
carrying its new exponent e'.  A child on the first untouched spare slot
j = U[0] first splits each orbit into Sym(U - {j})-orbits, one per value at
j.  The work per node no longer grows with n.  The leaves are expanded
back to plain terms, and only they are reduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .fields import CoeffDomain, RationalFunctionField, Scalar
from .poly import Monomial, ReducedPoly, monomial_index, monomials_of_degree
from .action import Transposition, apply_transposition
from .dunkl import DunklContext, dunkl_z, dunkl_z_raw, lift_raw, reduce_raw, split_orbits
from . import linalg


class ResourceLimitError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Graded kernel engine
# ---------------------------------------------------------------------------


def dunkl_columns(d: int, i: int, ctx: DunklContext) -> list[dict[int, object]]:
    """Matrix of D_{y_i - y_n} from degree d to d-1, column by column.

    Column k is dunkl_z of the k-th degree-d monomial as {row: ring value}
    in the degree-(d-1) basis; over F_p(c) every value is a polynomial in c.
    """
    dom = ctx.domain
    nv = ctx.nvars
    idx_prev = monomial_index(nv, d - 1)
    ring_one = dom.ring.one if isinstance(dom, RationalFunctionField) else None
    cols = []
    for m in monomials_of_degree(nv, d):
        col = {}
        for mm, v in dunkl_z(ReducedPoly(dom, nv, {m: dom.one}), i, ctx).terms.items():
            if ring_one is not None:
                if v[1] != ring_one:
                    raise AssertionError("Dunkl image must be polynomial in c")
                v = v[0]
            col[idx_prev[mm]] = v
        cols.append(col)
    return cols


def _slot_swap(nv: int, d: int, i: int) -> list[int]:
    """Index permutation of the degree-d monomials swapping exponent slots 1 and i."""
    idx = monomial_index(nv, d)
    return [idx[(m[i - 1],) + m[1 : i - 1] + (m[0],) + m[i:]] for m in monomials_of_degree(nv, d)]


def dunkl_matrices(d: int, ctx: DunklContext):
    """Yield the dunkl_columns matrices of D_{y_i - y_n} for i = 1..n-1.

    Only D_1 runs dunkl_z.  The transposition s = (1 i) fixes y_n, so
    D_{y_i - y_n} = s D_{y_1 - y_n} s, and s acts on reduced monomials by
    swapping exponent slots 1 and i: D_i(x^m) = s D_1(x^{s m}).  The ring
    values of D_1 are moved to their new indices, never recomputed.
    """
    first = dunkl_columns(d, 1, ctx)
    yield first
    nv = ctx.nvars
    for i in range(2, nv + 1):
        swap_prev = _slot_swap(nv, d - 1, i)
        yield [
            {swap_prev[r]: v for r, v in first[k].items()} for k in _slot_swap(nv, d, i)
        ]


def reduce_from_the_right(adapter: linalg.RingAdapter, rows: list[list], ncols: int):
    """(kernel rows, kernel pivots, constraint rows) from one RREF of the rows
    with their columns reversed; its rows, back in natural column order, span
    the row space, with denominators cleared and content 1."""
    ech_rows, ech_pivots = linalg.echelon(adapter, [row[::-1] for row in rows])
    rref = linalg.rref_scalar_rows(adapter, ech_rows, ech_pivots)
    kernel = linalg.kernel_from_rref(adapter.domain, rref, ech_pivots, ncols)
    return *kernel, [row[::-1] for row in ech_rows]


@dataclass
class DegreeData:
    """ker B[d] in canonical RREF and the constraint rows ``reduce_from_the_right`` gave."""

    degree: int
    dim_m: int
    kernel_rows: list[dict[int, object]]
    kernel_pivots: list[int]
    dim_l: int
    constraint_rows: list[list] = field(repr=False, default_factory=list)
    points: int = 0  # evaluation points the F_p(c) elimination tried, dropped ones included
    seconds: float = 0.0

    @property
    def dim_kernel(self) -> int:
        return len(self.kernel_rows)


class GradedKernel:
    """Per-degree reduced bases of ker B plus quotient data for the quotient."""

    def __init__(self, ctx: DunklContext):
        self.ctx = ctx
        self.adapter = linalg.RingAdapter(ctx.domain)
        self.first_zero_degree: int | None = None
        zero_data = DegreeData(
            degree=0,
            dim_m=1,
            kernel_rows=[],
            kernel_pivots=[],
            dim_l=1,
            constraint_rows=[[self.adapter.one]],
        )
        self.degrees: dict[int, DegreeData] = {0: zero_data}

    @property
    def completed(self) -> bool:
        """True once the run has reached the first degree with dim L = 0."""
        return self.first_zero_degree is not None

    # -- core computation -----------------------------------------------------

    def compute_degree(self, d: int) -> DegreeData:
        if d in self.degrees:
            return self.degrees[d]
        if d - 1 not in self.degrees:
            self.compute_degree(d - 1)
        start = time.perf_counter()
        ctx = self.ctx
        dom = ctx.domain
        adapter = self.adapter
        points_before = getattr(dom, "points_tried", 0)
        prev = self.degrees[d - 1]
        ncols = len(monomials_of_degree(ctx.nvars, d))
        stacked: list[list] = []
        if prev.dim_l:  # once L[d-1] = 0 there is nothing to pair with: ker B[d] is everything
            widths = None
            for cols_i in dunkl_matrices(d, ctx):
                if widths is None:  # every slot's matrix is a permutation of D_1's
                    widths = linalg.packing_widths(adapter, prev.constraint_rows, cols_i)
                stacked.extend(linalg.compose_rows_columns(adapter, prev.constraint_rows, cols_i, widths))
        kernel_rows, kernel_pivots, constraint_rows = reduce_from_the_right(adapter, stacked, ncols)
        points = getattr(dom, "points_tried", 0) - points_before
        data = DegreeData(
            d, ncols, kernel_rows, kernel_pivots, len(constraint_rows), constraint_rows,
            points, time.perf_counter() - start,
        )
        self.degrees[d] = data
        return data

    # -- views ------------------------------------------------------------------

    def dims(self) -> dict[int, tuple[int, int, int]]:
        """degree -> (dim M, dim ker, dim L) for every computed degree."""
        return {
            d: (dd.dim_m, dd.dim_kernel, dd.dim_l)
            for d, dd in sorted(self.degrees.items())
        }

    def basis_polys(self, d: int) -> list[ReducedPoly]:
        dd = self.degrees[d]
        monos = monomials_of_degree(self.ctx.nvars, d)
        dom = self.ctx.domain
        return [
            ReducedPoly(dom, self.ctx.nvars, {monos[c]: v for c, v in row.items()})
            for row in dd.kernel_rows
        ]

    def pivot_monomials(self, d: int) -> list[Monomial]:
        dd = self.degrees[d]
        monos = monomials_of_degree(self.ctx.nvars, d)
        return [monos[c] for c in dd.kernel_pivots]

    def reduce_poly(self, f: ReducedPoly, d: int) -> ReducedPoly:
        """Normal form of a degree-d polynomial modulo ker B[d]."""
        dd = self.degrees[d]
        idx = monomial_index(self.ctx.nvars, d)
        monos = monomials_of_degree(self.ctx.nvars, d)
        vec = {idx[m]: v for m, v in f.terms.items()}
        red = linalg.reduce_by_rref(
            self.ctx.domain, vec, dd.kernel_rows, dd.kernel_pivots
        )
        return ReducedPoly(
            self.ctx.domain, self.ctx.nvars, {monos[c]: v for c, v in red.items()}
        )

    # -- consistency checks -------------------------------------------------------

    def check_ideal_property(self, d: int) -> bool:
        """x_i * ker B[d] lies inside span(ker B[d+1])."""
        if d + 1 not in self.degrees:
            self.compute_degree(d + 1)
        for poly in self.basis_polys(d):
            for i in range(1, self.ctx.nvars + 1):
                shifted = poly.monomial_mul(
                    tuple(1 if k == i - 1 else 0 for k in range(self.ctx.nvars))
                )
                if not self.reduce_poly(shifted, d + 1).is_zero():
                    return False
        return True

    def check_sn_invariance(self, d: int, pairs) -> bool:
        """sigma_{ab} ker B[d] = ker B[d] for the given index pairs."""
        for a, b in pairs:
            for poly in self.basis_polys(d):
                moved = apply_transposition(poly, Transposition(a, b), self.ctx.n)
                if not self.reduce_poly(moved, d).is_zero():
                    return False
        return True


def kernel_at_degree(d: int, prior: GradedKernel, ctx: DunklContext):
    """Basis of ker B[d] via the recursive adjointness method."""
    if prior.ctx is not ctx and prior.ctx != ctx:
        raise ValueError("prior kernel was computed for a different context")
    if d < 1:
        raise ValueError("kernel degrees start at 1; ker B[0] = {0}")
    prior.compute_degree(d)
    return prior.basis_polys(d)


def default_degree_cap(n: int, p: int, t: int) -> int:
    """Provable support bound: the quotient sits inside the baby Verma
    module, whose series ends at (p for t=1) * (2+3+...+n) - (n-1)."""
    step = p if t == 1 else 1
    top = step * (n * (n + 1) // 2 - 1) - (n - 1)
    return max(n + 10, top + 3)


def compute_graded_kernel(
    ctx: DunklContext,
    max_degree: int | None = None,
    budget_seconds: float | None = None,
) -> GradedKernel:
    """Run the engine up to the first degree with dim L = 0, and no further.

    L = k[x]/ker B is generated by 1 in degree 0, so L[d] = 0 forces L[e] = 0
    for every e >= d.  The default hard cap is the baby-Verma support bound
    (never below n + 10), past which dim L provably vanishes.  A run stopped
    by ``max_degree`` or by ``budget_seconds`` (checked before each degree)
    returns the degrees it finished, with ``completed`` False.
    """
    cap = (
        max_degree
        if max_degree is not None
        else default_degree_cap(ctx.n, ctx.p, ctx.t)
    )
    gk = GradedKernel(ctx)
    start = time.monotonic()
    for d in range(1, cap + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            break
        if gk.compute_degree(d).dim_l == 0:
            gk.first_zero_degree = d
            break
    return gk


# ---------------------------------------------------------------------------
# Contravariant pairing and the Gram-matrix oracle
# ---------------------------------------------------------------------------


def contravariant_pairing(a: tuple[int, ...], f: ReducedPoly, ctx: DunklContext) -> Scalar:
    """B(y^a, f): apply D_{y_i - y_n} a_i times, take the constant term."""
    if len(a) != ctx.nvars:
        raise ValueError("exponent vector length must be n-1")
    if sum(a) != (f.degree() or 0):
        raise ValueError("pairing needs matching degrees")
    g = f
    for i, e in enumerate(a, start=1):
        for _ in range(e):
            g = dunkl_z(g, i, ctx)
    return Scalar(ctx.domain, g.constant_term())


def _multiset_children(a: tuple[int, ...], nv: int):
    """Children a + e_j for j at or after the last nonzero slot (1-based)."""
    last = 0
    for j in range(nv, 0, -1):
        if a[j - 1]:
            last = j
            break
    for j in range(max(last, 1), nv + 1):
        yield j, a[: j - 1] + (a[j - 1] + 1,) + a[j:]


def _pairings(f: ReducedPoly, d: int, ctx: DunklContext):
    """All pairings B(a, f) for |a| = d: the constants at the leaves of
    ``_walk`` with every slot in a symmetry class of its own."""
    leaves = _walk(f, d, [[i] for i in range(1, ctx.nvars + 1)], ctx)
    return {a: reduce_raw(g, ctx).constant_term() for a, g in leaves.items()}


def gram_rows(d: int, ctx: DunklContext) -> list[list]:
    """The Gram matrix G_d[a][m] = B(y^a, x^m) as dense rows of ring values.

    Rows (y-multisets a) and columns (monomials m) both follow the order of
    monomials_of_degree.  The operators commute, so with j the last nonzero
    slot of a, G_e[a] = G_{e-1}[a - e_j] * D_j, D_j = dunkl_columns(e, j):
    one compose per slot and degree from G_0 = [[1]], keeping every row and
    eliminating nothing between degrees.  The packing widths are taken once
    per degree, over all of G_{e-1}, which holds every slot's rows.
    """
    nv = ctx.nvars
    adapter = linalg.RingAdapter(ctx.domain)
    gram = [[adapter.one]]
    for e in range(1, d + 1):
        idx_prev = monomial_index(nv, e - 1)
        by_slot: dict[int, list[tuple[int, ...]]] = {}
        for a in monomials_of_degree(nv, e):
            j = max(k for k in range(nv) if a[k])
            by_slot.setdefault(j, []).append(a)
        nxt, widths = {}, None
        for j, multisets in by_slot.items():
            below = [gram[idx_prev[a[:j] + (a[j] - 1,) + a[j + 1:]]] for a in multisets]
            cols = dunkl_columns(e, j + 1, ctx)
            if widths is None:  # the slots' matrices are permutations of one another
                widths = linalg.packing_widths(adapter, gram, cols)
            nxt.update(zip(multisets, linalg.compose_rows_columns(adapter, below, cols, widths)))
        gram = [nxt[a] for a in monomials_of_degree(nv, e)]
    return gram


def gram_oracle_kernel(
    d: int, ctx: DunklContext, max_pairings: int = 2_000_000
):
    """Kernel of the full Gram matrix at degree d (independent oracle).

    Returns (kernel rows, pivot columns) in the same canonical RREF form as
    the recursive engine, so results are directly comparable.
    """
    if d == 0:
        return [], []
    n_monos = len(monomials_of_degree(ctx.nvars, d))
    if n_monos * n_monos > max_pairings:
        raise ResourceLimitError(
            f"Gram matrix would need {n_monos * n_monos} pairings; "
            "use the recursive kernel engine instead"
        )
    return reduce_from_the_right(linalg.RingAdapter(ctx.domain), gram_rows(d, ctx), n_monos)[:2]


# ---------------------------------------------------------------------------
# Membership and singularity of a single polynomial
# ---------------------------------------------------------------------------


@dataclass
class Membership:
    member: bool
    witness: tuple[int, ...] | None = None
    witness_value: Scalar | None = None
    method: str = "direct"

    def __bool__(self):
        return self.member


def slot_symmetry_classes(f: ReducedPoly, ctx: DunklContext) -> list[list[int]]:
    """Group operator slots 1..n-1 into classes interchangeable on f."""
    nv = ctx.nvars
    parent = list(range(nv + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    support = [i for i in range(1, nv + 1) if any(m[i - 1] for m in f.terms)]
    spare = [i for i in range(1, nv + 1) if i not in support]
    for k in range(len(spare) - 1):
        parent[find(spare[k + 1])] = find(spare[k])
    for ai in range(len(support)):
        for bi in range(ai + 1, len(support)):
            a, b = support[ai], support[bi]
            if find(a) == find(b):
                continue
            swapped = apply_transposition(f, Transposition(a, b), ctx.n)
            if swapped == f:
                parent[find(b)] = find(a)
    classes: dict[int, list[int]] = {}
    for i in range(1, nv + 1):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


def _canonical(a: tuple[int, ...], classes: list[list[int]]) -> bool:
    for cls in classes:
        prev = None
        for i in cls:
            cur = a[i - 1]
            if prev is not None and cur > prev:
                return False
            prev = cur
    return True


def _walk(f: ReducedPoly, depth: int, classes, ctx: DunklContext) -> dict:
    """The upstairs images D^a f for the canonical multisets |a| = depth.

    Each multiset has one parent (drop one from its last nonzero slot), and
    that parent is canonical too.  The images stay packed raw n-slot terms;
    a branch is pruned when its raw image is empty.  A node's orbit slots U
    are the slots of the spare class (the slots f does not use, when there
    are two or more) that a has not touched.  The leaves come back as plain
    terms.
    """
    nv, n = ctx.nvars, ctx.n
    used = {k for m in f.terms for k in range(1, nv + 1) if m[k - 1]}
    spare = next((tuple(cls) for cls in classes if len(cls) > 1 and used.isdisjoint(cls)), ())
    level = {(0,) * nv: (lift_raw(f), spare)}
    for _ in range(depth):
        nxt = {}
        for a, (g, orbit) in level.items():
            for j, child in _multiset_children(a, nv):
                if not _canonical(child, classes):
                    continue
                src, rest = g, orbit
                if orbit and j == orbit[0]:
                    src, rest = split_orbits(g, n, orbit), orbit[1:]
                if (img := dunkl_z_raw(src, j, ctx, rest)).groups:
                    nxt[child] = (img, rest)
        level = nxt
    leaves = {}
    for a, (g, orbit) in level.items():
        for k in range(len(orbit)):
            g = split_orbits(g, n, orbit[k:])
        leaves[a] = g
    return leaves


def is_in_kernel(f: ReducedPoly, ctx: DunklContext, method: str | None = None) -> Membership:
    """Decide f in ker B, with a nonzero-pairing witness on failure.

    The walk stops ``tail`` operators short of the degree and reduces each
    leaf: ``direct`` walks all the way (tail 0, every leaf a constant);
    ``cutoff`` stops at tail 3, enough in characteristic 2 at t=1, generic c
    and odd n, where ker B[3] = 0, so a nonzero degree-3 leaf always has a
    nonzero pairing.
    """
    if f.is_zero():
        return Membership(True, method="trivial")
    d = f.degree()
    if d is None or not f.is_homogeneous():
        raise ValueError("membership test needs a homogeneous polynomial")
    if method is None:
        fast_ok = (
            ctx.p == 2
            and ctx.t == 1
            and isinstance(ctx.domain, RationalFunctionField)
            and ctx.n % 2 == 1
            and d > 4
            and ctx.n >= 7
        )
        method = "cutoff" if fast_ok else "direct"
    tail = {"direct": 0, "cutoff": 3}.get(method)
    if tail is None:
        raise ValueError(f"unknown membership method {method!r}")
    leaves = _walk(f, d - tail, slot_symmetry_classes(f, ctx), ctx)
    for a in sorted(leaves):
        image = reduce_raw(leaves[a], ctx)
        if image.is_zero():
            continue
        pairs = _pairings(image, tail, ctx)
        for b in sorted(pairs):
            if not ctx.domain.is_zero(pairs[b]):
                witness = tuple(x + y for x, y in zip(a, b))
                return Membership(False, witness, Scalar(ctx.domain, pairs[b]), method)
        raise AssertionError(
            "nonzero degree-3 image with no nonzero pairing; "
            "ker B[3] = 0 should make this impossible"
        )
    return Membership(True, method=method)


def is_singular(f: ReducedPoly, ctx: DunklContext) -> bool:
    """True iff every Dunkl operator difference annihilates f exactly."""
    if f.is_zero():
        return True
    for i in range(1, ctx.nvars + 1):
        if not dunkl_z(f, i, ctx).is_zero():
            return False
    return True

"""The contravariant form, its graded kernel, and membership certificates.

The pairing of a y-side monomial (y_{i_1}-y_n)^{a_1} ... (y_{n-1}-y_n)^{a_{n-1}}
against an x-side polynomial q is the constant term of the iterated Dunkl
image D^a q.  Degree by degree,

    ker B[d] = { f : D_{y_i - y_n} f  lies in  ker B[d-1]  for every i },

which turns each graded piece into a plain matrix kernel: stack the Dunkl
matrices composed with the previous degree's constraint rows and reduce the
stack once, from the right (``linalg.echelon``).  Columns stay in graded-lex
order throughout.  Each RREF row's pivot is its largest column; the pivots
are the standard monomials S_d, |S_d| = dim L[d], and the rows are the next
degree's constraint rows.  A degree keeps only these rows and S_d, the
quotient L[d] = k[x]_d / ker B[d]: the kernel basis is a view derived on
read (``GradedKernel.kernel``, ``kernel_basis``), free column f giving the
canonical kernel vector v_f = e_f minus column f of the rows, and the normal
form of f has the coefficient row_s . f / row_s[s] at each s in S_d.
Only R D_1 is composed, R the constraint rows and D_i the matrix of
D_{y_i - y_n}.  s = (1 i) fixes y_n and permutes monomials by P_s, so
R D_i = (R P_s) D_1 P_s, and R P_s = G R with G invertible, as the row space
of R, ker B[d-1]^perp, is S_{n-1}-stable: the rows of R D_1 with their
columns permuted by s span the row space of R D_i.
The stack is built and reduced on the staircase of ker B only.  ker B is an
H-submodule of k[x], so an ideal: x_j ker B[d-1] lies in ker B[d].  A
degree-d monomial m is live, in C_d, iff m / x_j lies in S_{d-1} for every
x_j dividing m.  A dead m has a free divisor f = m / x_j; the one with the
largest j, the lex-largest, gives the relation x_j v_f, 1 at m with its
other entries w_m right of m, as x_j keeps the term order.  A row of the
row space that is zero on C_d is zero at each dead m in turn, from the
right, so the restriction to C_d is injective on the row space: the RREF on
C_d is the RREF of the stack built on C_d alone, and each of its rows
extends to the dead columns by r_m = -sum_k r_k w_m[k] (``linalg.extend``).
D_1 is built only on C_d and its images under the slot swaps; an empty C_d
means L[d] = 0.
An independent oracle builds the full Gram matrix by a degree recursion on
its rows, G_e[a] = G_{e-1}[a - e_j] * D_j, keeping every row, and reduces
G_d alone on every column with no relations; of its Dunkl matrices only
D_{n-1} is built, D_j = s D_{n-1} s with s = (j n-1), which fixes y_n.  The
recursion runs once per context: the levels G_0..G_e of the last context are
held, sum_{e<=d} M_e^2 entries, and a call for a higher degree extends them.

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
j.  The work per node no longer grows with n.  Each leaf is expanded back
to plain terms in one pass, every representative sent straight to each
distinct arrangement of its U-values, and only the leaves are reduced.
``is_in_kernel`` holds its last walk, which a walk at n' > n carries when
n' = n (mod p) and the domain, t, depth and f, padded with zero slots, are
the same: slot n of each key moves to n', and slots n..n'-1 join the end of
U.  A core call is safe when rest is nonempty and each split input term is
zero on the last slot of rest.  On the moved input a safe call gives the
moved image: ``zeros`` and the zero run's weight mu_0 grow by n' - n = 0
(mod p), every other weight and spare-slot table stays, a zero-run slot
raised to e' > 0 re-sorts onto a nonzero slot or the run's first, slots U
has at n too, and a split finds the same values, 0 among them.  So a node
is carried when its parent is (the root is) and the call that built it at n
was safe, and a child such a call pruned stays pruned; a node with empty U
at n had an empty rest, so no carried node has a child on a new slot.  The
rest is computed afresh; the record keeps the leaves before expansion and
the carried parents of unsafe calls, and each n expands its own leaves.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from .fields import RationalFunctionField, Scalar
from .poly import ReducedPoly, monomial_index, monomials_of_degree
from .action import Transposition, apply_transposition
from .dunkl import DunklContext, Packed, dunkl_z, dunkl_z_raw, lift_raw, pack_monomial, packed_index, reduce_groups, reduce_raw, split_orbits
from . import linalg


class ResourceLimitError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Graded kernel engine
# ---------------------------------------------------------------------------


def dunkl_columns(d: int, i: int, ctx: DunklContext, monomials=None) -> list[dict[int, object]]:
    """Matrix of D_{y_i - y_n} from degree d to d-1, column by column.

    Column k is the image of the k-th of ``monomials`` (by default every
    degree-d monomial) as {row: ring value} in the degree-(d-1) basis.  One
    core pass builds every column, monomial k as group k of denominator 1,
    so over F_p(c) every value is in F_p[c].  Tests and ``cherednik
    selftest`` check the columns against divided differences.
    """
    nv, one = ctx.nvars, linalg.RingAdapter.of(ctx.domain).one
    monos = monomials_of_degree(nv, d) if monomials is None else monomials
    nb = max(1, (d.bit_length() + 7) // 8)
    f = Packed(nb, [(k, {pack_monomial(m, nb): one}) for k, m in enumerate(monos)])
    rows, cols = packed_index(nv, d - 1, nb), [{} for _ in monos]
    for k, image in reduce_groups(dunkl_z_raw(f, i, ctx), ctx):
        cols[k] = {rows[key]: v for key, v in image.items()}
    return cols


def _stacked_rows(R: list[list], d: int, ctx: DunklContext, cols) -> list[list]:
    """On the columns ``cols``: the rows of R D_1, then for each i = 2..n-1
    the same rows with their columns permuted by s = (1 i), a stack with the
    row space of all R D_i.  D_1 is built on cols and their images under
    every s only."""
    nv = ctx.nvars
    monos, idx = monomials_of_degree(nv, d), monomial_index(nv, d)
    swaps = [cols] + [
        [idx[(m[i - 1],) + m[1 : i - 1] + (m[0],) + m[i:]] for m in (monos[k] for k in cols)]
        for i in range(2, nv + 1)
    ]
    built = sorted(set().union(*swaps))
    at = {k: pos for pos, k in enumerate(built)}
    first = linalg.compose_rows_columns(
        linalg.RingAdapter.of(ctx.domain), R, dunkl_columns(d, 1, ctx, [monos[k] for k in built])
    )
    return [[row[j] for j in positions] for positions in ([at[k] for k in swap] for swap in swaps) for row in first]


def _staircase(pivots: list[int], rref: list[dict], d: int, nv: int, domain) -> tuple[list[int], dict[int, dict]]:
    """(live columns, relations) of degree d: the staircase of ker B.

    ``pivots`` is S_{d-1} and ``rref`` the degree-(d-1) RREF rows, pivot
    entries 1.  m is live iff m / x_j lies in S_{d-1} for every x_j dividing
    m.  A dead m takes the free f = m / x_j with the largest j: x_j v_f is a
    vector of ker B[d] that is 1 at m, and the relation w_m holds its other
    entries, minus column f of the rows moved by x_j, all right of m, as x_j
    keeps the column order.  With no live column there is no row to extend,
    and no relation is built.
    """
    prev, standard = monomial_index(nv, d - 1), set(pivots)
    live, dead = [], {}
    for k, m in enumerate(monomials_of_degree(nv, d)):
        for j in range(nv - 1, -1, -1):
            if m[j] and (f := prev[m[:j] + (m[j] - 1,) + m[j + 1 :]]) not in standard:
                dead[k] = f, j
                break
        else:
            live.append(k)
    if not live:
        return [], {}
    monos, idx, column = monomials_of_degree(nv, d - 1), monomial_index(nv, d), {}
    for s, row in zip(pivots, rref):
        for f, v in row.items():
            column.setdefault(f, []).append((s, domain.neg(v)))

    def shift(k: int, j: int) -> int:
        m = monos[k]
        return idx[m[:j] + (m[j] + 1,) + m[j + 1 :]]

    return live, {m: {shift(s, j): v for s, v in column.get(f, ())} for m, (f, j) in dead.items()}


def kernel_basis(adapter: linalg.RingAdapter, rows: list[list], pivots: list[int], ncols: int):
    """ker A in canonical RREF, (rows, pivots), from the rows and pivots
    ``linalg.echelon`` gives for A: its RREF from the right."""
    rref = linalg.rref_scalar_rows(adapter, rows, pivots)
    return linalg.kernel_from_rref(adapter.domain, rref, pivots, ncols)


@dataclass
class DegreeData:
    """Degree d of the quotient: the constraint rows, the RREF from the right
    of ker B[d]^perp as ``linalg.echelon`` gives it, and their pivots S_d."""

    degree: int
    dim_m: int
    constraint_rows: list[list] = field(repr=False)
    pivots: list[int]
    live: int = 1  # |C_d|: the columns left after the relations from degree d-1
    points: int = 0  # evaluation points the F_p(c) elimination tried, dropped ones included
    seconds: float = 0.0

    @property
    def dim_l(self) -> int:
        return len(self.pivots)

    @property
    def dim_kernel(self) -> int:
        return self.dim_m - len(self.pivots)


class GradedKernel:
    """Per-degree constraint rows and standard monomials of the quotient by ker B."""

    def __init__(self, ctx: DunklContext):
        self.ctx = ctx
        self.adapter = linalg.RingAdapter.of(ctx.domain)
        self.first_zero_degree: int | None = None
        # degree 0: M = L = k, no kernel, the constraint row 1
        self.degrees: dict[int, DegreeData] = {0: DegreeData(0, 1, [[self.adapter.one]], [0])}

    @property
    def completed(self) -> bool:
        """True once the run has reached the first degree with dim L = 0."""
        return self.first_zero_degree is not None

    # -- core computation -----------------------------------------------------

    def compute_degree(self, d: int) -> DegreeData:
        if d in self.degrees:
            return self.degrees[d]
        if d < 0:
            raise ValueError(f"degree {d} is negative")
        if d - 1 not in self.degrees:
            self.compute_degree(d - 1)
        start = time.perf_counter()
        ctx, adapter = self.ctx, self.adapter
        points_before, prev = adapter.points_tried, self.degrees[d - 1]
        rref = linalg.rref_scalar_rows(adapter, prev.constraint_rows, prev.pivots)
        live, relations = _staircase(prev.pivots, rref, d, ctx.nvars, ctx.domain)
        # no live column: L[d] = 0 and ker B[d] = M[d], with no Dunkl image built
        stacked = _stacked_rows(prev.constraint_rows, d, ctx, live) if live else []
        rows, pivots = linalg.echelon(adapter, stacked, live, relations)
        data = DegreeData(
            d, len(monomials_of_degree(ctx.nvars, d)), rows, pivots, len(live),
            adapter.points_tried - points_before, time.perf_counter() - start,
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

    def kernel(self, d: int):
        """ker B[d] in canonical RREF, (rows, pivots), derived from degree d's
        constraint rows, which are computed first if need be."""
        dd = self.compute_degree(d)
        return kernel_basis(self.adapter, dd.constraint_rows, dd.pivots, dd.dim_m)

    def basis_polys(self, d: int) -> list[ReducedPoly]:
        monos = monomials_of_degree(self.ctx.nvars, d)
        return [
            ReducedPoly(self.ctx.domain, self.ctx.nvars, {monos[c]: v for c, v in row.items()})
            for row in self.kernel(d)[0]
        ]

    def reduce_poly(self, f: ReducedPoly, d: int) -> ReducedPoly:
        """Normal form of a degree-d polynomial modulo ker B[d]: at each s in
        S_d the coefficient row_s . f / row_s[s], row_s the constraint row
        with pivot s, the value reduction by the kernel basis gives."""
        dd, dom, nv = self.compute_degree(d), self.ctx.domain, self.ctx.nvars
        idx, monos = monomial_index(nv, d), monomials_of_degree(nv, d)
        vec, zero, div = [(idx[m], v) for m, v in f.terms.items()], self.adapter.zero, self.adapter.scalar_div
        terms = {}
        for row, s in zip(dd.constraint_rows, dd.pivots):
            acc = dom.zero
            for k, v in vec:
                if row[k] != zero:
                    acc = dom.add(acc, dom.mul(div(row[k], row[s]), v))
            if not dom.is_zero(acc):
                terms[monos[s]] = acc
        return ReducedPoly(dom, nv, terms)

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


@functools.lru_cache(maxsize=1)
def _gram_levels(ctx: DunklContext) -> list[list[list]]:
    """G_0, G_1, ... of the last context ``gram_rows`` served, which extends
    the list; a new context replaces it, so one context's levels are alive."""
    return [[[linalg.RingAdapter.of(ctx.domain).one]]]


def _swapped_columns(core: list[dict], d: int, i: int, nv: int) -> list[dict]:
    """D_i of degree d from core = D_{n-1}: s = (i n-1) fixes y_n and
    D_i = s D_{n-1} s, so column s(m) of D_i is column m of core with each
    row k moved to s(k), s swapping exponent slots i and n-1."""
    if i == nv:
        return core
    s = [[monomial_index(nv, e)[m[: i - 1] + m[-1:] + m[i:-1] + m[i - 1 : i]] for m in monomials_of_degree(nv, e)]
         for e in (d - 1, d)]
    return [{s[0][k]: v for k, v in core[q].items()} for q in s[1]]


def gram_rows(d: int, ctx: DunklContext) -> list[list]:
    """The Gram matrix G_d[a][m] = B(y^a, x^m) as dense rows of ring values.

    Rows (y-multisets a) and columns (monomials m) both follow the order of
    monomials_of_degree.  The operators commute, so with j the last nonzero
    slot of a, G_e[a] = G_{e-1}[a - e_j] * D_j: one compose per slot and
    degree from G_0 = [[1]], keeping every row and eliminating nothing
    between degrees, and one core pass per degree, for D_{n-1}, whose
    relabelings give the other D_j (``_swapped_columns``).  One recursion
    runs per context: the levels G_0..G_e built so far are held
    (``_gram_levels``), a call for d <= e returns level d and one for d > e
    extends them from G_e.  They hold sum_{e<=d} M_e^2 entries, M_e the
    number of degree-e monomials, where G_d alone is M_d^2.  The returned
    rows are those held: callers only read them.
    """
    if d < 0:
        raise ValueError(f"degree {d} is negative")
    nv, levels = ctx.nvars, _gram_levels(ctx)
    adapter = linalg.RingAdapter.of(ctx.domain)
    for e in range(len(levels), d + 1):
        gram, idx_prev = levels[-1], monomial_index(nv, e - 1)
        by_slot: dict[int, list[tuple[int, ...]]] = {}
        for a in monomials_of_degree(nv, e):
            j = max(k for k in range(nv) if a[k])
            by_slot.setdefault(j, []).append(a)
        nxt, core = {}, dunkl_columns(e, nv, ctx)
        for j, multisets in by_slot.items():
            below = [gram[idx_prev[a[:j] + (a[j] - 1,) + a[j + 1:]]] for a in multisets]
            cols = _swapped_columns(core, e, j + 1, nv)
            nxt.update(zip(multisets, linalg.compose_rows_columns(adapter, below, cols)))
        levels.append([nxt[a] for a in monomials_of_degree(nv, e)])
    return levels[d]


def gram_oracle_kernel(
    d: int, ctx: DunklContext, max_pairings: int = 2_000_000
):
    """Kernel of the full Gram matrix at degree d (independent oracle).

    Returns (kernel rows, pivot columns) in the same canonical RREF form as
    the recursive engine, so results are directly comparable.  The size
    check comes before any level is built; ``gram_rows`` holds the levels
    of ctx, so asking for degrees 1, 2, ..., D builds each level once, and
    ``linalg.echelon`` reduces G_d without changing the rows held.
    """
    n_monos = len(monomials_of_degree(ctx.nvars, d))
    if n_monos * n_monos > max_pairings:
        raise ResourceLimitError(
            f"Gram matrix would need {n_monos * n_monos} pairings; "
            "use the recursive kernel engine instead"
        )
    adapter = linalg.RingAdapter.of(ctx.domain)
    return kernel_basis(adapter, *linalg.echelon(adapter, gram_rows(d, ctx)), n_monos)


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
    """Group operator slots 1..n-1 into classes interchangeable on f.

    Being fixed by (a b) is an equivalence on slots, as (a c) = (a b)(b c)(a b):
    so a slot f uses joins the first class whose first member it swaps with,
    f unchanged, or starts its own, and the slots f does not use form one."""
    nv = ctx.nvars
    used = [i for i in range(1, nv + 1) if any(m[i - 1] for m in f.terms)]
    classes: list[list[int]] = []
    for b in used:
        for cls in classes:
            if apply_transposition(f, Transposition(cls[0], b), ctx.n) == f:
                cls.append(b)
                break
        else:
            classes.append([b])
    spare = [i for i in range(1, nv + 1) if i not in used]
    return sorted(classes + [spare] if spare else classes)


def _canonical(a: tuple[int, ...], classes: list[list[int]]) -> bool:
    for cls in classes:
        prev = None
        for i in cls:
            cur = a[i - 1]
            if prev is not None and cur > prev:
                return False
            prev = cur
    return True


@functools.lru_cache(maxsize=1)
def _held_walk() -> dict:
    """The record of ``is_in_kernel``'s last walk, under "walk": one is held."""
    return {}


def _moved(g: Packed, n: int, n2: int) -> Packed:
    """g with slot n of its packed keys moved to slot n2 > n, slots n..n2-1 empty."""
    s, up = 8 * g.nb * (n - 1), 8 * g.nb * (n2 - n)
    return Packed(g.nb, [(den, {k & (1 << s) - 1 | k >> s << s + up: v for k, v in t.items()}) for den, t in g.groups])


def _walk(f: ReducedPoly, depth: int, classes, ctx: DunklContext, held: dict | None = None) -> dict:
    """The upstairs images D^a f for the canonical multisets |a| = depth.

    Each multiset has one parent (drop one from its last nonzero slot), and
    that parent is canonical too.  The images stay packed raw n-slot terms;
    a branch is pruned when its raw image is empty.  A node's orbit slots U
    are the slots of the spare class (the slots f does not use, when there
    are two or more) that a has not touched.  The leaves come back as plain
    terms.  With ``held``, the walk carries the record held there when the
    module docstring allows it, and leaves its own record in its place.
    """
    nv, n = ctx.nvars, ctx.n
    used = {k for m in f.terms for k in range(1, nv + 1) if m[k - 1]}
    spare = next((tuple(cls) for cls in classes if len(cls) > 1 and used.isdisjoint(cls)), ())
    root, safe, parents, last = lift_raw(f), {}, {}, held.get("walk") if held else None
    if last and last[:3] == (ctx.domain, ctx.t, depth) and n > last[3] and not (n - last[3]) % ctx.p:
        pad = (0,) * (n - last[3])
        if {m + pad: v for m, v in last[4].items()} == f.terms:
            safe, parents = ({a + pad: g for a, g in part.items()} for part in last[5:])
            move = functools.partial(_moved, n=last[3], n2=n)
    full, kept, kept_parents = (1 << 8 * root.nb) - 1, {}, {}
    level = {(0,) * nv: (root, spare)}
    for step in range(depth, 0, -1):
        nxt = {}
        for a, (g, orbit) in level.items():
            flagged = a in kept or not any(a)
            for j, child in _multiset_children(a, nv):
                if not _canonical(child, classes):
                    continue
                split = orbit and j == orbit[0]
                rest = orbit[1:] if split else orbit
                if child in safe:  # a safe call built it at the last n: moved, or pruned
                    img, ok = safe[child] and move(safe[child]), True
                else:
                    if g is None:
                        g = move(parents[a])
                    src = split_orbits(g, n, orbit, rest) if split else g
                    img, at = dunkl_z_raw(src, j, ctx, rest), 8 * root.nb * (rest[-1] - 1) if rest else 0
                    ok = flagged and bool(rest) and not any(k >> at & full for _, t in src.groups for k in t)
                if ok:  # the next walk may carry the child
                    kept[child] = None if step > 1 and img and img.groups else img
                elif flagged:
                    kept_parents[a] = g
                if img is None or img.groups:
                    nxt[child] = (img, rest)
        level = nxt
    if held is not None:
        held["walk"] = (ctx.domain, ctx.t, depth, n, f.terms, kept, kept_parents)
    return {a: split_orbits(g, n, orbit, ()) if orbit else g for a, (g, orbit) in level.items()}


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
    leaves = _walk(f, d - tail, slot_symmetry_classes(f, ctx), ctx, _held_walk())
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

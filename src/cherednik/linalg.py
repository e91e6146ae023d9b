"""Exact row reduction over F_p, F_p(c) and the table fields F_{p^k}.

The kernel engine needs three things, all deterministic:

  * compose A = R * D column-by-column, where R is a small dense matrix of
    ring values (the constraint rows of the previous degree) and D is a
    sparse Dunkl matrix whose entries have tiny c-degree;
  * the canonical RREF of A from the right (A with its columns reversed):
    its rows span the row space of A, and its free columns give the kernel
    of A, in canonical RREF under the graded-lex column order, as it stands.

One routine eliminates: ``sparse_rref``, over a field, on sparse rows.
Over F_p it reduces the stacked matrix itself.  Over F_p(c) an F_p[c]
matrix is evaluated at points of small table fields, reduced there by the
same routine, rebuilt by CRT and rational reconstruction and certified
exactly by a degree bound (``_modular_rref`` gives the proof).  The field
supplies the inner row update (``CoeffDomain.subtract_multiple``) on pivot
rows it has put in its own form once (``prepare``): a table field keeps a
pivot row as logs, so each entry of row - f * pivot is one exp lookup and an
XOR at p = 2, or an inline Zech step at odd p.
Characteristic-2 rows are packed into single big integers (entries are
F_2[c] bitmasks laid side by side) so that the inner product against a
sparse column is a handful of shifts and XORs.  At odd p an entry becomes an
int by c -> 2^digit (Kronecker substitution) and rows are packed the same
way, with additions in place of XORs.
"""

from __future__ import annotations

from .fields import CoeffDomain, PrimeField, RationalFunctionField, point_field


class RingAdapter:
    """Conversions between raw coefficient values and field scalars."""

    def __init__(self, domain: CoeffDomain):
        self.domain = domain
        self.is_generic = isinstance(domain, RationalFunctionField)
        self.ring = getattr(domain, "ring", None)
        if self.is_generic:
            self.zero = self.ring.zero
            self.one = self.ring.one
        else:
            self.zero = domain.from_int(0)
            self.one = domain.from_int(1)

    def strip_row(self, row):
        """Divide a row by its content (generic mode).  Nothing calls it, as
        ``echelon`` rows have content 1; the benchmark tracer binds the name."""
        if not self.is_generic:
            return row
        R = self.ring
        g = self.zero
        for v in row:
            if v == self.zero:
                continue
            g = R.gcd(g, v)
            if R.deg(g) == 0:
                return row if g == self.one else row
        if g == self.zero or R.deg(g) == 0:
            return row
        return [R.divmod(v, g)[0] if v != self.zero else v for v in row]

    def scalar_div(self, a, b):
        """Field division of two ring values, as a domain scalar."""
        if self.is_generic:
            return self.domain.make(a, b)
        return self.domain.div(a, b)

    def clear_denominators(self, scalar_row: dict, ncols: int) -> list:
        """Sparse dict of field scalars -> dense row of ring values, times the lcm
        of the denominators."""
        dense = [self.zero] * ncols
        if not self.is_generic:
            for col, v in scalar_row.items():
                dense[col] = v
            return dense
        R = self.ring
        den = self.one
        for num, d in scalar_row.values():
            if d != self.one:
                g = R.gcd(den, d)
                den = R.mul(den, R.divmod(d, g)[0])
        for col, (num, d) in scalar_row.items():
            dense[col] = R.mul(num, R.divmod(den, d)[0])
        return dense


# ---------------------------------------------------------------------------
# A = R * D composition with packing fast paths
# ---------------------------------------------------------------------------


def _gf2_pack_columns(rows: list[list[int]], width: int) -> list[int]:
    """Pack column k of an int-bitmask matrix into one big int (xor algebra)."""
    ncols = len(rows[0]) if rows else 0
    cols = []
    for k in range(ncols):
        acc = 0
        shift = 0
        for row in rows:
            acc |= row[k] << shift
            shift += width
        cols.append(acc)
    return cols


def packing_widths(adapter: RingAdapter, R_rows: list[list], dunkl_columns: list[dict[int, object]]) -> tuple:
    """The entry sizes that fix how ``compose_rows_columns`` packs R * D.

    At p = 2 the largest bit lengths in R and in D; for F_p(c) at odd p the
    longest coefficient tuples in R and in D and the most terms in a column;
    over F_p at odd p the most terms in a column.  Every slot's Dunkl matrix
    of one degree is a permutation of D_1's, so one call serves the whole
    degree; sizes taken from a superset of R's rows are safe too, as wider
    packing changes no value.
    """
    dom = adapter.domain
    if dom.p == 2 and isinstance(dom, (PrimeField, RationalFunctionField)):
        max_r = max((v.bit_length() for row in R_rows for v in row), default=1)
        max_v = max((v.bit_length() for col in dunkl_columns for v in col.values()), default=1)
        return max_r, max_v
    terms = max((len(col) for col in dunkl_columns), default=0)
    if isinstance(dom, PrimeField):
        return (terms,)
    R_len = max((len(v) for row in R_rows for v in row), default=0)
    D_len = max((len(v) for col in dunkl_columns for v in col.values()), default=0)
    return R_len, D_len, terms


def compose_rows_columns(
    adapter: RingAdapter,
    R_rows: list[list],
    dunkl_columns: list[dict[int, object]],
    widths: tuple | None = None,
) -> list[list]:
    """Return the dense matrix (R * D) laid out as rows; D given column-wise.

    R_rows: L x M_prev ring values.  dunkl_columns[j]: sparse {row_prev: val}.
    Result: L x len(dunkl_columns).  widths is ``packing_widths`` of these
    matrices or of ones that bound them, computed here when not given.
    """
    L = len(R_rows)
    ncols = len(dunkl_columns)
    if L == 0:
        return []
    dom = adapter.domain
    p = dom.p
    if widths is None:
        widths = packing_widths(adapter, R_rows, dunkl_columns)
    if p == 2 and isinstance(dom, (PrimeField, RationalFunctionField)):
        max_r, max_v = widths
        width = max_r + max_v + 1
        packed = _gf2_pack_columns(R_rows, width)
        mask = (1 << width) - 1
        out_cols = []
        for col in dunkl_columns:
            acc = 0
            for k, v in col.items():
                pk = packed[k]
                while v:
                    low = v & -v
                    acc ^= pk << (low.bit_length() - 1)
                    v ^= low
            out_cols.append(acc)
        rows = []
        for r in range(L):
            sh = r * width
            rows.append([(acc >> sh) & mask for acc in out_cols])
        return rows
    if isinstance(dom, PrimeField):
        # additive packing: entries < p, so a sum of terms products fits in width bits
        width = ((p - 1) ** 2 * widths[0]).bit_length()
        out_cols = _packed_products(R_rows, dunkl_columns, width)
        mask = (1 << width) - 1
        return [[((acc >> r * width) & mask) % p for acc in out_cols] for r in range(L)]
    # F_p(c) at odd p: Kronecker substitution c -> 2^digit turns each F_p[c]
    # entry into an int whose base-2^digit digits are its coefficients; digit
    # is wide enough that no coefficient of a product sum carries over
    R_len, D_len, terms = widths
    if not R_len or not D_len:
        return [[()] * ncols for _ in range(L)]
    digit = ((p - 1) ** 2 * min(R_len, D_len) * terms).bit_length()
    width = (R_len + D_len - 1) * digit

    def kron(v):
        return sum(a << i * digit for i, a in enumerate(v))

    out_cols = _packed_products(
        [[kron(v) for v in row] for row in R_rows],
        [{k: kron(v) for k, v in col.items()} for col in dunkl_columns],
        width,
    )
    mask, digit_mask = (1 << width) - 1, (1 << digit) - 1
    memo: dict[int, tuple] = {}

    def unkron(x):
        if x not in memo:
            coeffs = [(x >> s & digit_mask) % p for s in range(0, width, digit)]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            memo[x] = tuple(coeffs)
        return memo[x]

    return [[unkron((acc >> r * width) & mask) for acc in out_cols] for r in range(L)]


def _packed_products(R_rows: list[list[int]], dunkl_columns, width: int) -> list[int]:
    """Column j of R * D with row r of R at bit offset r * width, as one int."""
    packed = _gf2_pack_columns(R_rows, width)  # plain placement of int entries
    out_cols = []
    for col in dunkl_columns:
        acc = 0
        for k, v in col.items():
            acc += packed[k] * v
        out_cols.append(acc)
    return out_cols


# ---------------------------------------------------------------------------
# Echelon, canonical RREF and kernel extraction
# ---------------------------------------------------------------------------


def echelon(adapter: RingAdapter, rows: list[list]) -> tuple[list[list], list[int]]:
    """Canonical RREF of a dense matrix of ring values: (dense rows, pivots).

    Over a field the nonzero entries go to ``sparse_rref``.  Over F_p(c) it
    is the certified modular route (``_modular_rref``) and the rows come back
    with their denominators cleared.
    """
    if not rows:
        return [], []
    if adapter.is_generic:
        rref, pivots = _modular_rref(adapter, rows)
    else:
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        rref, pivots = sparse_rref(adapter.domain, sparse)
    return [adapter.clear_denominators(row, len(rows[0])) for row in rref], pivots


def rref_scalar_rows(
    adapter: RingAdapter, pivot_rows: list[list], pivot_cols: list[int]
) -> list[dict[int, object]]:
    """``echelon``'s dense rows as sparse rows of field scalars, pivot entry 1."""
    return [
        {k: adapter.scalar_div(v, row[pc]) for k, v in enumerate(row) if v}
        for row, pc in zip(pivot_rows, pivot_cols)
    ]


def sparse_rref(domain: CoeffDomain, rows: list[dict[int, object]]):
    """Canonical RREF of sparse field-scalar rows; returns (rows, pivot cols).

    Rows are dicts {column index: scalar value}; the column order is the
    integer order (graded-lex descending monomial rank).  A row operation
    that leaves the lead entry in place means the field's arithmetic is
    wrong: it raises ArithmeticError rather than loop.
    """
    subtract, prepare = domain.subtract_multiple, domain.prepare
    pivots: dict[int, dict[int, object]] = {}
    prepared: dict[int, dict[int, object]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = domain.inv(row[lead])
                pivots[lead] = {k: domain.mul(v, inv) for k, v in row.items()}
                prepared[lead] = prepare(pivots[lead])
                break
            subtract(row, row[lead], prepared[lead])
            if lead in row:
                raise ArithmeticError(f"a row operation left column {lead} nonzero")
    # back-substitution across pivot rows; pivot pc is final once every
    # pivot to its right has been subtracted from it
    for pc in sorted(pivots, reverse=True):
        prow = prepare(pivots[pc])
        for qc, qrow in pivots.items():
            if qc != pc and pc in qrow:
                subtract(qrow, qrow[pc], prow)
    ordered = sorted(pivots)
    return [pivots[c] for c in ordered], ordered


def kernel_from_rref(
    domain: CoeffDomain,
    rref_rows: list[dict[int, object]],
    pivot_cols: list[int],
    ncols: int,
):
    """Kernel of a matrix, as canonical sparse RREF rows, from its RREF from the right.

    rref_rows and pivot_cols are the canonical RREF, pivot entries 1, of the
    matrix with its columns reversed.  Mapped back to the natural columns,
    each pivot is the largest column of its row, so free column f gives
    v_f = e_f minus column f of those rows, which is canonical as it stands:
    its other entries sit at pivots, all to the right of f.
    """
    top = ncols - 1
    rows = [{top - c: v for c, v in row.items()} for row in rref_rows]
    vectors = natural_kernel(domain, rows, [top - c for c in pivot_cols], ncols)
    return vectors, [min(v) for v in vectors]


def natural_kernel(domain: CoeffDomain, rref_rows, pivot_cols, ncols: int) -> list[dict]:
    """One kernel vector per free column f: e_f minus column f of the rows."""
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    vectors = []
    for f in free_cols:
        v: dict[int, object] = {f: domain.from_int(1)}
        for pc, row in zip(pivot_cols, rref_rows):
            coef = row.get(f)
            if coef is not None and not domain.is_zero(coef):
                v[pc] = domain.neg(coef)
        vectors.append(v)
    return vectors


def reduce_by_rref(
    domain: CoeffDomain, vec: dict[int, object], rref_rows, pivot_cols
) -> dict[int, object]:
    """Normal form of a sparse vector modulo the span of RREF rows."""
    v = dict(vec)
    for pc, row in zip(pivot_cols, rref_rows):
        coef = v.get(pc)
        if coef is not None and not domain.is_zero(coef):
            domain.subtract_multiple(v, coef, domain.prepare(row))
    return v


# ---------------------------------------------------------------------------
# Generic c: eliminate at points, rebuild in F_p(c), certify
# ---------------------------------------------------------------------------

MAX_POINTS = 16  # a sum of degrees >= 64; real matrices need one or two points


def _modular_rref(adapter: RingAdapter, rows: list[list]):
    """(canonical RREF rows over F_p(c), pivots) of a nonempty A over F_p[c].

    A is reduced at the points of ``point_field`` in turn.  The highest rank,
    then the earliest pivots, wins (specializing c only lowers the ranks of
    leading column blocks) and disagreeing points are dropped.  Entries are
    rebuilt by CRT modulo the product of the kept points' minimal
    polynomials m_j and rational reconstruction, and returned once
    ``_certified`` holds; otherwise another point is added.

    Proof.  Let r be the rank at the kept points, R the rebuilt rows and V
    the kernel basis read off R, one vector per free column, each vector
    times the lcm of its denominators.  rank A >= r, as a minor nonzero at a
    point is nonzero.  Each rebuilt num/den has den(alpha_j) != 0 and
    reduces to the point's entry, so R(alpha_j) is the RREF of A(alpha_j),
    V(alpha_j) spans its kernel and every entry of A V^T vanishes at alpha_j:
    m_j divides it.  The m_j are distinct irreducibles, and the degree bound
    keeps each entry below the degree of their product, so A V^T = 0.  V has
    M - r independent vectors in ker A, so rank A = r and ker A = span V.
    The r rows of R have distinct pivots and annihilate V by construction,
    so they span the row space of A and, being in RREF form, are its RREF.
    A bad point fails the certificate, so it costs time but never changes
    the answer.
    """
    dom, R = adapter.domain, adapter.ring
    ncols = len(rows[0])
    # largest degree per column: the largest int at p = 2, the longest tuple else
    colmax = [R.deg(max(col, key=None if R.p == 2 else len)) for col in zip(*rows)]
    used, best = [], None
    for j in range(MAX_POINTS):
        F = point_field(dom.p, j)
        dom.points_tried += 1
        at = [{c: x for c, v in enumerate(row) if v and (x := F.evaluate(v))} for row in rows]
        point_rows, pivots = sparse_rref(F, at)
        key = (-len(pivots), pivots)
        if used and key != best:
            if key > best:
                continue  # lower rank or later pivots: a bad point
            used = []
        best = key
        used.append((F, point_rows))
        rebuilt = _reconstruct(R, used)
        if rebuilt is not None and _certified(
            R, colmax, rebuilt, natural_kernel(dom, rebuilt, pivots, ncols), used
        ):
            return rebuilt, pivots
    raise ArithmeticError(f"no certified elimination after {MAX_POINTS} points")


def _certified(R, colmax, rebuilt, kernel, used) -> bool:
    """Degree bound on A V^T, then agreement with the rows at every point."""
    top = -1
    for v in kernel:
        den = R.one
        for _, d in v.values():
            if d != R.one:
                den = R.mul(den, R.divmod(d, R.gcd(den, d))[0])
        for c, (num, d) in v.items():
            if colmax[c] >= 0:
                top = max(top, colmax[c] + R.deg(num) + R.deg(den) - R.deg(d))
    if top >= sum(F.k for F, _ in used):
        return False
    for F, rows in used:
        if len(rebuilt) != len(rows):
            return False
        for mine, theirs in zip(rebuilt, rows):
            for col in mine.keys() | theirs.keys():
                num, den = mine.get(col, (R.zero, R.one))
                d = F.evaluate(den)
                if not d or F.evaluate(num) != F.mul(d, theirs.get(col, 0)):
                    return False
    return True


def _reconstruct(R, used):
    """The point rows' entries rebuilt in F_p(c), or None if one fails."""
    modulus = R.one
    for F, _ in used:
        modulus = R.mul(modulus, F.modulus)
    weights = []  # CRT: 1 mod its own point's modulus, 0 mod the others
    for F, _ in used:
        rest = R.divmod(modulus, F.modulus)[0]
        weights.append(R.mul(rest, F.residue(F.inv(F.evaluate(rest)))))
    memo: dict = {}
    out = []
    for point_rows in zip(*(rows for _, rows in used)):
        row = {}
        for col in sorted(set().union(*point_rows)):
            values = tuple(r.get(col, 0) for r in point_rows)
            if values not in memo:
                u = R.zero
                for (F, _), w, v in zip(used, weights, values):
                    u = R.add(u, R.mul(w, F.residue(v)))
                memo[values] = _rational(R, R.divmod(u, modulus)[1], modulus)
            if memo[values] is None:
                return None
            if memo[values][0] != R.zero:
                row[col] = memo[values]
        out.append(row)
    return out


def _rational(R, u, m):
    """Coprime (num, den), den monic, with num = den * u mod m, or None.

    Maximal-quotient rational reconstruction (Monagan, ISSAC 2004): the
    Euclid pair before the largest quotient, which needs degree >= 2.
    """
    if u == R.zero:
        return R.zero, R.one
    r0, r1, t0, t1 = m, u, R.zero, R.one
    best, top = None, 1
    while r1 != R.zero:
        q, rem = R.divmod(r0, r1)
        if R.deg(q) > top:
            best, top = (r1, t1), R.deg(q)
        r0, r1, t0, t1 = r1, rem, t1, R.sub(t0, R.mul(q, t1))
    if best is None or R.deg(R.gcd(*best)) > 0:
        return None
    unit = R.from_coeffs((pow(R.coeffs(best[1])[-1], R.p - 2, R.p),))
    return R.mul(best[0], unit), R.mul(best[1], unit)

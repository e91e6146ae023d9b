"""Exact row reduction over F_p, F_p(c) and the table fields F_{p^k}.

The kernel engine needs these things, all deterministic:

  * compose A = R * D column-by-column, where R is a small dense matrix of
    ring values (the constraint rows of the previous degree) and D is a
    sparse Dunkl matrix whose entries have tiny c-degree;
  * the canonical RREF of A from the right, each pivot the largest column
    of its row: its rows span the row space of A, and its free columns give
    the kernel of A, in canonical RREF under the graded-lex column order, as
    it stands;
  * that RREF from A on its live columns only, extended to the others by
    known vectors of ker A (``extend``).

Matrices hold raw ring values (ints, or F_p[c] numerators), read through
the domain's one ``RingAdapter``, which also counts evaluation points.

One routine eliminates: ``sparse_rref``, Gauss-Jordan over a field on
sparse rows.  Its pivot rows stay reduced, so a redundant row is cleared by
one row operation per pivot column in its support.  Over F_p it reduces the
stacked matrix itself.  Over F_p(c) an F_p[c] matrix is evaluated at points
of small table fields, reduced there by the same routine, rebuilt by CRT
and rational reconstruction and certified exactly by a degree bound
(``_modular_rref`` gives the proof).  The field supplies the inner row
update (``CoeffDomain.subtract_multiple``) on pivot rows in its own form
(``prepare``): F_p updates each entry inline; a table field keeps a pivot
row as logs, so each entry of row - f * pivot is one exp lookup and an XOR
at p = 2, or an inline Zech step at odd p.
Characteristic-2 rows are packed into single big integers (entries are
F_2[c] bitmasks laid side by side) so that the inner product against a
sparse column is a handful of shifts and XORs.  At odd p an entry becomes an
int by c -> 2^digit (Kronecker substitution) and rows are packed the same
way, with additions in place of XORs.  Each packing is sized from p and the
two matrices it packs, so no caller can hand it a width too narrow.
"""

from __future__ import annotations

from .fields import CoeffDomain, RingAdapter, denominator_lcm, point_field


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


def compose_rows_columns(
    adapter: RingAdapter,
    R_rows: list[list],
    dunkl_columns: list[dict[int, object]],
) -> list[list]:
    """Return the dense matrix (R * D) laid out as rows; D given column-wise.

    R_rows: L x M_prev ring values.  dunkl_columns[j]: sparse {row_prev: val}.
    Result: L x len(dunkl_columns).  The packing is sized from p and from R
    and D themselves: over F_2(c) their longest bit masks, at odd p the most
    terms in a column of D and, over F_p(c), their longest coefficient tuples.
    """
    L = len(R_rows)
    ncols = len(dunkl_columns)
    if L == 0:
        return []
    p = adapter.p
    if p == 2:
        width = 1  # over F_2 every entry is 0 or 1, and XOR sums do not carry
        if adapter.is_generic:
            # F_2[c] bit masks: a product of lengths a and b has length <= a + b - 1
            max_r = max((v.bit_length() for row in R_rows for v in row), default=1)
            max_v = max((v.bit_length() for col in dunkl_columns for v in col.values()), default=1)
            width = max(max_r + max_v - 1, 1)
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
        return [[(acc >> r * width) & mask for acc in out_cols] for r in range(L)]
    terms = max(map(len, dunkl_columns), default=0)
    if not adapter.is_generic:
        # additive packing: entries < p, so a sum of terms products fits in width bits
        width = ((p - 1) ** 2 * terms).bit_length()
        out_cols = _packed_products(R_rows, dunkl_columns, width)
        mask = (1 << width) - 1
        return [[((acc >> r * width) & mask) % p for acc in out_cols] for r in range(L)]
    # F_p(c) at odd p: Kronecker substitution c -> 2^digit turns each F_p[c]
    # entry into an int whose base-2^digit digits are its coefficients; digit
    # is wide enough that no coefficient of a product sum carries over
    R_len = max((len(v) for row in R_rows for v in row), default=0)
    D_len = max((len(v) for col in dunkl_columns for v in col.values()), default=0)
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


def echelon(
    adapter: RingAdapter, rows: list[list], columns=None, relations: dict | None = None
) -> tuple[list[list], list[int]]:
    """Canonical RREF of a dense matrix of ring values: (dense rows, pivots).

    ``columns`` names the column of each entry of a row, ascending (by
    default its position).  ``relations`` maps each other column m to the
    entries w_m, all in columns above m, of a vector e_m + w_m of the
    matrix's kernel; the rows come back on every column (``extend``).
    The RREF is the one from the right: each pivot is the largest column of
    its row, and the rows come ordered by pivot, descending.
    Over a field the nonzero entries go to ``sparse_rref``.  Over F_p(c) it
    is the certified modular route (``_modular_rref``) and the rows come back
    with their denominators cleared.
    """
    if not rows:
        return [], []
    relations = relations or {}
    if adapter.is_generic:
        rref, pivots = _modular_rref(adapter, rows, columns, relations)
    else:
        columns = range(len(rows[0])) if columns is None else columns
        rref, pivots = sparse_rref(adapter.domain, [{c: v for c, v in zip(columns, row) if v} for row in rows])
        extend(adapter.domain, rref, relations)
    return [adapter.clear_denominators(row, len(rows[0]) + len(relations)) for row in rref], pivots


def rref_scalar_rows(
    adapter: RingAdapter, pivot_rows: list[list], pivot_cols: list[int]
) -> list[dict[int, object]]:
    """``echelon``'s dense rows as sparse rows of field scalars, pivot entry 1."""
    return [
        {k: adapter.scalar_div(v, row[pc]) for k, v in enumerate(row) if v}
        for row, pc in zip(pivot_rows, pivot_cols)
    ]


def sparse_rref(domain: CoeffDomain, rows: list[dict[int, object]]):
    """Canonical RREF from the right of sparse field-scalar rows: (rows, pivot cols).

    Rows are dicts {column index: scalar value}.  Each row's pivot is its
    largest column, and the rows come ordered by pivot, descending.
    Gauss-Jordan: a new pivot's column is cleared from the earlier pivot
    rows, so a reduced pivot row touches no other pivot column, and a row
    takes one row operation per pivot column in its support.  A pivot row
    that changes drops its ``prepare`` form.  A row operation that leaves
    its pivot column nonzero means the field's arithmetic is wrong: it
    raises ArithmeticError.
    """
    subtract, prepare = domain.subtract_multiple, domain.prepare
    pivots: dict[int, dict[int, object]] = {}
    prepared: dict[int, dict[int, object]] = {}

    def clear(row, pc):
        if pc not in prepared:
            prepared[pc] = prepare(pivots[pc])
        subtract(row, row[pc], prepared[pc])
        if pc in row:
            raise ArithmeticError(f"a row operation left column {pc} nonzero")

    for row in rows:
        row = dict(row)
        for pc in [k for k in row if k in pivots]:
            clear(row, pc)
        if row:
            lead = max(row)
            inv = domain.inv(row[lead])
            pivots[lead] = {k: domain.mul(v, inv) for k, v in row.items()}
            for qc, qrow in pivots.items():
                if qc != lead and lead in qrow:
                    clear(qrow, lead)
                    prepared.pop(qc, None)
    ordered = sorted(pivots, reverse=True)
    return [pivots[c] for c in ordered], ordered


def extend(domain: CoeffDomain, rows: list[dict[int, object]], relations: dict[int, dict]) -> None:
    """Fill in the columns ``relations`` names, in place, from the rows' other entries.

    relations[m] = w_m holds the entries, all in columns above m, of a vector
    e_m + w_m of ker A, so a row r of A's row space has r_m = -sum_k r_k w_m[k].
    With m descending, right to left, every r_k is final when it is read, so
    the RREF rows of A restricted to the other columns become the RREF rows
    of A.  The work runs on columns, as one ``subtract_multiple`` per entry
    of each w_m.
    """
    if not relations:
        return
    subtract, prepare = domain.subtract_multiple, domain.prepare
    cols: dict[int, dict[int, object]] = {}
    for r, row in enumerate(rows):
        for k, v in row.items():
            cols.setdefault(k, {})[r] = v
    prepared: dict[int, dict] = {}
    for m in sorted(relations, reverse=True):
        col: dict[int, object] = {}
        for k, w in relations[m].items():
            if k in cols:
                if k not in prepared:
                    prepared[k] = prepare(cols[k])
                subtract(col, w, prepared[k])
        if col:
            cols[m] = col
            for r, v in col.items():
                rows[r][m] = v


def kernel_from_rref(
    domain: CoeffDomain,
    rref_rows: list[dict[int, object]],
    pivot_cols: list[int],
    ncols: int,
):
    """Kernel of a matrix, as canonical sparse RREF rows, from its RREF from the right.

    rref_rows and pivot_cols are the canonical RREF from the right, pivot
    entries 1: each pivot is the largest column of its row, so free column f
    gives v_f = e_f minus column f of those rows, which is canonical as it
    stands: its other entries sit at pivots, all to the right of f.
    """
    vectors = natural_kernel(domain, rref_rows, pivot_cols, range(ncols))
    return vectors, [min(v) for v in vectors]


def natural_kernel(domain: CoeffDomain, rref_rows, pivot_cols, columns) -> list[dict]:
    """One kernel vector per free column f among ``columns``: e_f minus column f of the rows."""
    pivot_set = set(pivot_cols)
    vectors = {f: {f: domain.from_int(1)} for f in columns if f not in pivot_set}
    for pc, row in zip(pivot_cols, rref_rows):
        for f, coef in row.items():
            if f in vectors and not domain.is_zero(coef):
                vectors[f][pc] = domain.neg(coef)
    return list(vectors.values())


# ---------------------------------------------------------------------------
# Generic c: eliminate at points, rebuild in F_p(c), certify
# ---------------------------------------------------------------------------

MAX_POINTS = 16  # a sum of degrees >= 64; real matrices need one or two points


def _modular_rref(adapter: RingAdapter, rows: list[list], columns=None, relations: dict | None = None):
    """(canonical RREF rows over F_p(c), pivots) of a nonempty A over F_p[c].

    ``rows`` are A on the built columns C (``columns``); ``relations`` gives,
    for every other column m, the entries w_m right of m of a vector
    e_m + w_m of ker A (see ``echelon``).  A|C is reduced from the right at
    the points of ``point_field`` in turn.  A point where a denominator of
    some w_m vanishes is skipped, and still counted.  The highest rank, then
    the largest pivots, wins (specializing c only lowers the ranks of
    trailing column blocks) and disagreeing points are dropped.  Each
    point's rows are extended to every column by the relations
    (``extend``).  Entries are rebuilt by CRT modulo the product of the kept
    points' minimal polynomials m_j and rational reconstruction, and
    returned once ``_certified`` holds; otherwise another point is added.

    Proof.  Let r be the rank at the kept points, R the rebuilt rows, R_C
    their entries in C and V the kernel basis of A|C read off R_C, one vector
    per free column of C, each vector times the lcm of its denominators.
    rank A|C >= r, as a minor nonzero at a point is nonzero.  Each rebuilt
    num/den has den(alpha_j) != 0 and reduces to the point's entry, so
    R_C(alpha_j) is the RREF of A|C(alpha_j), V(alpha_j) spans its kernel
    and every entry of A|C V^T vanishes at alpha_j: m_j divides it.  The m_j
    are distinct irreducibles, and the degree bound keeps each entry below
    the degree of their product, so A|C V^T = 0.  V has |C| - r independent
    vectors in ker A|C, so rank A|C = r and ker A|C = span V.  The r rows of
    R_C have distinct pivots and annihilate V by construction, so they span
    the row space of A|C and, being in RREF form, are its RREF.
    Next, take a row rho of R and a relation w = e_m + w_m, and let N be
    rho . w times the lcm of rho's denominators and the lcm of w's.  N is a
    polynomial.  At alpha_j every denominator is nonzero, rho(alpha_j) is the
    extended point row and w(alpha_j) the relation the extension used, so
    rho(alpha_j) . w(alpha_j) = 0 and m_j divides N.  The second degree
    bound keeps N below the degree of the product, so rho . w = 0.
    Last, the restriction to C is injective on the row space of A: a row
    zero on C is zero at each relation's m in turn, from the right, as
    w lies in ker A.  So the RREF of A restricted to C is the RREF of A|C,
    and each of its rows is the one row with those entries on C that
    annihilates every relation: the row of R.  R is the RREF of A.
    A bad point fails the certificate, so it costs time but never changes
    the answer.
    """
    dom, R = adapter.domain, adapter.ring
    relations = relations or {}
    columns = range(len(rows[0])) if columns is None else columns
    ncols = len(rows[0]) + len(relations)
    # largest degree per built column: the largest int at p = 2, the longest tuple else
    colmax = [-1] * ncols
    for c, col in zip(columns, zip(*rows)):
        colmax[c] = R.deg(max(col, key=None if R.p == 2 else len))
    relation_degrees = [_cleared_degrees(R, {m: dom.one, **w}) for m, w in relations.items()]
    used, best = [], None
    for j in range(MAX_POINTS):
        F = point_field(dom.p, j)
        adapter.points_tried += 1
        at_relations = _relations_at(F, relations)
        if at_relations is None:
            continue  # a relation has no value at this point
        at = [{c: x for c, v in zip(columns, row) if v and (x := F.evaluate(v))} for row in rows]
        point_rows, pivots = sparse_rref(F, at)
        key = (-len(pivots), [-c for c in pivots])
        if used and key != best:
            if key > best:
                continue  # lower rank or smaller pivots: a bad point
            used = []
        best = key
        extend(F, point_rows, at_relations)
        used.append((F, point_rows))
        rebuilt = _reconstruct(R, used)
        if rebuilt is not None and _certified(
            R, colmax, rebuilt, natural_kernel(dom, rebuilt, pivots, columns), used, relation_degrees
        ):
            return rebuilt, pivots
    raise ArithmeticError(f"no certified elimination after {MAX_POINTS} points")


def _relations_at(F, relations: dict[int, dict]):
    """The relations' entries at the point of F, or None if a denominator vanishes there."""
    out = {}
    for m, w in relations.items():
        at = {}
        for k, (num, den) in w.items():
            d = F.evaluate(den)
            if not d:
                return None
            if x := F.evaluate(num):
                at[k] = F.div(x, d)
        out[m] = at
    return out


def _cleared_degrees(R, entries: dict) -> dict[int, int]:
    """{col: degree of the entry times the lcm of the entries' denominators}."""
    lcm_deg = R.deg(denominator_lcm(R, (d for _, d in entries.values())))
    return {c: R.deg(num) + lcm_deg - R.deg(d) for c, (num, d) in entries.items()}


def _certified(R, colmax, rebuilt, kernel, used, relation_degrees=()) -> bool:
    """Degree bound on A V^T, on each row times each relation, then agreement
    with the rows at every point (see ``_modular_rref``)."""
    budget = sum(F.k for F, _ in used)
    top = -1
    for v in kernel:
        for c, e in _cleared_degrees(R, v).items():
            if colmax[c] >= 0:
                top = max(top, colmax[c] + e)
    if top >= budget:
        return False
    if relation_degrees:
        rowmax: dict[int, int] = {}  # per column, the largest cleared degree over the rows
        for row in rebuilt:
            for c, e in _cleared_degrees(R, row).items():
                if e > rowmax.get(c, -1):
                    rowmax[c] = e
        for degrees in relation_degrees:
            for c, e in degrees.items():
                if c in rowmax and rowmax[c] + e >= budget:
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

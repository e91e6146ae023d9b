"""Dunkl operators on the reduced polynomial module.

D_{y_i} = t * d/dx_i - c * sum_{k != i} (x_i - x_k)^{-1} (1 - s_{ik})

Downstream code uses the operator basis {D_{y_i - y_n} : i = 1..n-1}.  One
term-level core applies D_{y_i - y_n} to unreduced n-slot terms with raw
ring coefficients (ints for F_p, numerators for F_p(c)) and the context's
own c, in the arithmetic of the domain's one ``fields.RingAdapter``, which
compose and elimination read too.  Each monomial is one int key holding its
n exponents in fixed-width slots (``Packed``), so a shift of exponents is an
int addition.  ``dunkl_z`` lifts a reduced representative to n slots, runs
the core and reduces slot n through x_n = -(x_1 + ... + x_{n-1}); the
membership walk stays upstairs and reduces only its leaves.  On a
Sym(U)-invariant polynomial for a set U of orbit slots the core works on
orbit representatives, the terms with nonincreasing U-exponents: a run of
equal U-exponents e is treated at one of its slots, and each output term
goes to its re-sorted key with weight mu_e', the number of U-slots of the
output carrying its new exponent e' (an integer mod p, so no stabilizer
order is ever divided by).  The spare slots' reflection terms are read off
per-slot tables by the exponents (a, e, b) of slots i, k and n, held with
the operator's layout, of which the last 8 are kept.
``split_orbits`` splits each orbit by the values at the orbit slots before a
suffix that stays symmetric, the empty suffix in one pass to plain terms.
The engine builds D_1 and the Gram oracle D_{n-1}, each in one core pass a
degree, a group per monomial (``kernel.dunkl_columns``).  ``dunkl`` applies
D_{y_i} through divided differences, the oracle for the core and matrices.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .fields import CoeffDomain, RationalFunctionField, RingAdapter
from .poly import Monomial, ReducedPoly, monomials_of_degree, random_homogeneous
from .action import Transposition, _neg_sum_power_mod, apply_transposition, reduced_variable

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DunklContext:
    """Parameters (n, t, domain) plus derived data for one engine run.

    Theorems about the quotient require n = 1 (mod p); the engine itself
    accepts any n >= 2 and merely records r = n mod p for reporting.
    """

    n: int
    t: int
    domain: CoeffDomain

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.t not in (0, 1):
            raise ValueError("t must be 0 or 1")

    @property
    def nvars(self) -> int:
        return self.n - 1

    @property
    def p(self) -> int:
        return self.domain.p

    @property
    def r(self) -> int:
        return self.n % self.p

    @staticmethod
    def make(n: int, p: int, t: int, c: str | int = None) -> "DunklContext":
        """Build a context; c defaults to 1 for t=0 and 'generic' for t=1."""
        if c is None:
            c = 1 if t == 0 else "generic"
        if c == "generic":
            dom = CoeffDomain.generic(p)
        else:
            dom = CoeffDomain.prime(p, int(c))
        return DunklContext(n=n, t=t, domain=dom)


# ---------------------------------------------------------------------------
# The Dunkl core on packed raw terms {packed exponent key: raw ring value}
# ---------------------------------------------------------------------------


def _settle(out: dict, norm) -> dict:
    """Normal forms of accumulated values, zero terms dropped."""
    if norm is None:
        return {m: v for m, v in out.items() if v}
    return {m: w for m, v in out.items() if (w := norm(v))}


class Packed(NamedTuple):
    """Raw n-slot terms in groups (tag, {key: raw ring value}).

    A key packs the exponents m_1..m_n into one int, nb bytes per slot:
    slot k sits at bits 8 nb (k-1) and up.  ``lift_raw`` picks nb for the
    degree of its input, and no operator raises the degree, so no exponent
    overflows its slot.  The core runs each group on its own.  For ``lift_raw``
    and ``reduce_raw`` the tag is a denominator: D is F_p(c)-linear, so each
    denominator's numerators form a group; other domains have one, tagged
    None.  In ``kernel.dunkl_columns`` a group is a monomial, tagged by column.
    """

    nb: int
    groups: list[tuple[object, dict[int, object]]]


def pack_monomial(m: Monomial, nb: int) -> int:
    """The packed key of an exponent tuple, nb bytes per slot."""
    if nb == 1:
        return int.from_bytes(bytes(m), "little")
    return int.from_bytes(b"".join(e.to_bytes(nb, "little") for e in m), "little")


@lru_cache(maxsize=None)
def packed_index(nvars: int, d: int, nb: int) -> dict[int, int]:
    """``monomial_index`` of degree d by packed key, nb bytes per slot."""
    return {pack_monomial(m, nb): k for k, m in enumerate(monomials_of_degree(nvars, d))}


def unpack_monomial(key: int, slots: int, nb: int) -> Monomial:
    """The exponents of the first ``slots`` slots of a packed key."""
    raw = key.to_bytes(slots * nb, "little")
    if nb == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[j : j + nb], "little") for j in range(0, len(raw), nb))


@lru_cache(maxsize=8)
def _core_layout(i: int, n: int, t: int, c, ring: RingAdapter, nb: int, orbit: tuple[int, ...]):
    """The per-operator constants of ``_dunkl_core``, built once; the last 8
    layouts are held, with the tables they have filled.

    Each spare slot k (not i, n or an orbit slot) gets a memo of
    ``_spare_terms`` by the exponents (a, e, b) of slots i, k and n.  The
    orbit slots get a mask covering them and slots i and n, and a memo of
    ``_orbit_table`` by masked key; with no orbit slots the mask is 0.
    """
    add, neg, mul, of_int = ring.add, ring.neg, ring.mul, ring.of_int
    norm = ring.norm or (lambda w: w)
    # the ring values t x - c z at m - e_i and c z - t x at m - e_n, for the
    # exponent x < 2^(8 nb) of slot i (or n) and the number z < n of empty spare slots, mod p
    xs, zs = range(min(ring.p, 1 << 8 * nb)), range(min(ring.p, n))
    rows = [[add(of_int(t * x), neg(mul(of_int(z), c))) for z in zs] for x in xs]
    at_i = tuple(tuple(norm(w) for w in row) for row in rows)
    at_n = tuple(tuple(norm(neg(w)) for w in row) for row in rows)
    unit = [1 << (8 * nb * k) for k in range(n)]
    ui, un = unit[i - 1], unit[n - 1]
    spare = tuple((k, unit[k], {}) for k in range(n - 1) if k != i - 1 and k + 1 not in orbit)
    full = (1 << (8 * nb)) - 1
    omask = sum(full * unit[k - 1] for k in (i, n) + orbit) if orbit else 0
    return of_int(2), at_i, at_n, ui, un, spare, ui - un, omask, {}


def _spare_terms(a: int, e: int, b: int, ui: int, uk: int, un: int):
    """The delta_{ik} and delta_{kn} terms of a spare slot k on x_i^a x_k^e x_n^b.

    Returns the key offsets that take -c v and those that take c v.
    An empty slot (e = 0) leaves its terms at m - e_i and m - e_n to the
    core's count of zeros, the last of delta_{ik} and the first of
    delta_{kn}, so it has none when a, b <= 1.  When e exceeds a and b, the
    two sums have terms at m - e_k of opposite signs, the first of
    delta_{ik} and the last of delta_{kn}, and neither is written.
    """
    step_ik, step_kn = ui - uk, uk - un

    def run(start: int, step: int, count: int) -> range:
        return range(start, start + count * step, step)

    minus, plus = [], []
    if a > e:  # delta_{ik} on x_i^a x_k^e
        minus += run((e - a) * ui + (a - 1 - e) * uk, step_ik, a - e - (not e))
    elif a < e:
        plus += run((e > b) * step_ik - uk, step_ik, e - a - (e > b))
    if e > b:  # delta_{kn} on x_k^e x_n^b
        minus += run((b - e) * uk + (e - 1 - b) * un, step_kn, e - b - (e > a))
    elif e < b:
        plus += run((not e) * step_kn - un, step_kn, b - e - (not e))
    return tuple(minus), tuple(plus)


def _orbit_table(mkey: int, i: int, n: int, nb: int, orbit: tuple[int, ...], ring: RingAdapter):
    """The orbit slots' delta terms of D_{y_i - y_n} on one representative.

    mkey holds the exponents a of slot i, b of slot n and the nonincreasing
    values of the orbit slots U.  Each run of equal values e is treated at one
    of its slots k: delta_{ik} on x_i^a x_k^e and delta_{kn} on x_k^e x_n^b
    give terms x_k^e' x_i^(a+e-1-e') and x_k^e' x_n^(b+e-1-e'), sign + when
    the first exponent is the larger.  Such a term stands for its
    Sym(U)-orbit: it goes to its re-sorted key with weight mu_e', the number
    of U-slots of the output that carry e' (the run length when e' = e).
    The weights are plain integers reduced mod p; the terms at m - e_i and
    m - e_n from empty slots stay with the core's count of zeros.  Returns
    (scale or None for 1, key offsets) per nonzero weight mod p.
    """
    m = unpack_monomial(mkey, n, nb)
    a, b = m[i - 1], m[n - 1]
    unit = [1 << (8 * nb * k) for k in range(n)]
    vals = [m[k - 1] for k in orbit]
    acc: dict[int, int] = {}
    for e in set(vals):
        q = vals.index(e)
        for other, uo, sign in ((a, unit[i - 1], 1 if a > e else -1), (b, unit[n - 1], 1 if e > b else -1)):
            for e2 in range(min(e, other), max(e, other)):
                if e == e2 == 0:
                    continue
                new = sorted(vals[:q] + [e2] + vals[q + 1 :], reverse=True)
                off = (e - 1 - e2) * uo + sum((x - y) * unit[k - 1] for x, y, k in zip(new, vals, orbit))
                acc[off] = acc.get(off, 0) + sign * new.count(e2)
    by_weight: dict[int, list[int]] = {}
    for off, w in acc.items():
        if w % ring.p:
            by_weight.setdefault(w % ring.p, []).append(off)
    return tuple(
        (None if w == 1 else ring.of_int(w), tuple(offs)) for w, offs in sorted(by_weight.items())
    )


def _dunkl_core(f: Packed, i: int, n: int, t: int, c, ring: RingAdapter, orbit: tuple[int, ...] = ()) -> Packed:
    """D_{y_i - y_n} on packed raw n-slot terms, without reducing slot n.

        D_{y_i-y_n} = t (d_i - d_n)
                      - c [2 delta_{in} + sum_{k != i,n} (delta_{ik} + delta_{kn})]

    where delta_{uw} = (1 - s_{uw}) / (x_u - x_w) sends x_u^a x_w^b to the
    two-slot geometric sum sign(a - b) * sum_{min <= s < max} x_u^s x_w^{a+b-1-s}.
    On packed keys that sum is an arithmetic progression of keys with step
    2^(8 nb u) - 2^(8 nb w).  For each slot k with m_k = 0, delta_{ik} has
    one term at m - e_i and delta_{kn} one at m - e_n; those are summed with
    t (d_i - d_n) into one update each.  When m_k exceeds m_i and m_n, the
    two sums of slot k have terms at m - e_k of opposite signs, and neither
    is written.  Both rules live in ``_spare_terms``: each spare slot's
    offsets are built once per (a, e, b) and the term loop only looks them
    up and adds.  Empty groups are dropped.  Reducing slot n afterwards is
    sound in every characteristic: [y_i - y_n, x_1 + ... + x_n] = 0, so the
    operator preserves that ideal.

    With orbit slots U (1-based, i not among them), f is Sym(U)-invariant
    and given by its orbit representatives, the terms whose U-exponents are
    nonincreasing along U; the image comes back the same way.  The U-slots'
    delta terms are then read off ``_orbit_table`` by representative.
    ``ring`` is ``RingAdapter.of`` the domain, also the key of ``_core_layout``'s cache.
    """
    p, add, neg, mul, zero, nb = ring.p, ring.add, ring.neg, ring.mul, ring.zero, f.nb
    two, at_i, at_n, ui, un, spare, step_in, omask, tables = _core_layout(i, n, t, c, ring, nb, orbit)
    wb = 8 * nb
    groups = []
    for den, terms in f.groups:
        out: dict[int, object] = {}
        get = out.get
        for key, v in terms.items():
            m = key.to_bytes(n, "little") if nb == 1 else unpack_monomial(key, n, nb)
            a, b = m[i - 1], m[-1]
            zeros = 0
            if c:
                zeros = m.count(0) - (not a) - (not b)
                cv = neg(mul(v, c))
                ncv = neg(cv)
                ab = (a << wb | b) << wb
                for k, uk, table in spare:
                    try:
                        minus, plus = table[ab | m[k]]
                    except KeyError:
                        minus, plus = table[ab | m[k]] = _spare_terms(a, m[k], b, ui, uk, un)
                    for off in minus:
                        kk = key + off
                        out[kk] = add(get(kk, zero), cv)
                    for off in plus:
                        kk = key + off
                        out[kk] = add(get(kk, zero), ncv)
                if omask:
                    mk = key & omask
                    if (table := tables.get(mk)) is None:
                        table = tables[mk] = _orbit_table(mk, i, n, nb, orbit, ring)
                    for scale, offs in table:
                        sv = cv if scale is None else mul(cv, scale)
                        for off in offs:
                            kk = key + off
                            out[kk] = add(get(kk, zero), sv)
                if two and a != b:  # 2 delta_{in} on x_i^a x_n^b
                    if a > b:
                        sv, start, stop = mul(cv, two), key + (b - a) * ui + (a - 1 - b) * un, a - b
                    else:
                        sv, start, stop = mul(ncv, two), key - un, b - a
                    for _ in range(stop):
                        out[start] = add(get(start, zero), sv)
                        start += step_in
            # t (d_i - d_n) plus the empty slots' terms at m - e_i and m - e_n
            if a and (w := at_i[a % p][zeros % p]):
                kk = key - ui
                out[kk] = add(get(kk, zero), mul(v, w))
            if b and (w := at_n[b % p][zeros % p]):
                kk = key - un
                out[kk] = add(get(kk, zero), mul(v, w))
        if out := _settle(out, ring.norm):
            groups.append((den, out))
    return Packed(nb, groups)


def lift_raw(f: ReducedPoly) -> Packed:
    """f lifted to n slots as packed raw terms, slot n empty."""
    deg = max(map(sum, f.terms), default=0)
    nb = max(1, (deg.bit_length() + 7) // 8)
    if not isinstance(f.domain, RationalFunctionField):
        return Packed(nb, [(None, {pack_monomial(m, nb): v for m, v in f.terms.items()})])
    groups: dict[object, dict] = {}
    for m, (num, den) in f.terms.items():
        groups.setdefault(den, {})[pack_monomial(m, nb)] = num
    return Packed(nb, list(groups.items()))


def dunkl_z_raw(f: Packed, i: int, ctx: DunklContext, orbit: tuple[int, ...] = ()) -> Packed:
    """D_{y_i - y_n} with the context's t and c on packed raw n-slot terms,
    given by their orbit representatives for Sym(orbit)."""
    ring = RingAdapter.of(ctx.domain)
    return _dunkl_core(f, i, ctx.n, ctx.t, ring.c, ring, orbit)


def _arrangements(counts: dict[int, int], length: int):
    """The distinct sequences of ``length`` values drawn from the multiset
    {value: count}, in descending lexicographic order when its values descend;
    at each yield ``counts`` holds the values not drawn."""
    if not length:
        yield ()
        return
    for v, k in counts.items():
        if k:
            counts[v] = k - 1
            for tail in _arrangements(counts, length - 1):
                yield (v,) + tail
            counts[v] = k


@lru_cache(maxsize=None)
def _split_offsets(upart: int, n: int, nb: int, orbit: tuple[int, ...], rest: tuple[int, ...]) -> tuple[int, ...]:
    """Key offsets from one Sym(orbit)-representative to the
    Sym(rest)-representatives of its orbit, rest a suffix of orbit: one per
    distinct arrangement of the values on the slots before rest, the other
    values staying nonincreasing on rest."""
    m = unpack_monomial(upart, n, nb)
    vals = [m[k - 1] for k in orbit]
    counts, offs = Counter(vals), []
    for head in _arrangements(counts, len(orbit) - len(rest)):
        new = head + tuple(v for v, k in counts.items() for _ in range(k))
        offs.append(sum((x - y) << (8 * nb * (k - 1)) for x, y, k in zip(new, vals, orbit)))
    return tuple(offs)


def split_orbits(f: Packed, n: int, orbit: tuple[int, ...], rest: tuple[int, ...]) -> Packed:
    """f given by Sym(orbit)-representatives, rewritten by
    Sym(rest)-representatives, rest a suffix of orbit: each orbit splits by
    the values on the slots before rest, and each part keeps the
    coefficient.  rest = () expands f to plain terms in one pass."""
    nb = f.nb
    umask = sum(((1 << (8 * nb)) - 1) << (8 * nb * (k - 1)) for k in orbit)
    groups = []
    for den, terms in f.groups:
        out = {}
        for key, v in terms.items():
            for off in _split_offsets(key & umask, n, nb, orbit, rest):
                out[key + off] = v
        groups.append((den, out))
    return Packed(nb, groups)


@lru_cache(maxsize=None)
def _packed_neg_sum_power(nvars: int, e: int, p: int, nb: int) -> tuple[tuple[int, int], ...]:
    """(-(x_1+...+x_nvars))^e mod p on packed keys: x_n^e reduced."""
    return tuple((pack_monomial(m, nb), k) for m, k in _neg_sum_power_mod(nvars, e, p))


def reduce_groups(f: Packed, ctx: DunklContext):
    """Each group of f as (tag, {packed (n-1)-slot key: raw value}), slot n reduced."""
    nv, nb, ring = ctx.nvars, f.nb, RingAdapter.of(ctx.domain)
    add, mul, of_int, zero = ring.add, ring.mul, ring.of_int, ring.zero
    width = 8 * nb * nv
    low = (1 << width) - 1
    for tag, terms in f.groups:
        out: dict[int, object] = {}
        get = out.get
        for key, v in terms.items():
            u, rest = key >> width, key & low
            if not u:
                out[rest] = add(get(rest, zero), v)
                continue
            for xm, k in _packed_neg_sum_power(nv, u, ring.p, nb):
                kk = rest + xm
                out[kk] = add(get(kk, zero), v if k == 1 else mul(v, of_int(k)))
        yield tag, _settle(out, ring.norm)


def reduce_raw(f: Packed, ctx: DunklContext) -> ReducedPoly:
    """Sum of the packed groups, slot n reduced, as one reduced polynomial."""
    dom, nv, nb = ctx.domain, ctx.nvars, f.nb
    total = None
    for den, out in reduce_groups(f, ctx):
        keys = [unpack_monomial(k, nv, nb) for k in out]
        if den is None:
            vals = out.values()
        elif den == dom.ring.one:
            vals = [(v, den) for v in out.values()]
        else:
            vals = [dom.make(v, den) for v in out.values()]
        part = ReducedPoly(dom, nv, dict(zip(keys, vals)))
        total = part if total is None else total.add(part)
    return total if total is not None else ReducedPoly.zero(dom, nv)


def dunkl_z(f: ReducedPoly, i: int, ctx: DunklContext) -> ReducedPoly:
    """The workhorse operator D_{y_i - y_n}, i in 1..n-1."""
    if not 1 <= i <= ctx.nvars:
        raise ValueError(f"operator index {i} out of 1..{ctx.nvars}")
    return reduce_raw(dunkl_z_raw(lift_raw(f), i, ctx), ctx)


def dunkl(f: ReducedPoly, i: int, ctx: DunklContext) -> ReducedPoly:
    """The single Dunkl operator D_{y_i}, i in 1..n (n allowed).

    On reduced representatives the derivative never touches slot n, and
    D_{y_n} consists solely of the reflection sums through the substitution.
    """
    if not 1 <= i <= ctx.n:
        raise ValueError(f"index {i} out of 1..{ctx.n}")
    dom = ctx.domain
    n = ctx.n
    nv = ctx.nvars
    from .action import divided_difference

    out = ReducedPoly.zero(dom, nv)
    if ctx.t == 1 and i < n:
        dterms = {}
        for m, v in f.terms.items():
            e = m[i - 1]
            coef = dom.mul(v, dom.from_int(e))
            if e and not dom.is_zero(coef):
                mm = list(m)
                mm[i - 1] -= 1
                dterms[tuple(mm)] = coef
        out = out.add(ReducedPoly(dom, nv, dterms))
    acc = ReducedPoly.zero(dom, nv)
    for k in range(1, n + 1):
        if k == i:
            continue
        acc = acc.add(divided_difference(f, i, k, n))
    return out.sub(acc.scalar_mul(dom.c_scalar()))


def dunkl_difference(f: ReducedPoly, i: int, j: int, ctx: DunklContext) -> ReducedPoly:
    """D_{y_i - y_j} = D_{y_i} - D_{y_j}; i = j gives 0 (flagged in the log)."""
    if i == j:
        log.debug("dunkl_difference called with i == j == %d; returning 0", i)
        return ReducedPoly.zero(ctx.domain, ctx.nvars)
    if j == ctx.n:
        return dunkl_z(f, i, ctx)
    if i == ctx.n:
        return dunkl_z(f, j, ctx).neg()
    return dunkl_z(f, i, ctx).sub(dunkl_z(f, j, ctx))


# ---------------------------------------------------------------------------
# Commutator self-test: the defining relations as operator identities
# ---------------------------------------------------------------------------


@dataclass
class CommutatorFailure:
    i: int
    j: int
    a: int
    f: ReducedPoly
    lhs: ReducedPoly
    rhs: ReducedPoly


@dataclass
class CommutatorReport:
    checked: int
    failures: list[CommutatorFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def commutator_rhs(
    f: ReducedPoly, i: int, j: int, a: int, ctx: DunklContext
) -> ReducedPoly:
    """[D_{y_i - y_j}, x_a] f per the defining relations of the algebra."""
    dom = ctx.domain
    n = ctx.n
    c = dom.c_scalar()

    def refl(b, k):
        return apply_transposition(f, Transposition(b, k), n)

    if a == i:
        out = f.scalar_mul(dom.from_int(ctx.t))
        out = out.sub(refl(i, j).scalar_mul(c))
        for k in range(1, n + 1):
            if k != i:
                out = out.sub(refl(i, k).scalar_mul(c))
        return out
    if a == j:
        out = f.scalar_mul(dom.from_int(ctx.t)).neg()
        out = out.add(refl(i, j).scalar_mul(c))
        for k in range(1, n + 1):
            if k != j:
                out = out.add(refl(j, k).scalar_mul(c))
        return out
    return refl(i, a).scalar_mul(c).sub(refl(j, a).scalar_mul(c))


def check_commutators(
    ctx: DunklContext,
    degree: int,
    trials: int,
    seed: int = 0,
    dunkl_difference_fn=None,
) -> CommutatorReport:
    """Verify [D_{y_i-y_j}, x_a] on random homogeneous polynomials.

    Every (i, j, a) triple with i < j <= n, a <= n is exercised for each
    random polynomial; counts in the report are individual identities.
    """
    import random as _random

    dd = dunkl_difference_fn or dunkl_difference
    rng = _random.Random(seed)
    checked = 0
    failures: list[CommutatorFailure] = []
    for _ in range(trials):
        d = rng.randint(0, degree)
        f = random_homogeneous(ctx.domain, ctx.nvars, d, rng)
        for i in range(1, ctx.n + 1):
            for j in range(i + 1, ctx.n + 1):
                for a in range(1, ctx.n + 1):
                    xa = reduced_variable(ctx, a)
                    lhs = dd(xa.mul(f), i, j, ctx).sub(xa.mul(dd(f, i, j, ctx)))
                    rhs = commutator_rhs(f, i, j, a, ctx)
                    checked += 1
                    if lhs != rhs:
                        failures.append(CommutatorFailure(i, j, a, f, lhs, rhs))
                        if len(failures) >= 3:
                            return CommutatorReport(checked, failures)
    return CommutatorReport(checked, failures)

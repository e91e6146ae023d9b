"""Dunkl operators on the reduced polynomial module.

D_{y_i} = t * d/dx_i - c * sum_{k != i} (x_i - x_k)^{-1} (1 - s_{ik})

Downstream code uses the operator basis {D_{y_i - y_n} : i = 1..n-1}.  One
term-level core applies D_{y_i - y_n} to unreduced n-slot terms with raw
ring coefficients (ints for F_p, numerators for F_p(c)) and the context's
own c.  Each monomial is one int key holding its n exponents in fixed-width
slots (``Packed``), so a shift of exponents is an int addition.  ``dunkl_z``
lifts a reduced representative to n slots, runs the core and reduces slot n
through x_n = -(x_1 + ... + x_{n-1}); the membership walk stays upstairs and
reduces only its leaves.  On a Sym(U)-invariant polynomial for a set U of
orbit slots the core works on orbit representatives, the terms with
nonincreasing U-exponents: a run of equal U-exponents e is treated at one
of its slots, and each output term goes to its re-sorted key with weight
mu_e', the number of U-slots of the output carrying its new exponent e'
(an integer mod p, so no stabilizer order is ever divided by).
``split_orbits`` splits each orbit by the value at the first orbit slot.  ``dunkl`` applies the single
operator D_{y_i} through divided differences and is kept as the independent
oracle for the core.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .fields import CoeffDomain, PrimeField, RationalFunctionField
from .poly import Monomial, ReducedPoly, random_homogeneous
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


class _Ring(NamedTuple):
    """Raw coefficient arithmetic of one domain, bound once for the core.

    Over F_p the core adds plain ints and reduces mod p only in ``norm``;
    elsewhere ``norm`` is None and a raw value is falsy exactly when zero.
    """

    p: int
    add: Callable
    neg: Callable
    mul: Callable
    of_int: Callable
    norm: Callable | None
    zero: object
    c: object


@lru_cache(maxsize=None)
def _ring(dom: CoeffDomain) -> _Ring:
    if isinstance(dom, PrimeField):
        p = dom.p

        def mod_p(v):
            return v % p

        return _Ring(p, operator.add, operator.neg, operator.mul, mod_p, mod_p, 0, dom.c_value)
    # F_p(c) works on numerators in F_p[c]; F_2[c] packs them into ints, so
    # XOR adds and negation is the identity
    ring = dom.ring
    add, neg = (operator.xor, operator.pos) if dom.p == 2 else (ring.add, ring.neg)

    def of_int(k):
        return ring.from_coeffs((k,))

    return _Ring(dom.p, add, neg, ring.mul, of_int, None, ring.zero, dom.c_scalar()[0])


def _settle(out: dict, norm) -> dict:
    """Normal forms of accumulated values, zero terms dropped."""
    if norm is None:
        return {m: v for m, v in out.items() if v}
    return {m: w for m, v in out.items() if (w := norm(v))}


class Packed(NamedTuple):
    """Raw n-slot terms in groups (denominator, {key: raw ring value}).

    A key packs the exponents m_1..m_n into one int, nb bytes per slot:
    slot k sits at bits 8 nb (k-1) and up.  ``lift_raw`` picks nb for the
    degree of its input, and no operator raises the degree, so no exponent
    overflows its slot.  D is F_p(c)-linear, so each denominator group of an
    F_p(c) polynomial runs through the core on its numerators alone; the
    other domains form one group with denominator None.
    """

    nb: int
    groups: list[tuple[object, dict[int, object]]]


def pack_monomial(m: Monomial, nb: int) -> int:
    """The packed key of an exponent tuple, nb bytes per slot."""
    if nb == 1:
        return int.from_bytes(bytes(m), "little")
    return int.from_bytes(b"".join(e.to_bytes(nb, "little") for e in m), "little")


def unpack_monomial(key: int, slots: int, nb: int) -> Monomial:
    """The exponents of the first ``slots`` slots of a packed key."""
    raw = key.to_bytes(slots * nb, "little")
    if nb == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[j : j + nb], "little") for j in range(0, len(raw), nb))


@lru_cache(maxsize=None)
def _core_layout(i: int, n: int, t: int, c, ring: _Ring, nb: int, orbit: tuple[int, ...]):
    """The per-operator constants of ``_dunkl_core``, built once.

    The orbit slots get a mask covering them and slots i and n, and a memo
    of ``_orbit_table`` by masked key; with no orbit slots the mask is 0.
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
    # (slot k, its unit, step of delta_{ik}, step of delta_{kn}), 0-based slots
    spare = tuple(
        (k, unit[k], ui - unit[k], unit[k] - un)
        for k in range(n - 1)
        if k != i - 1 and k + 1 not in orbit
    )
    full = (1 << (8 * nb)) - 1
    omask = sum(full * unit[k - 1] for k in (i, n) + orbit) if orbit else 0
    return of_int(2), at_i, at_n, ui, un, spare, ui - un, omask, {}


def _orbit_table(mkey: int, i: int, n: int, nb: int, orbit: tuple[int, ...], ring: _Ring):
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


def _dunkl_core(f: Packed, i: int, n: int, t: int, c, ring: _Ring, orbit: tuple[int, ...] = ()) -> Packed:
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
    is written.  Empty groups are dropped.  Reducing slot n afterwards is
    sound in every characteristic: [y_i - y_n, x_1 + ... + x_n] = 0, so the
    operator preserves that ideal.

    With orbit slots U (1-based, i not among them), f is Sym(U)-invariant
    and given by its orbit representatives, the terms whose U-exponents are
    nonincreasing along U; the image comes back the same way.  The U-slots'
    delta terms are then read off ``_orbit_table`` by representative.
    """
    p, add, neg, mul, zero, nb = ring.p, ring.add, ring.neg, ring.mul, ring.zero, f.nb
    two, at_i, at_n, ui, un, spare, step_in, omask, tables = _core_layout(i, n, t, c, ring, nb, orbit)
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
                rest = a > 1 or b > 1
                for k, uk, step_ik, step_kn in spare:
                    e = m[k]
                    if not e:
                        if not rest:
                            continue
                        # delta_{ik} but its term at m - e_i: x_i^s x_k^(a-1-s), s < a - 1
                        start = key - a * ui + (a - 1) * uk
                        for _ in range(a - 1):
                            out[start] = add(get(start, zero), cv)
                            start += step_ik
                        # delta_{kn} but its term at m - e_n: -x_k^s x_n^(b-1-s), 0 < s < b
                        start = key + uk - 2 * un
                        for _ in range(b - 1):
                            out[start] = add(get(start, zero), ncv)
                            start += step_kn
                        continue
                    # for e > a, b the cancelling terms at m - e_k are skipped:
                    # the first of delta_{ik} and the last of delta_{kn}
                    if a != e:  # delta_{ik} on x_i^a x_k^e
                        if a > e:
                            sv, start, stop = cv, key + (e - a) * ui + (a - 1 - e) * uk, a - e
                        else:
                            sv, start, stop = ncv, key - uk, e - a
                            if e > b:
                                start, stop = start + step_ik, stop - 1
                        for _ in range(stop):
                            out[start] = add(get(start, zero), sv)
                            start += step_ik
                    if e != b:  # delta_{kn} on x_k^e x_n^b
                        if e > b:
                            sv, start, stop = cv, key + (b - e) * uk + (e - 1 - b) * un, e - b - (e > a)
                        else:
                            sv, start, stop = ncv, key - un, b - e
                        for _ in range(stop):
                            out[start] = add(get(start, zero), sv)
                            start += step_kn
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
    ring = _ring(ctx.domain)
    return _dunkl_core(f, i, ctx.n, ctx.t, ring.c, ring, orbit)


@lru_cache(maxsize=None)
def _split_offsets(upart: int, n: int, nb: int, orbit: tuple[int, ...]) -> tuple[int, ...]:
    """Key offsets from one Sym(orbit)-representative to the
    Sym(orbit[1:])-representatives of its orbit, one per distinct value
    moved to slot orbit[0]; the other values stay nonincreasing."""
    m = unpack_monomial(upart, n, nb)
    vals = [m[k - 1] for k in orbit]
    offs = []
    for q, v in enumerate(vals):
        if q and v == vals[q - 1]:
            continue
        new = [v] + vals[:q] + vals[q + 1 :]
        offs.append(sum((x - y) << (8 * nb * (k - 1)) for x, y, k in zip(new, vals, orbit)))
    return tuple(offs)


def split_orbits(f: Packed, n: int, orbit: tuple[int, ...]) -> Packed:
    """f given by Sym(orbit)-representatives, rewritten by
    Sym(orbit[1:])-representatives: each orbit splits by the value at slot
    orbit[0], and each part keeps the coefficient."""
    nb = f.nb
    umask = sum(((1 << (8 * nb)) - 1) << (8 * nb * (k - 1)) for k in orbit)
    groups = []
    for den, terms in f.groups:
        out = {}
        for key, v in terms.items():
            for off in _split_offsets(key & umask, n, nb, orbit):
                out[key + off] = v
        groups.append((den, out))
    return Packed(nb, groups)


@lru_cache(maxsize=None)
def _packed_neg_sum_power(nvars: int, e: int, p: int, nb: int) -> tuple[tuple[int, int], ...]:
    """(-(x_1+...+x_nvars))^e mod p on packed keys: x_n^e reduced."""
    return tuple((pack_monomial(m, nb), k) for m, k in _neg_sum_power_mod(nvars, e, p))


def reduce_raw(f: Packed, ctx: DunklContext) -> ReducedPoly:
    """Sum of the packed groups, slot n reduced, as one reduced polynomial."""
    dom, nv, nb = ctx.domain, ctx.nvars, f.nb
    ring = _ring(dom)
    add, mul, of_int, zero = ring.add, ring.mul, ring.of_int, ring.zero
    width = 8 * nb * nv
    low = (1 << width) - 1
    total = None
    for den, terms in f.groups:
        out: dict[int, object] = {}
        get = out.get
        for key, v in terms.items():
            u, rest = key >> width, key & low
            if not u:
                out[rest] = add(get(rest, zero), v)
                continue
            for xm, k in _packed_neg_sum_power(nv, u, dom.p, nb):
                kk = rest + xm
                out[kk] = add(get(kk, zero), v if k == 1 else mul(v, of_int(k)))
        out = _settle(out, ring.norm)
        if nb == 1:
            keys = [tuple(k.to_bytes(nv, "little")) for k in out]
        else:
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


def dunkl_parts(f: ReducedPoly, i: int, j: int, ctx: DunklContext):
    """Split D_{y_i-y_j} f = alpha + c * beta (t = 1 only).

    alpha is the plain derivative part (d_i - d_j) f, the core with
    (t, c) = (1, 0); beta is the core with (t, c) = (0, 1), the
    divided-difference sums, so the identity holds as polynomials in c.
    """
    if ctx.t != 1:
        raise ValueError("the alpha/beta decomposition requires a t=1 context")
    ring = _ring(ctx.domain)
    lifted = lift_raw(f)

    def part(k, t, c):
        if k == ctx.n:  # D_{y_n - y_n} = 0
            return ReducedPoly.zero(ctx.domain, ctx.nvars)
        return reduce_raw(_dunkl_core(lifted, k, ctx.n, t, c, ring), ctx)

    one = ring.of_int(1)
    alpha = part(i, 1, ring.zero).sub(part(j, 1, ring.zero))
    beta = part(i, 0, one).sub(part(j, 0, one))
    return alpha, beta


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

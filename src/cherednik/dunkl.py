"""Dunkl operators on the reduced polynomial module.

D_{y_i} = t * d/dx_i - c * sum_{k != i} (x_i - x_k)^{-1} (1 - s_{ik})

Downstream code uses the operator basis {D_{y_i - y_n} : i = 1..n-1}.  One
term-level core applies D_{y_i - y_n} to unreduced n-slot term dicts with raw
ring coefficients (ints for F_p, numerators for F_p(c)) and the context's
own c.  ``dunkl_z`` lifts a reduced representative to n slots, runs the core
and reduces slot n through x_n = -(x_1 + ... + x_{n-1}); membership trees
stay upstairs and reduce only their leaves.  ``dunkl`` applies the single
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
from .action import Transposition, _neg_sum_power_mod, apply_transposition

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
# The Dunkl core on raw term dicts {exponent tuple: raw ring value}
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
    # F_p(c) works on numerators in F_p[c]
    ring = dom.ring

    def of_int(k):
        return ring.from_coeffs((k,))

    return _Ring(dom.p, ring.add, ring.neg, ring.mul, of_int, None, ring.zero, dom.c_scalar()[0])


def _settle(out: dict, norm) -> dict:
    """Normal forms of accumulated values, zero terms dropped."""
    if norm is None:
        return {m: v for m, v in out.items() if v}
    return {m: w for m, v in out.items() if (w := norm(v))}


def _dunkl_core(terms: dict, i: int, n: int, t: int, c, ring: _Ring) -> dict:
    """D_{y_i - y_n} on raw n-slot terms, without reducing slot n.

        D_{y_i-y_n} = t (d_i - d_n)
                      - c [2 delta_{in} + sum_{k != i,n} (delta_{ik} + delta_{kn})]

    where delta_{uw} = (1 - s_{uw}) / (x_u - x_w) sends x_u^a x_w^b to the
    two-slot geometric sum sign(a - b) * sum_{min <= s < max} x_u^s x_w^{a+b-1-s}.
    Reducing slot n afterwards is sound in every characteristic:
    [y_i - y_n, x_1 + ... + x_n] = 0, so the operator preserves that ideal.
    """
    p, add, neg, mul, of_int, zero = ring.p, ring.add, ring.neg, ring.mul, ring.of_int, ring.zero
    two = of_int(2)
    # (u, w, doubled) for every delta_{uw} above, 0-based slots
    deltas = [
        (u, w, False)
        for k in range(n - 1)
        if k != i - 1
        for u, w in ((i - 1, k), (k, n - 1))
    ]
    if two:
        deltas.append((i - 1, n - 1, True))
    out: dict[Monomial, object] = {}
    for m, v in terms.items():
        if t:
            for slot, sv in ((i - 1, v), (n - 1, neg(v))):
                e = m[slot] % p
                if e:
                    mm = list(m)
                    mm[slot] -= 1
                    key = tuple(mm)
                    out[key] = add(out.get(key, zero), sv if e == 1 else mul(sv, of_int(e)))
        if not c:
            continue
        cv = neg(mul(v, c))
        cv2 = mul(cv, two)
        for u, w, doubled in deltas:
            a, b = m[u], m[w]
            if a == b:
                continue
            sv = cv2 if doubled else cv
            if a > b:
                lo, hi = b, a
            else:
                lo, hi, sv = a, b, neg(sv)
            tot = a + b - 1
            mm = list(m)
            for s in range(lo, hi):
                mm[u] = s
                mm[w] = tot - s
                key = tuple(mm)
                out[key] = add(out.get(key, zero), sv)
    return _settle(out, ring.norm)


def lift_raw(f: ReducedPoly) -> list[tuple[object, dict]]:
    """f lifted to n slots as raw terms, in groups (denominator, terms).

    D is F_p(c)-linear, so each denominator group of an F_p(c) polynomial
    runs through the core on its numerators alone; the other domains form
    one group with denominator None.
    """
    if not isinstance(f.domain, RationalFunctionField):
        return [(None, {m + (0,): v for m, v in f.terms.items()})]
    groups: dict[object, dict] = {}
    for m, (num, den) in f.terms.items():
        groups.setdefault(den, {})[m + (0,)] = num
    return list(groups.items())


def dunkl_z_raw(terms: dict, i: int, ctx: DunklContext) -> dict:
    """D_{y_i - y_n} with the context's t and c on raw n-slot terms."""
    ring = _ring(ctx.domain)
    return _dunkl_core(terms, i, ctx.n, ctx.t, ring.c, ring)


def reduce_raw(groups: list[tuple[object, dict]], ctx: DunklContext) -> ReducedPoly:
    """Sum of raw n-slot groups, slot n reduced, as one reduced polynomial."""
    dom = ctx.domain
    ring = _ring(dom)
    add, mul, of_int, zero = ring.add, ring.mul, ring.of_int, ring.zero
    total = None
    for den, terms in groups:
        out: dict[Monomial, object] = {}
        for m, v in terms.items():
            rest, u = m[:-1], m[-1]
            if not u:
                out[rest] = add(out.get(rest, zero), v)
                continue
            for xm, k in _neg_sum_power_mod(ctx.nvars, u, dom.p):
                key = tuple(map(operator.add, rest, xm))
                out[key] = add(out.get(key, zero), v if k == 1 else mul(v, of_int(k)))
        out = _settle(out, ring.norm)
        if den is not None:
            tag = (lambda v: (v, den)) if den == dom.ring.one else (lambda v: dom.make(v, den))
            out = {m: tag(v) for m, v in out.items()}
        part = ReducedPoly(dom, ctx.nvars, out)
        total = part if total is None else total.add(part)
    return total if total is not None else ReducedPoly.zero(dom, ctx.nvars)


def dunkl_z(f: ReducedPoly, i: int, ctx: DunklContext) -> ReducedPoly:
    """The workhorse operator D_{y_i - y_n}, i in 1..n-1."""
    if not 1 <= i <= ctx.nvars:
        raise ValueError(f"operator index {i} out of 1..{ctx.nvars}")
    return reduce_raw([(den, dunkl_z_raw(terms, i, ctx)) for den, terms in lift_raw(f)], ctx)


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
    groups = lift_raw(f)

    def part(k, t, c):
        if k == ctx.n:  # D_{y_n - y_n} = 0
            return ReducedPoly.zero(ctx.domain, ctx.nvars)
        return reduce_raw(
            [(den, _dunkl_core(terms, k, ctx.n, t, c, ring)) for den, terms in groups], ctx
        )

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


def _reduced_variable(ctx: DunklContext, a: int) -> ReducedPoly:
    """x_a as a reduced polynomial; a = n expands to -(x_1+...+x_{n-1})."""
    from .action import neg_sum_power

    if a < ctx.n:
        return ReducedPoly.variable(ctx.domain, ctx.nvars, a)
    return neg_sum_power(ctx.domain, ctx.nvars, 1)


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
                    xa = _reduced_variable(ctx, a)
                    lhs = dd(xa.mul(f), i, j, ctx).sub(xa.mul(dd(f, i, j, ctx)))
                    rhs = commutator_rhs(f, i, j, a, ctx)
                    checked += 1
                    if lhs != rhs:
                        failures.append(CommutatorFailure(i, j, a, f, lhs, rhs))
                        if len(failures) >= 3:
                            return CommutatorReport(checked, failures)
    return CommutatorReport(checked, failures)

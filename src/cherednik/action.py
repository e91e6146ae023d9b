"""Symmetric-group action on reduced polynomials and exact divided differences.

Transpositions with both indices below n permute exponent slots.  When one
index is n, the action goes through the substitution
x_i -> -(x_1 + ... + x_{n-1}) and a re-expansion to reduced form.

The divided difference (1 - s_{ik})/(x_i - x_k) is computed monomial-wise by
the geometric-sum closed form; a lift-subtract-divide path is kept as an
independent cross-check (and is the primary route when one index is n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import CoeffDomain
from .poly import Monomial, ReducedPoly


@dataclass(frozen=True)
class Transposition:
    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("transposition indices must differ")


@lru_cache(maxsize=None)
def _sum_power_int(nvars: int, e: int) -> tuple[tuple[Monomial, int], ...]:
    """(x_1+...+x_nvars)^e with integer multinomial coefficients."""
    if e == 0:
        return (((0,) * nvars, 1),)
    prev = dict(_sum_power_int(nvars, e - 1))
    out: dict[Monomial, int] = {}
    for m, a in prev.items():
        for i in range(nvars):
            key = m[:i] + (m[i] + 1,) + m[i + 1 :]
            out[key] = out.get(key, 0) + a
    return tuple(out.items())


@lru_cache(maxsize=None)
def _neg_sum_power_mod(nvars: int, e: int, p: int) -> tuple[tuple[Monomial, int], ...]:
    """(-(x_1+...+x_nvars))^e with coefficients mod p, zero ones dropped."""
    sign = -1 if e % 2 else 1
    return tuple((m, sign * a % p) for m, a in _sum_power_int(nvars, e) if a % p)


def neg_sum_power(domain: CoeffDomain, nvars: int, e: int) -> ReducedPoly:
    """(-(x_1 + ... + x_{n-1}))^e as a ReducedPoly; this is x_n^e reduced."""
    terms = {m: domain.from_int(a) for m, a in _neg_sum_power_mod(nvars, e, domain.p)}
    return ReducedPoly(domain, nvars, terms)


def reduced_variable(ctx, i: int) -> ReducedPoly:
    """x_i as a reduced polynomial for a DunklContext; i = n expands to -(x_1+...+x_{n-1})."""
    if not 1 <= i <= ctx.n:
        raise ValueError(f"index {i} out of 1..{ctx.n}")
    if i < ctx.n:
        return ReducedPoly.variable(ctx.domain, ctx.nvars, i)
    return neg_sum_power(ctx.domain, ctx.nvars, 1)


def substitute_variable(f: ReducedPoly, i: int) -> ReducedPoly:
    """Replace x_i by -(x_1 + ... + x_{n-1}) and re-expand: move the
    exponent of slot i to a new last slot and reduce that slot."""
    moved = {m[: i - 1] + (0,) + m[i:] + (m[i - 1],): v for m, v in f.terms.items()}
    return reduce_last(ReducedPoly(f.domain, f.nvars + 1, moved))


def apply_transposition(f: ReducedPoly, s: Transposition, n: int) -> ReducedPoly:
    """Action of the transposition s on a reduced polynomial in n-1 slots."""
    i, j = s.i, s.j
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"transposition indices out of 1..{n}")
    if f.nvars != n - 1:
        raise ValueError("polynomial slot count does not match n")
    if i > j:
        i, j = j, i
    if j < n:
        out = {}
        for m, v in f.terms.items():
            lm = list(m)
            lm[i - 1], lm[j - 1] = lm[j - 1], lm[i - 1]
            out[tuple(lm)] = v
        return ReducedPoly(f.domain, f.nvars, out)
    return substitute_variable(f, i)


def lift(f: ReducedPoly) -> ReducedPoly:
    """Embed an (n-1)-slot reduced polynomial into n formal variables."""
    return ReducedPoly(
        f.domain, f.nvars + 1, {m + (0,): v for m, v in f.terms.items()}
    )


def reduce_last(f: ReducedPoly) -> ReducedPoly:
    """Eliminate the last slot via x_n = -(x_1 + ... + x_{n-1})."""
    dom = f.domain
    nv = f.nvars - 1
    out = ReducedPoly.zero(dom, nv)
    for m, v in f.terms.items():
        e = m[-1]
        rest = m[:-1]
        piece = neg_sum_power(dom, nv, e).monomial_mul(rest).scalar_mul(v)
        out = out.add(piece)
    return out


def _geometric_pair(dom, m: Monomial, i: int, k: int):
    """Terms of (x_i^a x_k^b - x_i^b x_k^a)/(x_i - x_k) applied slot-wise."""
    a, b = m[i - 1], m[k - 1]
    if a == b:
        return
    one = dom.one
    neg_one = dom.neg(one)
    if a > b:
        lo, hi, sign = b, a, one
    else:
        lo, hi, sign = a, b, neg_one
    total = a + b - 1
    for s in range(lo, hi):
        mm = list(m)
        mm[i - 1] = s
        mm[k - 1] = total - s
        yield tuple(mm), sign


def _divided_difference_closed(f: ReducedPoly, i: int, k: int) -> ReducedPoly:
    dom = f.domain
    out: dict[Monomial, object] = {}
    for m, v in f.terms.items():
        for mm, sign in _geometric_pair(dom, m, i, k):
            inc = dom.mul(v, sign)
            if mm in out:
                s = dom.add(out[mm], inc)
                if dom.is_zero(s):
                    del out[mm]
                else:
                    out[mm] = s
            else:
                out[mm] = inc
    return ReducedPoly(dom, f.nvars, out)


def exact_divide_linear_diff(g: ReducedPoly, i: int, k: int) -> ReducedPoly:
    """Exact quotient g / (x_i - x_k); raises if the remainder is nonzero.

    Synthetic division in the variable x_i: walking x_i-exponents downward,
    each quotient layer feeds x_k times itself into the next layer.
    """
    dom = g.domain
    if g.is_zero():
        return g
    layers: dict[int, dict[Monomial, object]] = {}
    for m, v in g.terms.items():
        layers.setdefault(m[i - 1], {})[m] = v
    quotient: dict[Monomial, object] = {}
    carry: dict[Monomial, object] = {}
    for a in range(max(layers) , -1, -1):
        cur = dict(layers.get(a, {}))
        for m, v in carry.items():
            if m in cur:
                s = dom.add(cur[m], v)
                if dom.is_zero(s):
                    del cur[m]
                else:
                    cur[m] = s
            else:
                cur[m] = v
        if a == 0:
            if cur:
                raise ArithmeticError(
                    "nonzero remainder in divided-difference division"
                )
            break
        carry = {}
        for m, v in cur.items():
            qm = list(m)
            qm[i - 1] = a - 1
            quotient[tuple(qm)] = v
            cm = list(qm)
            cm[k - 1] += 1
            cm = tuple(cm)
            if cm in carry:
                s = dom.add(carry[cm], v)
                if dom.is_zero(s):
                    del carry[cm]
                else:
                    carry[cm] = s
            else:
                carry[cm] = v
    return ReducedPoly(dom, g.nvars, quotient)


def divided_difference(
    f: ReducedPoly, i: int, k: int, n: int, method: str = "closed"
) -> ReducedPoly:
    """(f - s_{ik} f)/(x_i - x_k), exact, degree lowered by one.

    Degree-0 input gives 0.  With k == n (or i == n) the computation lifts
    to n formal variables, applies the two-index closed form there, and
    reduces the quotient back to n-1 slots.
    """
    if i == k:
        raise ValueError("divided difference needs distinct indices")
    if not (1 <= i <= n and 1 <= k <= n):
        raise ValueError(f"indices out of 1..{n}")
    if f.nvars != n - 1:
        raise ValueError("polynomial slot count does not match n")
    if f.is_zero() or f.degree() == 0:
        return ReducedPoly.zero(f.domain, f.nvars)
    sign = 1
    if i > k:
        i, k = k, i
        sign = -1  # (1-s)/(x_k - x_i) = -(1-s)/(x_i - x_k)
    if k == n:
        lifted = lift(f)
        out = reduce_last(_divided_difference_closed(lifted, i, n))
    elif method == "closed":
        out = _divided_difference_closed(f, i, k)
    elif method == "lift":
        g = f.sub(apply_transposition(f, Transposition(i, k), n))
        out = exact_divide_linear_diff(g, i, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out.neg() if sign < 0 else out

"""Constructors for the catalogued singular / kernel polynomial families.

Each family is built in the reduced variables (an index equal to n goes
through the substitution), and is meant to be certified afterwards by
``is_singular`` or ``is_in_kernel`` in its stated regime:

  quad_pair        x_i^2 + x_i x_j + x_j^2                  t=0, p=2
  skew_quad        (x_j - x_k)(x_i - x_j - x_k)             t=0, odd p
  cubic_pair       x_i^3 - x_i^2 x_j + x_j^3                t=0, p=3
  power_pair       x_i^p - x_i x_j^{p-1} + x_j^p            t=0, odd p
  quartic_c_pair   f0 + c f1 with f0 = x_i^4+x_i^2x_j^2+x_j^4,
                   f1 = x_i^2x_j^2 + (x_i+x_j) sum_{k!=i,j} x_k^3
                                                            t=1, p=2
  coeff_series     truncated-binomial generating-function family
                   [z^p] F(z)/(1 - x_i z),
                   F(z) = sum_m binom(c, m) (g(z)-1)^m,
                   g(z) = prod_j (1 - x_j z)                t=1, p | n

The quartic family is the c-scaled form whose c^0 part is
x_i^4 + x_i^2 x_j^2 + x_j^4; binom(c, m) is expanded as the polynomial
c(c-1)...(c-m+1)/m! over F_p, valid since m < p.
"""

from __future__ import annotations

from .fields import RationalFunctionField
from .poly import ReducedPoly
from .action import reduced_variable
from .dunkl import DunklContext


class RegimeError(ValueError):
    """Family requested outside the parameter regime it is stated for."""


FAMILIES = (
    "quad_pair",
    "skew_quad",
    "cubic_pair",
    "power_pair",
    "quartic_c_pair",
    "coeff_series",
)


def _need(cond: bool, family: str, requirement: str):
    if not cond:
        raise RegimeError(f"family {family!r} requires {requirement}")


def _distinct(*idx):
    if len(set(idx)) != len(idx):
        raise ValueError("family indices must be distinct")


def singular_catalog(family: str, params: dict, ctx: DunklContext) -> ReducedPoly:
    """Construct one member of a catalogued family in the given context."""
    p = ctx.p
    if family == "quad_pair":
        _need(ctx.t == 0, family, "t=0")
        _need(p == 2, family, "p=2")
        i, j = params["i"], params["j"]
        _distinct(i, j)
        xi, xj = reduced_variable(ctx, i), reduced_variable(ctx, j)
        return xi.mul(xi).add(xi.mul(xj)).add(xj.mul(xj))
    if family == "skew_quad":
        _need(ctx.t == 0, family, "t=0")
        _need(p % 2 == 1, family, "odd p")
        i, j, k = params["i"], params["j"], params["k"]
        _distinct(i, j, k)
        xi, xj, xk = reduced_variable(ctx, i), reduced_variable(ctx, j), reduced_variable(ctx, k)
        return xj.sub(xk).mul(xi.sub(xj).sub(xk))
    if family == "cubic_pair":
        _need(ctx.t == 0, family, "t=0")
        _need(p == 3, family, "p=3")
        i, j = params["i"], params["j"]
        _distinct(i, j)
        xi, xj = reduced_variable(ctx, i), reduced_variable(ctx, j)
        return xi.pow(3).sub(xi.pow(2).mul(xj)).add(xj.pow(3))
    if family == "power_pair":
        _need(ctx.t == 0, family, "t=0")
        _need(p % 2 == 1, family, "odd p")
        i, j = params["i"], params["j"]
        _distinct(i, j)
        xi, xj = reduced_variable(ctx, i), reduced_variable(ctx, j)
        return xi.pow(p).sub(xi.mul(xj.pow(p - 1))).add(xj.pow(p))
    if family == "quartic_c_pair":
        _need(ctx.t == 1, family, "t=1")
        _need(p == 2, family, "p=2")
        _need(isinstance(ctx.domain, RationalFunctionField), family, "generic c")
        i, j = params["i"], params["j"]
        _distinct(i, j)
        xi, xj = reduced_variable(ctx, i), reduced_variable(ctx, j)
        f0 = xi.pow(4).add(xi.pow(2).mul(xj.pow(2))).add(xj.pow(4))
        cubes = ReducedPoly.zero(ctx.domain, ctx.nvars)
        for k in range(1, ctx.n + 1):
            if k in (i, j):
                continue
            cubes = cubes.add(reduced_variable(ctx, k).pow(3))
        f1 = xi.pow(2).mul(xj.pow(2)).add(xi.add(xj).mul(cubes))
        return f0.add(f1.scalar_mul(ctx.domain.c_scalar()))
    if family == "coeff_series":
        return _coeff_series_member(params, ctx)
    raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")


def _falling_binomial_c(dom: RationalFunctionField, m: int):
    """binom(c, m) = c(c-1)...(c-m+1)/m! as a scalar of F_p(c); needs m < p."""
    num = dom.one
    for a in range(m):
        num = dom.mul(num, dom.add(dom.c_scalar(), dom.from_int(-a)))
    mfact = 1
    for a in range(2, m + 1):
        mfact *= a
    return dom.mul(num, dom.inv(dom.from_int(mfact)))


def _coeff_series_member(params: dict, ctx: DunklContext) -> ReducedPoly:
    p = ctx.p
    _need(ctx.t == 1, "coeff_series", "t=1")
    _need(ctx.n % p == 0, "coeff_series", "p | n")
    _need(
        isinstance(ctx.domain, RationalFunctionField), "coeff_series", "generic c"
    )
    i = params["i"]
    if not 1 <= i <= ctx.n - 1:
        raise ValueError("family index i must lie in 1..n-1")
    dom = ctx.domain
    nv = ctx.nvars
    zero = ReducedPoly.zero(dom, nv)
    one = ReducedPoly.constant(dom, nv, 1)

    def series_mul(a, b):
        # truncated product of polynomial-in-z lists with ReducedPoly coeffs
        out = [zero] * (p + 1)
        for da, ca in enumerate(a):
            if ca.is_zero():
                continue
            for db, cb in enumerate(b):
                if da + db > p or cb.is_zero():
                    continue
                out[da + db] = out[da + db].add(ca.mul(cb))
        return out

    # g(z) = prod_j (1 - x_j z), truncated at z^p
    g = [one] + [zero] * p
    for j in range(1, ctx.n + 1):
        g = series_mul(g, [one, reduced_variable(ctx, j).neg()] + [zero] * (p - 1))
    g_minus_1 = [g[0].sub(one)] + g[1:]
    # F(z) = sum_{m=0}^{p-1} binom(c, m) (g(z) - 1)^m
    F = [zero] * (p + 1)
    power = [one] + [zero] * p
    for m in range(p):
        coef = _falling_binomial_c(dom, m)
        for dz in range(p + 1):
            F[dz] = F[dz].add(power[dz].scalar_mul(coef))
        if m < p - 1:
            power = series_mul(power, g_minus_1)
    # f_i = [z^p] F(z) / (1 - x_i z) = [z^p] F(z) * sum_s x_i^s z^s
    xi = reduced_variable(ctx, i)
    out = zero
    xi_pow = one
    for s in range(p + 1):
        out = out.add(F[p - s].mul(xi_pow))
        xi_pow = xi_pow.mul(xi)
    return out

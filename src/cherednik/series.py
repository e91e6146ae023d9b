"""Hilbert series: computed extraction, closed-form evaluators, comparisons.

All series here are integer coefficient vectors (coefficient of z^d at slot
d, trailing zeros trimmed).  The conjectured product forms are built from
q-brackets [k]_z = 1 + z + ... + z^{k-1} and their factorials; the t=1
formula exists in two variants that genuinely differ for odd p:

  * as_printed        [p]_z^{n-1} [r]_{z^p}! [p]_{z^p}! Q_r(n, z^p)
  * remark_consistent [p]_z^{n-1} h0(z^p)  with h0 the t=0 product

Both are always reported; remark_consistent is the default for verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divide_exact(num, den):
    """Exact division of integer polynomials; returns None if inexact."""
    num = list(num)
    den = list(_trim(den))
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    q = [0] * max(0, len(num) - len(den) + 1)
    while _trim(num):
        tn = _trim(num)
        if len(tn) < len(den):
            return None
        lead, dlead = tn[-1], den[-1]
        if lead % dlead:
            return None
        coef = lead // dlead
        sh = len(tn) - len(den)
        q[sh] = coef
        num = list(tn)
        for i, x in enumerate(den):
            num[sh + i] -= coef * x
    return _trim(q)


@dataclass(frozen=True)
class Series:
    """Coefficient vector of a Hilbert series or conjecture polynomial."""

    coeffs: tuple[int, ...]
    provenance: str = "computed"
    factored: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    def __getitem__(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def total(self) -> int:
        return sum(self.coeffs)

    def substitute_power(self, p: int) -> "Series":
        """z -> z^p."""
        out = [0] * (len(self.coeffs) * p)
        for d, a in enumerate(self.coeffs):
            out[d * p] = a
        return Series(_trim(out), self.provenance)

    def mul(self, other: "Series", provenance=None) -> "Series":
        return Series(
            _poly_mul(self.coeffs, other.coeffs),
            provenance or self.provenance,
        )

    def pow(self, e: int) -> "Series":
        """self^e, e >= 0 (self^0 = 1)."""
        out = Series((1,), self.provenance)
        for _ in range(e):
            out = out.mul(self)
        return out

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "provenance": self.provenance,
            "factored": self.factored,
        }


@dataclass(frozen=True)
class CongruenceData:
    """n = k*p + r with 0 <= r < p."""

    n: int
    p: int
    k: int
    r: int

    @staticmethod
    def of(n: int, p: int) -> "CongruenceData":
        return CongruenceData(n=n, p=p, k=n // p, r=n % p)

    def __post_init__(self):
        if self.n != self.k * self.p + self.r or not 0 <= self.r < self.p:
            raise ValueError("invalid Euclidean decomposition")


def q_bracket(k: int) -> Series:
    """[k]_z = 1 + z + ... + z^{k-1}; [0]_z = 0."""
    if k < 0:
        raise ValueError("q-bracket needs k >= 0")
    return Series((1,) * k, "q_bracket")


def q_factorial(k: int) -> Series:
    """[k]_z! = [k]_z [k-1]_z ... [1]_z (empty product for k = 0)."""
    if k < 0:
        raise ValueError("q-factorial needs k >= 0")
    out = Series((1,), "q_factorial")
    for j in range(1, k + 1):
        out = out.mul(q_bracket(j), "q_factorial")
    return out


def _binom(a: int, k: int) -> int:
    """Falling-factorial binomial: binom(a, -1) = 0, binom(a, 0) = 1."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    num = 1
    for i in range(k):
        num *= a - i
    return num // factorial(k)


def q_r_polynomial(cong: CongruenceData) -> Series:
    """Q_r(n, z) = binom(n-1, r-1) z^(r+1) + sum_i binom(n-r-2+i, i) z^i."""
    n, r = cong.n, cong.r
    coeffs = [0] * (r + 2)
    coeffs[r + 1] = _binom(n - 1, r - 1)
    for i in range(r + 1):
        coeffs[i] += _binom(n - r - 2 + i, i)
    return Series(tuple(coeffs), "q_r")


def conjectured_hilbert(
    cong: CongruenceData, t: int, variant: str = "remark_consistent"
) -> Series:
    """Conjectured product form of the Hilbert series of the simple quotient."""
    p, r, n = cong.p, cong.r, cong.n
    h0 = q_factorial(r).mul(q_bracket(p)).mul(q_r_polynomial(cong))
    if t == 0:
        label = f"[{r}]_z! * [{p}]_z * Q_{r}({n},z)"
        return Series(h0.coeffs, f"conjecture_{variant}", label)
    if t != 1:
        raise ValueError("t must be 0 or 1")
    lead = q_bracket(p).pow(n - 1)
    if variant == "remark_consistent":
        out = lead.mul(h0.substitute_power(p))
        label = f"[{p}]_z^{n-1} * h0(z^{p})"
    elif variant == "as_printed":
        inner = (
            q_factorial(r)
            .substitute_power(p)
            .mul(q_factorial(p).substitute_power(p))
            .mul(q_r_polynomial(cong).substitute_power(p))
        )
        out = lead.mul(inner)
        label = f"[{p}]_z^{n-1} * [{r}]_zp! * [{p}]_zp! * Q_{r}({n},z^p)"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Series(out.coeffs, f"conjecture_{variant}", label)


def closed_form_t0(n: int, p: int) -> Series:
    """[p]_z * (1 + (n-2) z + z^2): the proven t=0 series for n = 1 mod p."""
    return Series(
        q_bracket(p).mul(Series((1, n - 2, 1))).coeffs,
        "theorem",
        f"[{p}]_z * (1+{n-2}z+z^2)",
    )


def closed_form_t1_p2(n: int) -> Series:
    """(1+z)^(n-1) (1 + (n-1)z^2 + (n-1)z^4 + z^6): proven for p=2, odd n."""
    return Series(
        Series((1, 1)).pow(n - 1).mul(Series((1, 0, n - 1, 0, n - 1, 0, 1))).coeffs,
        "theorem",
        f"(1+z)^{n-1} * (1+{n-1}z^2+{n-1}z^4+z^6)",
    )


def baby_verma_series(n: int, p: int, t: int) -> Series:
    """Hilbert series of the baby Verma quotient, from the printed products.

    t=1: (1-z^{2p})(1-z^{3p})...(1-z^{np}) / (1-z)^{n-1}
    t=0: (1-z^2)(1-z^3)...(1-z^n) / (1-z)^{n-1}
    """
    step = p if t == 1 else 1
    num = (1,)
    for j in range(2, n + 1):
        factor = [0] * (j * step + 1)
        factor[0] = 1
        factor[j * step] = -1
        num = _poly_mul(num, tuple(factor))
    q = _poly_divide_exact(num, Series((1, -1)).pow(n - 1).coeffs)
    if q is None:
        raise ArithmeticError("baby Verma quotient failed to divide exactly")
    if any(a < 0 for a in q):
        raise ArithmeticError("baby Verma series has a negative coefficient")
    return Series(q, "baby_verma")


def computed_hilbert(kernel) -> Series:
    """dim L[d] per degree from a completed graded kernel."""
    dims = {d: v[2] for d, v in kernel.dims().items()}
    if not kernel.completed:
        raise IncompleteSeriesError(
            "kernel run is not complete; partial dims attached", dims
        )
    top = max(dims)
    coeffs = tuple(dims.get(d, 0) for d in range(top + 1))
    if any(a < 0 for a in coeffs):
        raise AssertionError("negative graded dimension")
    return Series(coeffs, "computed")


class IncompleteSeriesError(RuntimeError):
    def __init__(self, message, partial_dims):
        super().__init__(message)
        self.partial_dims = partial_dims


@dataclass
class ShapeReport:
    ok: bool
    inner: Series | None
    message: str


def shape_check_t1(h: Series, n: int, p: int) -> ShapeReport:
    """Verify h = ((1-z^p)/(1-z))^{n-1} * g(z^p) with g >= 0; return g.

    Failure here would falsify either the implementation or the genericity
    of the chosen c.
    """
    q = _poly_divide_exact(h.coeffs, q_bracket(p).pow(n - 1).coeffs)
    if q is None:
        return ShapeReport(False, None, "series is not divisible by [p]_z^(n-1)")
    for d, a in enumerate(q):
        if d % p and a != 0:
            return ShapeReport(
                False, None, f"quotient has support off multiples of p at z^{d}"
            )
        if a < 0:
            return ShapeReport(False, None, f"negative quotient coefficient at z^{d}")
    inner = tuple(q[d] for d in range(0, len(q), p))
    return ShapeReport(True, Series(inner, "shape_inner"), "ok")


@dataclass
class Verdict:
    equal: bool
    first_mismatch: int | None = None
    computed_value: int | None = None
    predicted_value: int | None = None

    def to_json(self):
        return {
            "equal": self.equal,
            "first_mismatch": self.first_mismatch,
            "computed_value": self.computed_value,
            "predicted_value": self.predicted_value,
        }


def compare(computed: Series, predicted: Series) -> Verdict:
    """Coefficientwise comparison; reports the first mismatching degree."""
    top = max(computed.degree(), predicted.degree())
    for d in range(top + 1):
        if computed[d] != predicted[d]:
            return Verdict(False, d, computed[d], predicted[d])
    return Verdict(True)

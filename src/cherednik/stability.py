"""Decision procedure: membership in ker B for every admissible n at once.

For p = 2, t = 1, generic c and odd n, a fixed polynomial f in k variables
of degree G with maximal single-variable exponent S lies in ker B for ALL
such n as soon as it does for every odd n up to S + k + G - 2.  The sweep
below runs the exact per-n membership test over that finite range and
aggregates the evidence.

The bound used is the one from the criterion's statement (S + k + G - 2);
the proof text instead works with k + G + S - 3.  Both are recorded in the
verdict, and the larger statement bound drives the sweep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fields import CoeffDomain, RationalFunctionField
from .poly import Monomial, ReducedPoly, format_poly, parse_poly
from .dunkl import DunklContext
from .kernel import Membership, is_in_kernel


@dataclass(frozen=True)
class StabilityInstance:
    """An n-independent polynomial template in canonical variables x_1..x_k.

    terms map exponent tuples (length k) to integer c-coefficient tuples;
    ({(6,): (1,)}) is x_1^6, ({(3,): (0, 1)}) is c * x_1^3.  The
    coefficients are residues mod p, the characteristic they were read in.
    """

    terms: tuple[tuple[Monomial, tuple[int, ...]], ...]
    k: int
    G: int
    S: int
    p: int = 2

    @property
    def bound(self) -> int:
        return self.S + self.k + self.G - 2

    @property
    def proof_text_bound(self) -> int:
        return self.k + self.G + self.S - 3

    @staticmethod
    def from_poly(f: ReducedPoly) -> "StabilityInstance":
        """Canonically rename the variables actually used to x_1..x_k."""
        dom = f.domain
        if f.is_zero():
            return StabilityInstance(terms=(), k=0, G=0, S=0, p=dom.p)
        if not f.is_homogeneous():
            raise ValueError("stability templates must be homogeneous")
        used = sorted(
            i for i in range(f.nvars) if any(m[i] for m in f.terms)
        )
        pos = {old: new for new, old in enumerate(used)}
        k = len(used)
        terms = []
        for m, v in f.terms.items():
            mm = [0] * k
            for old, e in enumerate(m):
                if e:
                    mm[pos[old]] = e
            if isinstance(dom, RationalFunctionField):
                coeffs = dom.c_coefficients(v)
            else:
                coeffs = (v % dom.p,)
            terms.append((tuple(mm), tuple(int(a) for a in coeffs)))
        terms.sort()
        G = f.degree()
        S = max((e for m, _ in terms for e in m), default=0)  # 0 for a constant
        return StabilityInstance(terms=tuple(terms), k=k, G=G, S=S, p=dom.p)

    @staticmethod
    def from_text(text: str, p: int = 2) -> "StabilityInstance":
        ids = [int(t) for t in re.findall(r"x(\d+)", text)]
        nvars = max(ids) if ids else 1
        dom = CoeffDomain.generic(p)
        return StabilityInstance.from_poly(parse_poly(text, nvars, dom))

    def instantiate(self, ctx: DunklContext) -> ReducedPoly:
        if self.k > ctx.nvars:
            raise ValueError(f"template needs at least {self.k + 1} variables")
        dom = ctx.domain
        if not isinstance(dom, RationalFunctionField):
            raise ValueError("stability sweeps run over generic c")
        terms = {}
        pad = ctx.nvars - self.k
        for m, coeffs in self.terms:
            v = dom.from_c_poly(coeffs)
            if not dom.is_zero(v):
                terms[m + (0,) * pad] = v
        return ReducedPoly(dom, ctx.nvars, terms)

    def text(self) -> str:
        dom = CoeffDomain.generic(self.p)
        terms = {m: dom.from_c_poly(c) for m, c in self.terms}
        return format_poly(ReducedPoly(dom, self.k, terms)) if terms else "0"


@dataclass
class PerNEvidence:
    n: int
    in_kernel: bool
    witness: tuple[int, ...] | None = None

    def to_json(self):
        out = {"n": self.n, "in_kernel": self.in_kernel}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass
class StabilityVerdict:
    stable: bool
    bound: int
    proof_text_bound: int
    polynomial: str
    per_n: list[PerNEvidence]
    certifying: bool = True

    def to_json(self):
        return {
            "polynomial": self.polynomial,
            "bound": self.bound,
            "proof_text_bound": self.proof_text_bound,
            "per_n": [e.to_json() for e in self.per_n],
            "stable": self.stable,
            "certifying": self.certifying,
        }


def _sweep_values(inst: StabilityInstance, extra_above_bound: int) -> list[int]:
    """Odd n from the smallest admissible one up to the bound, then the extras.

    The smallest admissible n is always swept, also when the bound lies
    below it: an empty sweep would certify anything.
    """
    start = max(3, inst.k + 1)
    if start % 2 == 0:
        start += 1
    ns = list(range(start, max(start, inst.bound) + 1, 2))
    return ns + [ns[-1] + 2 * j for j in range(1, extra_above_bound + 1)]


def is_stably_in_kernel(
    f,
    t: int = 1,
    experimental: bool = False,
    extra_above_bound: int = 0,
) -> StabilityVerdict:
    """Run the finite odd-n sweep deciding membership for all admissible n.

    The sweep runs in the template's characteristic inst.p.  Only p = 2,
    t = 1 with generic c is a certified regime; any other combination needs
    experimental=True and yields a non-certifying sweep over the same range.
    extra_above_bound adds odd n beyond the bound as an empirical check of
    the criterion itself; a negative count is a ValueError.
    """
    if extra_above_bound < 0:
        raise ValueError(f"extra_above_bound must be at least 0, not {extra_above_bound}")
    inst = f if isinstance(f, StabilityInstance) else StabilityInstance.from_poly(f)
    certifying = inst.p == 2 and t == 1
    if not certifying and not experimental:
        raise ValueError(
            "the stability criterion is proved only for p=2, t=1, generic c; "
            "pass experimental=True (--experimental on the command line) "
            "to run a non-certifying sweep"
        )
    # the zero template lies in ker B for every n, so it needs no sweep
    ns = _sweep_values(inst, extra_above_bound) if inst.terms else []
    per_n: list[PerNEvidence] = []
    for n in ns:
        ctx = DunklContext(n=n, t=t, domain=CoeffDomain.generic(inst.p))
        result: Membership = is_in_kernel(inst.instantiate(ctx), ctx)
        per_n.append(PerNEvidence(n, result.member, result.witness))
        if not result.member:
            break
    stable = all(e.in_kernel for e in per_n)
    return StabilityVerdict(
        stable, inst.bound, inst.proof_text_bound, inst.text(), per_n, certifying
    )


# ---------------------------------------------------------------------------
# The mixed-coefficient degree-8 kernel generator and its x1-multiple
# ---------------------------------------------------------------------------


MIXED_GENERATOR = "x1^3*x2^3*x3^2+(c)*x2^3*x3^5+(c)*x1*x2^2*x3^5"
MIXED_X1_MULTIPLE = "x1^4*x2^3*x3^2+(c)*x1*x2^3*x3^5"
SQUARES_FIFTH = "x1^2*x2^2*x3^5"


@dataclass
class MixedGeneratorReport:
    generator: StabilityVerdict
    x1_multiple: StabilityVerdict
    auxiliary: StabilityVerdict
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.generator.stable
            and self.x1_multiple.stable
            and self.auxiliary.stable
            and self.identity_ok
        )


def certify_mixed_kernel_generator() -> MixedGeneratorReport:
    """Certify the displayed mixed generator and its x1-multiple relation.

    x1 * g  =  (x1-multiple)  +  c * x1^2 x2^2 x3^5,  and all three of
    g, the multiple, and x1^2 x2^2 x3^5 lie stably in ker B.
    """
    dom = CoeffDomain.generic(2)
    g = parse_poly(MIXED_GENERATOR, 3, dom)
    mult = parse_poly(MIXED_X1_MULTIPLE, 3, dom)
    aux = parse_poly(SQUARES_FIFTH, 3, dom)
    x1 = ReducedPoly.variable(dom, 3, 1)
    identity_ok = x1.mul(g) == mult.add(aux.scalar_mul(dom.c_scalar()))
    return MixedGeneratorReport(
        generator=is_stably_in_kernel(g),
        x1_multiple=is_stably_in_kernel(mult),
        auxiliary=is_stably_in_kernel(aux),
        identity_ok=identity_ok,
    )

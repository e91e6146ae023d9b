"""Sparse homogeneous polynomials in the reduced variables x_1..x_{n-1}.

The carrier ring everywhere is the coinvariant-style quotient of the
polynomial ring in x_1..x_n by (x_1 + ... + x_n): every element has a unique
representative with x_n eliminated via x_n = -(x_1 + ... + x_{n-1}).  A
ReducedPoly stores that representative as a dict mapping exponent tuples of
length n-1 to nonzero domain scalars.

Canonical term order is graded lexicographic, descending, with
x_1 > x_2 > ... ; formatting and matrix column orders both use it.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

from .fields import CoeffDomain, DomainMismatchError, RationalFunctionField, Scalar

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Malformed polynomial text."""


def grlex_key(m: Monomial):
    """Sort key putting monomials in graded-lex DESCENDING order when reversed."""
    return (sum(m), m)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree d, graded-lex descending."""
    if nvars == 0:
        return ((),) if d == 0 else tuple()
    if nvars == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, d: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, d))}


class ReducedPoly:
    """Immutable-by-convention sparse polynomial over a coefficient domain."""

    __slots__ = ("domain", "nvars", "terms")

    def __init__(self, domain: CoeffDomain, nvars: int, terms: dict[Monomial, object]):
        self.domain = domain
        self.nvars = nvars
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(domain: CoeffDomain, nvars: int) -> "ReducedPoly":
        return ReducedPoly(domain, nvars, {})

    @staticmethod
    def constant(domain: CoeffDomain, nvars: int, k: int) -> "ReducedPoly":
        v = domain.from_int(k)
        if domain.is_zero(v):
            return ReducedPoly.zero(domain, nvars)
        return ReducedPoly(domain, nvars, {(0,) * nvars: v})

    @staticmethod
    def variable(domain: CoeffDomain, nvars: int, i: int) -> "ReducedPoly":
        """The reduced variable x_i, 1-based, i <= nvars."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = 1
        return ReducedPoly(domain, nvars, {tuple(e): domain.one})

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common total degree; None for 0, error if not homogeneous."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def coefficient(self, m: Monomial):
        return self.terms.get(m, self.domain.from_int(0))

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.domain.from_int(0))

    def _check_compat(self, other: "ReducedPoly"):
        if self.domain != other.domain:
            raise DomainMismatchError("polynomials over different domains")
        if self.nvars != other.nvars:
            raise ValueError(
                f"slot-count mismatch: {self.nvars} vs {other.nvars}"
            )

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "ReducedPoly") -> "ReducedPoly":
        self._check_compat(other)
        dom = self.domain
        out = dict(self.terms)
        for m, v in other.terms.items():
            s = dom.add(out.get(m, dom.zero), v) if m in out else v
            if m in out and dom.is_zero(s):
                del out[m]
            else:
                out[m] = s
        return ReducedPoly(dom, self.nvars, out)

    def neg(self) -> "ReducedPoly":
        dom = self.domain
        return ReducedPoly(dom, self.nvars, {m: dom.neg(v) for m, v in self.terms.items()})

    def sub(self, other: "ReducedPoly") -> "ReducedPoly":
        return self.add(other.neg())

    def mul(self, other: "ReducedPoly") -> "ReducedPoly":
        self._check_compat(other)
        dom = self.domain
        out: dict[Monomial, object] = {}
        for ma, va in self.terms.items():
            for mb, vb in other.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                prod = dom.mul(va, vb)
                if m in out:
                    s = dom.add(out[m], prod)
                    if dom.is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                elif not dom.is_zero(prod):
                    out[m] = prod
        return ReducedPoly(dom, self.nvars, out)

    def scalar_mul(self, s) -> "ReducedPoly":
        dom = self.domain
        if dom.is_zero(s):
            return ReducedPoly.zero(dom, self.nvars)
        return ReducedPoly(
            dom, self.nvars, {m: dom.mul(v, s) for m, v in self.terms.items()}
        )

    def monomial_mul(self, m: Monomial) -> "ReducedPoly":
        return ReducedPoly(
            self.domain,
            self.nvars,
            {tuple(a + b for a, b in zip(e, m)): v for e, v in self.terms.items()},
        )

    def pow(self, e: int) -> "ReducedPoly":
        result = ReducedPoly.constant(self.domain, self.nvars, 1)
        for _ in range(e):
            result = result.mul(self)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, ReducedPoly)
            and self.domain == other.domain
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"ReducedPoly({format_poly(self)!r})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)


def poly_arith(f: ReducedPoly, g, op: str) -> ReducedPoly:
    """Spec surface: op in {add, mul, scalar_mul}; scalar_mul takes a Scalar."""
    if op == "add":
        return f.add(g)
    if op == "mul":
        return f.mul(g)
    if op == "scalar_mul":
        if isinstance(g, Scalar):
            if g.domain != f.domain:
                raise DomainMismatchError("scalar domain differs from polynomial")
            return f.scalar_mul(g.value)
        return f.scalar_mul(g)
    raise ValueError(f"unknown op {op!r}")


def c_components(f: ReducedPoly) -> list[ReducedPoly]:
    """Split f = sum_k c^k f^(k) into its c-graded parts over F_p.

    Requires a generic-c domain and all coefficients polynomial in c
    (denominator 1); components are returned over PrimeField(p).
    """
    dom = f.domain
    if not isinstance(dom, RationalFunctionField):
        raise ValueError("c_components requires a generic-c polynomial")
    comp_dom = CoeffDomain.prime(dom.p)
    comps: list[dict[Monomial, int]] = []
    for m, v in f.terms.items():
        if not dom.is_polynomial(v):
            raise ValueError(
                "coefficient has a nontrivial denominator; clear denominators first"
            )
        for k, a in enumerate(dom.c_coefficients(v)):
            a %= dom.p
            if a == 0:
                continue
            while len(comps) <= k:
                comps.append({})
            comps[k][m] = a
    while comps and not comps[-1]:
        comps.pop()
    if not comps:
        return [ReducedPoly.zero(comp_dom, f.nvars)]
    return [ReducedPoly(comp_dom, f.nvars, t) for t in comps]


# ---------------------------------------------------------------------------
# Text format: terms joined by +/-, coefficient "(...)" in c or an integer,
# monomials like x1^2*x2.  Canonical output is graded-lex descending.
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


def _fmt_term(domain, m: Monomial, v) -> str:
    vars_part = "*".join(
        f"x{i+1}^{e}" if e > 1 else f"x{i+1}" for i, e in enumerate(m) if e > 0
    )
    coeff = domain.fmt(v)
    plain_one = coeff == "1"
    if not vars_part:
        return f"({coeff})" if _needs_parens(coeff) else coeff
    if plain_one:
        return vars_part
    if _needs_parens(coeff):
        return f"({coeff})*{vars_part}"
    return f"{coeff}*{vars_part}"


def _needs_parens(coeff: str) -> bool:
    return any(ch in coeff for ch in "c+/-w")


def format_poly(f: ReducedPoly) -> str:
    if f.is_zero():
        return "0"
    return "+".join(_fmt_term(f.domain, m, v) for m, v in f.sorted_terms())


class _CoeffParser:
    """Recursive-descent parser for coefficient expressions in c."""

    def __init__(self, text: str, domain: CoeffDomain):
        self.toks = re.findall(r"\d+|[cw]|\^|[()+\-*/]", text.replace(" ", ""))
        if "".join(self.toks) != text.replace(" ", ""):
            raise ParseError(f"malformed coefficient {text!r}")
        self.pos = 0
        self.domain = domain

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ParseError("trailing tokens in coefficient")
        return v

    def expr(self):
        dom = self.domain
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        v = self.term()
        if sign < 0:
            v = dom.neg(v)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            v = dom.add(v, rhs) if op == "+" else dom.sub(v, rhs)
        return v

    def term(self):
        dom = self.domain
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                v = dom.mul(v, rhs)
            else:
                if dom.is_zero(rhs):
                    raise ZeroDivisionError("division by zero in coefficient")
                v = dom.div(v, rhs)
        return v

    def factor(self):
        dom = self.domain
        t = self.take()
        if t == "(":
            v = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses in coefficient")
        elif t in ("c", "w"):
            v = dom.c_scalar()
        elif t is not None and t.isdigit():
            v = dom.from_int(int(t))
        elif t == "-":
            v = dom.neg(self.factor())
        else:
            raise ParseError(f"unexpected token {t!r} in coefficient")
        while self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            base, v = v, dom.one
            for _ in range(int(e)):
                v = dom.mul(v, base)
        return v


def parse_poly(text: str, nvars: int, domain: CoeffDomain) -> ReducedPoly:
    """Parse polynomial text into a ReducedPoly with nvars = n-1 slots."""
    s = text.replace(" ", "").replace("−", "-")
    if not s:
        raise ParseError("empty polynomial text")
    out = ReducedPoly.zero(domain, nvars)
    # split into signed terms at top level (outside parentheses)
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0 and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and depth == 0 and not cur:
            if ch == "-":
                sign = -sign
        else:
            cur += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    if cur:
        terms.append((sign, cur))
    if not terms:
        raise ParseError("no terms found")
    for sgn, term in terms:
        out = out.add(_parse_term(term, sgn, nvars, domain))
    return out


def _parse_term(term: str, sign: int, nvars: int, domain: CoeffDomain) -> ReducedPoly:
    coeff = domain.one
    factors = _split_factors(term)
    exps = [0] * nvars
    saw_var = False
    for fac in factors:
        if fac.startswith("x"):
            m = _VAR_RE.match(fac)
            if not m:
                raise ParseError(f"malformed variable {fac!r}")
            idx = int(m.group(1))
            if idx < 1 or idx > nvars:
                raise ParseError(
                    f"variable index {idx} out of range 1..{nvars}"
                )
            exps[idx - 1] += int(m.group(2) or 1)
            saw_var = True
        else:
            inner = fac[1:-1] if fac.startswith("(") and fac.endswith(")") else fac
            coeff = domain.mul(coeff, _CoeffParser(inner, domain).parse())
    if sign < 0:
        coeff = domain.neg(coeff)
    if domain.is_zero(coeff):
        return ReducedPoly.zero(domain, nvars)
    if not saw_var and not factors:
        raise ParseError("empty term")
    return ReducedPoly(domain, nvars, {tuple(exps): coeff})


def _split_factors(term: str) -> list[str]:
    factors = []
    depth = 0
    cur = ""
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            if cur:
                factors.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        factors.append(cur)
    if not factors:
        raise ParseError(f"empty term in {term!r}")
    return factors


def random_homogeneous(
    domain: CoeffDomain,
    nvars: int,
    degree: int,
    rng: random.Random,
    max_terms: int = 4,
    c_degree: int = 1,
) -> ReducedPoly:
    """Random homogeneous polynomial for property tests (may be zero)."""
    monos = monomials_of_degree(nvars, degree)
    terms: dict[Monomial, object] = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        if isinstance(domain, RationalFunctionField):
            coeffs = [rng.randrange(domain.p) for _ in range(c_degree + 1)]
            v = domain.from_c_poly(coeffs)
        else:
            v = domain.from_int(rng.randrange(domain.p))
        if m in terms:
            v = domain.add(terms[m], v)
        if domain.is_zero(v):
            terms.pop(m, None)
        else:
            terms[m] = v
    return ReducedPoly(domain, nvars, terms)

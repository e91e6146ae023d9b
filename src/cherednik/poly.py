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

from .fields import CoeffDomain, DomainMismatchError, RationalFunctionField

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Malformed polynomial text."""


def grlex_key(m: Monomial):
    """Sort key putting monomials in graded-lex DESCENDING order when reversed."""
    return (sum(m), m)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree d, graded-lex descending; none for d < 0."""
    if d < 0:
        return ()
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
        """self^e by repeated squaring, so a parsed x1^e costs O(log e)."""
        result, base = ReducedPoly.constant(self.domain, self.nvars, 1), self
        while e:
            if e & 1:
                result = result.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
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


# ---------------------------------------------------------------------------
# Text format: format_poly joins terms by '+' in graded-lex descending order,
# each a coefficient prefix (none for 1; in parentheses once it has c, a sign
# or a fraction) before a monomial name like x1^2*x2, and a constant term is
# its bare coefficient.  format_row is the one place that rule is written;
# parse_poly reads any expression of its grammar.
# ---------------------------------------------------------------------------

def monomial_name(m: Monomial) -> str:
    """x1^2*x3 for (2, 0, 1); the empty string for the constant monomial."""
    return "*".join([f"x{i+1}^{e}" if e > 1 else f"x{i+1}" for i, e in enumerate(m) if e])


def coeff_prefix(domain, v) -> str:
    """What a term writes before its monomial name: '' for 1, else the coefficient and '*'."""
    coeff = domain.fmt(v)
    if coeff == "1":
        return ""
    return f"({coeff})*" if any(ch in coeff for ch in "c+/-w") else f"{coeff}*"


def format_poly(f: ReducedPoly) -> str:
    """The terms of f through format_row, graded-lex descending; '0' for zero."""
    terms = f.sorted_terms()
    return format_row(f.domain, {i: v for i, (_, v) in enumerate(terms)}, [monomial_name(m) for m, _ in terms], {})


def format_row(domain, row: dict[int, object], names: list[str], prefixes: dict) -> str:
    """The text of the polynomial whose term in column c is row[c] * monomial names[c].

    Ascending columns are the term order, so a row over monomials_of_degree,
    graded-lex descending, is written as it stands.  prefixes memoizes
    coeff_prefix by value; share one dict across the rows of one domain.
    """
    for v in row.values():
        if v not in prefixes:
            prefixes[v] = coeff_prefix(domain, v)
    # a constant term is its prefix without the '*', or 1
    terms = [prefixes[v] + names[c] if names[c] else (prefixes[v][:-1] or "1") for c, v in sorted(row.items())]
    return "+".join(terms) or "0"


_TOKEN_RE = re.compile(r"x\d+|\d+|[cw()+\-*/^]")


def parse_poly(text: str, nvars: int, domain: CoeffDomain) -> ReducedPoly:
    """Parse polynomial text into a ReducedPoly with nvars = n-1 slots.

    Spaces are ignored and U+2212 reads as '-'.  The grammar is

        expr   = term (('+' | '-') term)*
        term   = factor (('*' | '/') factor)*
        factor = ('+' | '-') factor | atom ('^' digits)*
        atom   = integer | 'c' | 'w' | 'x1' .. 'x<nvars>' | '(' expr ')'

    so a sign binds looser than '^' (-x1^2 is -(x1^2)) and tighter than
    '*' (x1*-1 is -x1), and a^b^e is (a^b)^e.  'c' and 'w' both name the
    deformation parameter.  A divisor must be a nonzero constant.
    """
    s = text.replace(" ", "").replace("−", "-")
    toks = _TOKEN_RE.findall(s)
    if "".join(toks) != s:
        raise ParseError(f"unexpected character in {text!r}")
    parser = _Parser(toks, nvars, domain)
    f = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"unexpected {parser.peek()!r} in {text!r}")
    return f


class _Parser:
    """Recursive descent over the tokens of one text, evaluating as it goes."""

    def __init__(self, toks: list[str], nvars: int, domain: CoeffDomain):
        self.toks, self.pos, self.nvars, self.domain = toks, 0, nvars, domain

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str | None:
        t = self.peek()
        self.pos += 1
        return t

    def expr(self) -> ReducedPoly:
        f = self.term()
        while self.peek() in ("+", "-"):
            f = f.add(self.term()) if self.take() == "+" else f.sub(self.term())
        return f

    def term(self) -> ReducedPoly:
        f = self.factor()
        while self.peek() in ("*", "/"):
            f = f.mul(self.factor()) if self.take() == "*" else self.divide(f, self.factor())
        return f

    def divide(self, f: ReducedPoly, g: ReducedPoly) -> ReducedPoly:
        const = (0,) * self.nvars
        if g.terms.keys() != {const}:
            raise ParseError("division by zero" if g.is_zero() else "a divisor must be a constant")
        return f.scalar_mul(self.domain.inv(g.terms[const]))

    def factor(self) -> ReducedPoly:
        if self.peek() in ("+", "-"):
            return self.factor() if self.take() == "+" else self.factor().neg()
        f = self.atom()
        while self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            f = f.pow(int(e))
        return f

    def atom(self) -> ReducedPoly:
        t, nvars, dom = self.take(), self.nvars, self.domain
        if t is None:
            raise ParseError("unexpected end of text")
        if t == "(":
            f = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return f
        if t in ("c", "w"):
            return ReducedPoly.constant(dom, nvars, 1).scalar_mul(dom.c_scalar())
        if t.isdigit():
            return ReducedPoly.constant(dom, nvars, int(t))
        if t[0] == "x":
            i = int(t[1:])
            if not 1 <= i <= nvars:
                raise ParseError(f"variable index {i} out of range 1..{nvars}")
            return ReducedPoly.variable(dom, nvars, i)
        raise ParseError(f"unexpected {t!r}")


def random_homogeneous(
    domain: CoeffDomain,
    nvars: int,
    degree: int,
    rng: random.Random,
    max_terms: int = 4,
) -> ReducedPoly:
    """Random homogeneous polynomial for property tests (may be zero); over
    generic c its coefficients have degree at most 1 in c."""
    monos = monomials_of_degree(nvars, degree)
    terms: dict[Monomial, object] = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        if isinstance(domain, RationalFunctionField):
            v = domain.from_c_poly([rng.randrange(domain.p) for _ in range(2)])
        else:
            v = domain.from_int(rng.randrange(domain.p))
        if m in terms:
            v = domain.add(terms[m], v)
        if domain.is_zero(v):
            terms.pop(m, None)
        else:
            terms[m] = v
    return ReducedPoly(domain, nvars, terms)

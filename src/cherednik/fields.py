"""Exact coefficient arithmetic: F_p and the rational function field F_p(c).

The coefficient domains all expose the same field interface over opaque
scalar values:

  * ``PrimeField(p, c)``      -- scalars are ints in [0, p); the deformation
                                 parameter c is a fixed residue mod p.
  * ``RationalFunctionField(p)`` -- "generic c": scalars are reduced fractions
                                 num/den of univariate polynomials in c over
                                 F_p, denominator monic, gcd(num, den) = 1.
  * ``TableField``            -- F_{p^k} = F_p[c]/(m), p^k <= 2^16, by log/exp
                                 tables: the points where F_p[c] matrices
                                 are eliminated.

Univariate polynomials over F_2 are packed into Python ints (bit i is the
coefficient of c^i), so that addition is XOR and multiplication is a
carryless shift-and-xor.  Over odd p they are tuples of ints with no
trailing zeros, () being the zero polynomial.

``RingAdapter.of(domain)`` is the raw-coefficient view of F_p or F_p(c)
shared by the Dunkl core, compose and elimination.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Any


class DomainMismatchError(ValueError):
    """Operands belong to different coefficient domains."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Univariate polynomial rings over F_p (internal coefficient carriers)
# ---------------------------------------------------------------------------


class GF2X:
    """Polynomials over F_2 packed into ints: bit i <-> coefficient of c^i."""

    p = 2
    zero = 0
    one = 1

    @staticmethod
    def from_coeffs(coeffs) -> int:
        v = 0
        for i, a in enumerate(coeffs):
            if a % 2:
                v |= 1 << i
        return v

    @staticmethod
    def coeffs(v: int) -> tuple[int, ...]:
        if v == 0:
            return ()
        return tuple((v >> i) & 1 for i in range(v.bit_length()))

    @staticmethod
    def deg(v: int) -> int:
        return v.bit_length() - 1  # deg(0) == -1

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    sub = add

    @staticmethod
    def neg(a: int) -> int:
        return a

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a.bit_length() > b.bit_length():
            a, b = b, a
        r = 0
        while a:
            low = a & -a
            r ^= b * low  # single-bit multiple: plain shift, no carries
            a ^= low
        return r

    @staticmethod
    def divmod(a: int, b: int) -> tuple[int, int]:
        if b == 0:
            raise ZeroDivisionError("polynomial division by zero")
        db = b.bit_length()
        q = 0
        while a.bit_length() >= db:
            sh = a.bit_length() - db
            q |= 1 << sh
            a ^= b << sh
        return q, a

    @classmethod
    def gcd(cls, a: int, b: int) -> int:
        while b:
            a, b = b, cls.divmod(a, b)[1]
        return a

    @staticmethod
    def monic(v: int) -> int:
        return v  # every nonzero F_2[c] polynomial is already monic


class GFPX:
    """Polynomials over F_p (odd p) as trailing-zero-free tuples."""

    def __init__(self, p: int):
        self.p = p
        self.zero: tuple[int, ...] = ()
        self.one: tuple[int, ...] = (1,)

    def from_coeffs(self, coeffs) -> tuple[int, ...]:
        c = [a % self.p for a in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    @staticmethod
    def coeffs(v) -> tuple[int, ...]:
        return v

    @staticmethod
    def deg(v) -> int:
        return len(v) - 1

    def add(self, a, b):
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, x in enumerate(b):
            c[i] = (c[i] + x) % p
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def neg(self, a):
        p = self.p
        return tuple((p - x) % p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        p = self.p
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    c[i + j] = (c[i + j] + x * y) % p
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        inv_lead = pow(b[-1], p - 2, p)
        r = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        while len(r) >= len(b):
            coef = (r[-1] * inv_lead) % p
            sh = len(r) - len(b)
            q[sh] = coef
            for i, x in enumerate(b):
                r[sh + i] = (r[sh + i] - coef * x) % p
            while r and r[-1] == 0:
                r.pop()
        while q and q[-1] == 0:
            q.pop()
        return tuple(q), tuple(r)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def monic(self, v):
        if not v or v[-1] == 1:
            return v
        inv = pow(v[-1], self.p - 2, self.p)
        return tuple((x * inv) % self.p for x in v)


def poly_ring(p: int):
    return GF2X if p == 2 else GFPX(p)


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------


class CoeffDomain:
    """Base class; concrete domains implement exact field ops on raw values."""

    p: int
    c_mode: str

    # -- constructors -------------------------------------------------------

    @staticmethod
    def prime(p: int, c: int = 1) -> "PrimeField":
        return PrimeField(p, c)

    @staticmethod
    def generic(p: int) -> "RationalFunctionField":
        return RationalFunctionField(p)

    # -- interface ----------------------------------------------------------

    def from_int(self, k: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def prepare(self, prow: dict) -> dict:
        """A pivot row in the form ``subtract_multiple`` reads, until the row changes."""
        return prow

    def subtract_multiple(self, row: dict, fac, prow: dict) -> None:
        """row -= fac * prow in place, prow as ``prepare`` gave it; entries
        that become zero are dropped."""
        neg, add, mul, is_zero = self.neg(fac), self.add, self.mul, self.is_zero
        for k, v in prow.items():
            cur = row.get(k)
            nv = mul(neg, v) if cur is None else add(cur, mul(neg, v))
            if is_zero(nv):
                row.pop(k, None)
            else:
                row[k] = nv

    def c_scalar(self):
        """The deformation parameter c as a scalar of this domain."""
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.p == other.p
            and getattr(self, "_key", None) == getattr(other, "_key", None)
        )

    def __hash__(self):
        return hash((type(self).__name__, self.p, getattr(self, "_key", None)))


class PrimeField(CoeffDomain):
    """F_p with c fixed to a residue; scalars are plain ints in [0, p)."""

    c_mode = "value"

    def __init__(self, p: int, c: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.c_value = c % p
        self._key = self.c_value

    def __repr__(self):
        return f"PrimeField(p={self.p}, c={self.c_value})"

    def from_int(self, k: int) -> int:
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def subtract_multiple(self, row: dict, fac, prow: dict) -> None:
        """row -= fac * prow in place, each entry inline."""
        p, get = self.p, row.get
        for k, v in prow.items():
            if nv := (get(k, 0) - fac * v) % p:
                row[k] = nv
            else:
                row.pop(k, None)

    def c_scalar(self):
        return self.c_value

    def fmt(self, a) -> str:
        return str(a % self.p)


class RationalFunctionField(CoeffDomain):
    """F_p(c): reduced fractions of univariate polynomials in c over F_p.

    Scalar values are pairs (num, den) of ring elements with den monic and
    gcd(num, den) = 1; zero is canonically (0, 1).
    """

    c_mode = "generic"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.ring = poly_ring(p)
        self._key = None

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p})"

    def make(self, num, den):
        """Normalize an arbitrary num/den pair to canonical reduced form."""
        R = self.ring
        if den == R.zero:
            raise ZeroDivisionError("zero denominator in F_p(c)")
        if num == R.zero:
            return (R.zero, R.one)
        g = R.gcd(num, den)
        if R.deg(g) > 0 or g != R.monic(g):
            num = R.divmod(num, g)[0]
            den = R.divmod(den, g)[0]
        if self.p != 2:
            lead = den[-1]
            if lead != 1:
                inv = pow(lead, self.p - 2, self.p)
                num = R.mul(num, (inv,))
                den = R.mul(den, (inv,))
        return (num, den)

    def from_int(self, k: int):
        R = self.ring
        v = R.from_coeffs((k,))
        return (v, R.one)

    def from_c_poly(self, coeffs):
        """Polynomial in c given by an integer coefficient sequence."""
        return (self.ring.from_coeffs(coeffs), self.ring.one)

    def add(self, a, b):
        R = self.ring
        na, da = a
        nb, db = b
        if da == R.one and db == R.one:
            return (R.add(na, nb), R.one)
        return self.make(R.add(R.mul(na, db), R.mul(nb, da)), R.mul(da, db))

    def neg(self, a):
        return (self.ring.neg(a[0]), a[1])

    def mul(self, a, b):
        R = self.ring
        na, da = a
        nb, db = b
        if na == R.zero or nb == R.zero:
            return (R.zero, R.one)
        if da == R.one and db == R.one:
            return (R.mul(na, nb), R.one)
        return self.make(R.mul(na, nb), R.mul(da, db))

    def inv(self, a):
        if a[0] == self.ring.zero:
            raise ZeroDivisionError("inverse of zero in F_p(c)")
        return self.make(a[1], a[0])

    def is_zero(self, a) -> bool:
        return a[0] == self.ring.zero

    def c_scalar(self):
        return (self.ring.from_coeffs((0, 1)), self.ring.one)

    def is_polynomial(self, a) -> bool:
        return a[1] == self.ring.one

    def c_coefficients(self, a) -> tuple[int, ...]:
        """Integer coefficient sequence of a polynomial scalar (den == 1)."""
        if not self.is_polynomial(a):
            raise ValueError("scalar has a nontrivial denominator")
        return self.ring.coeffs(a[0])

    def fmt(self, a) -> str:
        num, den = a
        s = _fmt_cpoly(self.ring.coeffs(num))
        if den == self.ring.one:
            return s
        return f"({s})/({_fmt_cpoly(self.ring.coeffs(den))})"


def _fmt_cpoly(coeffs: tuple[int, ...]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        a = coeffs[e]
        if a == 0:
            continue
        if e == 0:
            parts.append(str(a))
        elif e == 1:
            parts.append("c" if a == 1 else f"{a}*c")
        else:
            parts.append(f"c^{e}" if a == 1 else f"{a}*c^{e}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Raw coefficients: the values the Dunkl core, compose and elimination carry
# ---------------------------------------------------------------------------


def denominator_lcm(R, dens):
    """The lcm of monic denominators; a 1, or one equal to the lcm so far, costs no gcd."""
    den = R.one
    for d in dens:
        if d != R.one and d != den:
            den = R.mul(den, R.divmod(d, R.gcd(den, d))[0])
    return den


class RingAdapter:
    """The raw coefficients of one domain: ints over F_p, reduced mod p only
    by ``norm``; numerators in F_p[c] over F_p(c), where ``norm`` is None.

    It carries the Dunkl core's arithmetic (F_2[c] ints add by XOR), the
    ``p``, ``one`` and ``is_generic`` that choose compose's packing and the
    elimination route, and ``points_tried``, the evaluation points
    ``linalg._modular_rref`` ran on it.  ``of`` gives one adapter per class
    of equal domains: the core's layout cache keys on it, and a point count
    is read where it was counted.  The benchmark tracer reads
    ``is_generic``, ``ring`` and ``zero`` and wraps ``strip_row``.
    """

    def __init__(self, domain: CoeffDomain):
        self.domain, self.p, self.points_tried = domain, domain.p, 0
        self.is_generic = isinstance(domain, RationalFunctionField)
        if self.is_generic:
            ring = self.ring = domain.ring
            self.zero, self.one, self.mul, self.norm = ring.zero, ring.one, ring.mul, None
            self.add, self.neg = (operator.xor, operator.pos) if self.p == 2 else (ring.add, ring.neg)
            self.of_int = lambda k: ring.from_coeffs((k,))
            self.c = domain.c_scalar()[0]
        else:
            p = self.p
            self.ring, self.zero, self.one = None, 0, 1
            self.add, self.neg, self.mul = operator.add, operator.neg, operator.mul
            self.of_int = self.norm = lambda v: v % p
            self.c = domain.c_value

    @staticmethod
    @lru_cache(maxsize=None)
    def of(domain: CoeffDomain) -> "RingAdapter":
        """The adapter of ``domain``, one per class of equal domains."""
        return RingAdapter(domain)

    def strip_row(self, row):
        """The row as it is.  Nothing calls it; only the benchmark tracer binds it."""
        return row

    def scalar_div(self, a, b):
        """Field division of two ring values, as a domain scalar."""
        return self.domain.make(a, b) if self.is_generic else self.domain.div(a, b)

    def clear_denominators(self, scalar_row: dict, ncols: int) -> list:
        """Sparse dict of field scalars -> dense row of ring values, times the lcm
        of the denominators."""
        dense = [self.zero] * ncols
        if self.is_generic:
            R = self.ring
            den = denominator_lcm(R, (d for _, d in scalar_row.values()))
            scalar_row = {col: R.mul(num, R.divmod(den, d)[0]) for col, (num, d) in scalar_row.items()}
        for col, v in scalar_row.items():
            dense[col] = v
        return dense


# ---------------------------------------------------------------------------
# Table fields F_{p^k} = F_p[c]/(m): the evaluation points of F_p(c)
# ---------------------------------------------------------------------------


def table_degree(p: int) -> int:
    """The largest k >= 1 with p^k <= 2^16."""
    return max([1] + [k for k in range(1, 17) if p**k <= 1 << 16])


def _digits(code: int, p: int, k: int) -> list[int]:
    return [code // p**i % p for i in range(k)]


def _powers(p: int, k: int, neg_m: list[int]) -> array:
    """The codes of c^i, 0 <= i < 2(p^k - 1), where c^k = sum neg_m[i] c^i.

    Block [s, 2s) is c^s times block [0, s) up to 4096 entries, then each chunk
    [s, s + 4096) is c^s times that block.  x -> c^s x is F_p-linear, so it maps
    a block in bulk: at p = 2 as 16-bit lanes of one int, at odd p < 128 as byte
    planes of digits by ``bytes.translate`` and int sums, which k(p - 1) < 256
    keeps within a byte; else (k <= 2) code by code.  Lanes are in native order.
    """
    order, planes, chunk, native = p**k - 1, p > 2 and k * (p - 1) < 256, 4096, sys.byteorder
    exp, block = array("H", [1]), [b"\1"] + [b"\0"] * (k - 1)
    scale = [bytes(a * v % p for v in range(256)) for a in range(p if planes else 0)]
    while (n := len(exp)) < order:
        cols = [_digits(exp[-1], p, k)]
        for _ in range(k):  # then the digits of c^n, ..., c^(n+k-1)
            cols.append([(a + cols[-1][-1] * b) % p for a, b in zip([0] + cols[-1][:-1], neg_m)])
        cols, size, lanes = cols[1:], min(n, chunk, order - n), 0
        if p == 2:  # c^n x = XOR over b of x_b c^(n+b), lane by lane
            x, ones = (int.from_bytes(a[:size].tobytes(), native) for a in (exp, array("H", [1]) * size))
            for b, w in enumerate(cols):
                lanes ^= (x >> b & ones) * sum(a << i for i, a in enumerate(w))
        elif planes:
            sums = [{a: int.from_bytes(P[:size].translate(scale[a]), "little") for a in set(w) if a}
                    for P, w in zip(block, cols)]
            new = [sum(S.get(w[j], 0) for S, w in zip(sums, cols)).to_bytes(size, "little")
                   .translate(scale[1]) for j in range(k)]  # scale[1] is mod p
            buf = bytearray(2 * size)
            for j, P in enumerate(new):  # the codes as 16-bit lanes
                buf[native == "big" :: 2] = P
                lanes += int.from_bytes(buf, native) * p**j
            if n < chunk:
                block = [a + b for a, b in zip(block, new)]
        elif k == 1:
            new = [x * cols[0][0] % p for x in exp[:size]]
        else:
            (a0, a1), (b0, b1) = cols  # x = x_0 + x_1 c: c^n x = x_0 c^n + x_1 c^(n+1)
            new = [(x % p * a0 + x // p * b0) % p + p * ((x % p * a1 + x // p * b1) % p) for x in exp[:size]]
        exp.extend(array("H", lanes.to_bytes(2 * size, native)) if p == 2 or planes else new)
    return exp + exp  # doubled: no mod in mul


def _powmod(R, a, e: int, m):
    result = R.one
    while e:
        if e & 1:
            result = R.divmod(R.mul(result, a), m)[1]
        a = R.divmod(R.mul(a, a), m)[1]
        e >>= 1
    return result


@lru_cache(maxsize=4)  # at most four fields, well under 2 MB of tables, each built in 10-20 ms
def point_field(p: int, j: int) -> "TableField":
    """F_p[c]/(m) for the j-th primitive m = c^k + ..., k = table_degree(p).

    Its point c mod m has full degree k, and distinct m put the points in
    distinct Frobenius orbits.
    """
    k = table_degree(p)
    return TableField(p, poly_ring(p).from_coeffs(_digits(_primitive_code(p, j), p, k) + [1]))


@lru_cache(maxsize=None)
def _primitive_code(p: int, j: int) -> int:
    """Code of the lower coefficients of the j-th primitive c^k + ... over F_p.

    Candidates run in the order of their codes, with no randomness; c of
    order p^k - 1 mod m makes m primitive, and so irreducible.  At k >= 2 a
    root in F_p, gcd(m, c^p - c) != 1, is a linear factor: m is skipped.
    """
    if p > 1 << 16:
        raise ValueError(f"generic c needs p < 2^16 for its table fields, got p = {p}")
    R, k = poly_ring(p), table_degree(p)
    order, c = p**k - 1, R.from_coeffs((0, 1))
    divisors = {d for e in range(1, int(order**0.5) + 1) if order % e == 0 for d in (e, order // e)}
    cofactors = [order // ell for ell in sorted(divisors) if is_prime(ell)]
    for code in range(_primitive_code(p, j - 1) + 1 if j else 1, order + 1):
        m = R.from_coeffs(_digits(code, p, k) + [1])
        no_root = k == 1 or R.deg(R.gcd(R.sub(_powmod(R, c, p, m), c), m)) == 0
        if no_root and _powmod(R, c, order, m) == R.one and all(
            _powmod(R, c, e, m) != R.one for e in cofactors
        ):
            return code
    raise ArithmeticError(f"no primitive polynomial of degree {k} left over F_{p}")


class TableField(CoeffDomain):
    """F_{p^k} = F_p[c]/(m), m primitive of degree k, p^k <= 2^16.

    A value is the code sum a_i p^i of its residue sum a_i c^i mod m (at
    p = 2, the F_2[c] bitmask), 0 being zero.  c generates the units, so log/exp
    tables give products, built in bulk in time linear in p^k (``_powers``).
    Sums are XOR at p = 2 and by the Zech relation a + b = a (1 + b/a) at odd
    p.  Elimination's row update reads pivot rows in log form (``prepare``),
    so ``subtract_multiple`` does each entry inline, without a method call.
    """

    c_mode = "point"

    def __init__(self, p: int, modulus):
        self.p, self.k, self.ring, self.modulus = p, table_degree(p), poly_ring(p), modulus
        self.q = p**self.k
        self.order = order = self.q - 1
        self._key = modulus
        self._exp = _powers(p, self.k, [(-a) % p for a in self.ring.coeffs(modulus)[: self.k]])
        self._log = log = array("H", bytes(2 * self.q))
        for i, code in zip(range(order), self._exp):  # faster than a map over __setitem__
            log[code] = i
        if p == 2:  # codes are F_2[c] bitmasks: sums are XOR, -a = a
            self.add = self.sub = operator.xor
            self.neg = operator.pos

    def evaluate(self, poly) -> int:
        """The value of an F_p[c] polynomial at the point c mod m."""
        if self.p == 2:
            return poly if poly < self.q else GF2X.divmod(poly, self.modulus)[1]
        if len(poly) > self.k:
            poly = self.ring.divmod(poly, self.modulus)[1]
        code = 0
        for a in reversed(poly):
            code = code * self.p + a
        return code

    def residue(self, a):
        """The polynomial of degree < k whose value is a."""
        return a if self.p == 2 else self.ring.from_coeffs(_digits(a, self.p, self.k))

    def from_int(self, k: int) -> int:
        return k % self.p

    def is_zero(self, a) -> bool:
        return not a

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in F_{p^k}")
        return self._exp[self.order - self._log[a]]

    def add(self, a, b):
        if not (a and b):
            return a or b
        exp, log, p = self._exp, self._log, self.p
        x = exp[log[b] + self.order - log[a]]
        one_plus_x = x - x % p + (x + 1) % p  # 1 + x steps the lowest digit
        return exp[log[a] + log[one_plus_x]] if one_plus_x else 0

    def neg(self, a):
        return self._exp[self._log[a] + self.order // 2] if a else 0

    def prepare(self, prow: dict) -> dict:
        """The pivot row as {col: log v}, so a multiple is one exp lookup."""
        log = self._log
        return {k: log[v] for k, v in prow.items()}

    def subtract_multiple(self, row: dict, fac, prow: dict) -> None:
        """row -= fac * prow in place, prow in log form (``prepare``)."""
        exp, log, get = self._exp, self._log, row.get
        if self.p == 2:  # -fac = fac; a sum of equal codes is the only zero
            lf = log[fac]
            for k, lv in prow.items():
                nv = get(k, 0) ^ exp[lf + lv]
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            return
        p, order = self.p, self.order
        lf = (log[fac] + order // 2) % order  # log(-fac): -1 = c^(order/2)
        for k, lv in prow.items():
            lb = lf + lv
            cur = get(k)
            if cur is None:
                row[k] = exp[lb]
                continue
            # Zech step as in ``add``: cur + b = cur (1 + b/cur); lb - la lies
            # above -order, and a negative index wraps into the doubled table
            la = log[cur]
            x = exp[lb - la]
            one_plus_x = x - x % p + (x + 1) % p
            if one_plus_x:
                row[k] = exp[la + log[one_plus_x]]
            else:
                del row[k]


# ---------------------------------------------------------------------------
# Tagged scalars: a value with its domain, for results that leave the engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its domain, as a pairing or witness value
    is returned and printed; arithmetic goes through ``domain``."""

    domain: CoeffDomain
    value: Any

    def is_zero(self) -> bool:
        return self.domain.is_zero(self.value)

    def __str__(self):
        return self.domain.fmt(self.value)

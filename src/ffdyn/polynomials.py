"""Dense exact polynomials: Q[t] on an integer core, and Q[t][z].

Everything here is exact; no floating point is used anywhere.

Representation of Q[t]. A ``Poly`` stores ``ints``, a tuple of Python ints
lowest degree first, and ``den``, one positive int; its value is
(ints[0] + ints[1]*t + ... + ints[n]*t^n) / den. The form is canonical:

- the last entry of ``ints`` is nonzero, and zero is ``((), 1)``, of degree
  -1 by convention;
- ``den > 0`` and gcd(content(ints), den) = 1, where the content is the gcd
  of the entries.

Equal polynomials therefore have equal fields, so ``==`` and ``hash``
compare values. ``coeffs`` returns the rational coefficients as Fractions;
it is computed on each access, for sort keys and tests, and neither the
kernels nor the printer use it.

Kernels, all on the integer numerators:

- multiply: the schoolbook product below a crossover, Kronecker substitution
  above it (Harvey, "Faster polynomial multiplication via multipoint
  Kronecker substitution", JSC 2009: pack each operand into one integer,
  multiply once, unpack). The crossover depends on the shorter operand's
  length and, for distinct operands, on the size of the top coefficients;
  a schoolbook square takes each cross product once. See
  ``_KRONECKER_MIN_LEN`` for the measurement.
- binary-form evaluation (``binary_form_values``): the degree-d
  homogenizations of several forms at one pair (a, b), both in Q[t] or both
  in Q[t][z]. The forms share the powers of a and b; rational coordinates
  become integers by homogeneity, and a pair in Q[t][z] is flattened by
  z -> t^L, so a composition of maps is one evaluation in Q[t]. Long pairs
  of narrow coefficients run as single integers between one pack and one
  unpack (``_PACKED_MIN_SIZE``), the others on integer lists. A product in
  Q[t][z] (``ZPoly.__mul__``) is one flattened product.
- exact division: integer long division against the primitive integer form
  of the divisor, stopping at the first quotient coefficient that is not
  an integer. Gauss's lemma makes the early exit sound: let P in Z[t] be
  primitive and P | A in Q[t] for some A in Z[t], say A = P*Q. Write
  Q = c*Q0 with c in Q and Q0 primitive. The product of primitive
  polynomials is primitive, so content(A) = |c|, an integer, and Q lies in
  Z[t]. Divisibility over Q therefore equals divisibility over Z, and a
  non-integral quotient coefficient proves that P does not divide A. Against
  a divisor that is not primitive the early exit would be wrong: 2 divides
  t + 1 in Q[t].
- gcd: the heuristic gcd of Char, Geddes and Gonnet ("GCDHEU: heuristic
  polynomial GCD algorithm based on integer GCD computation", JSC 1989) on
  the primitive integer numerators, with a primitive PRS as the fallback
  (``poly_gcd``). Clearing denominators and contents multiplies by units of
  Q[t], so the monic gcd is unchanged.
- factorization (``factor_tpoly``): Yun's squarefree decomposition on the
  native gcd, then Zassenhaus on each part: distinct-degree and
  Cantor-Zassenhaus factoring modulo a small prime, Hensel lifting past
  the Landau-Mignotte bound and recombination by exact division (von zur
  Gathen and Gerhard, "Modern Computer Algebra", Chapters 14 and 15).
- resultant in z (``resultant_z``): a fraction-free Bareiss determinant
  of the Sylvester matrix over Z[t] (the same book, Chapter 6) on packed
  integers; ``form_resultant`` corrects it to the resultant of two forms.
- content, primitive part and monic associate: one pass each.

A ``ZPoly`` in Q[t][z] holds Poly z-coefficients, lowest first; the
kernels and the sympy bridge read its integer view ``integer_rows``.

No sympy is imported here; ``sympybridge`` keeps the K[z] routines that
still use it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import gcd, isqrt, lcm
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, frozen, set_field

# Shortest operand length (number of coefficients) from which a product runs
# through Kronecker substitution: _KRONECKER_MIN_LEN, or _KRONECKER_BIG_LEN
# for distinct operands when a top coefficient has _KRONECKER_BIG_BITS bits
# or more. Measured on Python 3.11 (2-core Xeon VM), balanced operands with
# random signed coefficients of the given bits, min of seven interleaved
# timings per cell: Kronecker time / schoolbook time for distinct operands,
# then Kronecker square / schoolbook square, which takes each cross product
# once:
#   bits      8: n=3 4.88/3.83, n=8 1.85/1.86, n=12 1.26/1.40, n=16 0.95/1.13
#   bits     64: n=3 4.35/3.39, n=8 1.43/1.55, n=12 1.00/1.17, n=16 0.74/0.91
#   bits   1500: n=3 3.32/3.12, n=8 1.46/2.29, n=12 1.25/1.54, n=16 1.08/1.37
#   bits   4096: n=3 1.52/1.82, n=8 1.12/1.62, n=12 0.93/1.26, n=16 0.93/1.21
#   bits  10000: n=3 1.61/2.12, n=8 1.21/1.61, n=12 1.06/1.52, n=16 0.86/1.23
#   bits  30000: n=3 1.28/1.62, n=8 1.09/1.44, n=12 0.98/1.29, n=16 0.80/1.16
#   bits 100000: n=3 1.37/1.68, n=8 1.14/1.37, n=12 0.89/1.36, n=16 0.72/1.15
# At n=20 the 8- and 64-bit rows read 0.74/0.92 and 0.58/0.80, the squares
# of 4096 bits or more 0.98-1.20; the 1500-bit row reads 0.95/1.16 at n=24.
# Taking each cross product once makes a schoolbook square 0.47-0.75 times
# as long as the plain product of n >= 3 coefficients with itself. Map
# coefficients and base points (a few small coefficients) stay on the
# schoolbook side; the short windows of Orbit.height, with 10^4-10^5-bit
# coefficients, square on it and multiply through Kronecker from length 16;
# deep orbit iterates (hundreds of coefficients) go through Kronecker.
_KRONECKER_MIN_LEN = 20
_KRONECKER_BIG_LEN = 16
_KRONECKER_BIG_BITS = 4096

# binary_form_values takes the packed kernel when d * max(len A, len B)
# reaches _PACKED_MIN_SIZE and every coefficient of A and B has fewer than
# _PACKED_MAX_BITS bits. Measured as above: packed time / list time for the
# two forms of a map at (A, B) of random signed coefficients, by d * len;
# "dense" maps have all coefficients of t-degree <= 2 (fresh-maps), "sparse"
# ones are z^2 + t and (z^3 - t)/z:
#   dense  d=2 bits    8: 12 0.74, 20 0.66, 32 0.51, 60 0.46
#   dense  d=3 bits    8: 12 0.58, 21 0.42, 33 0.34, 60 0.28
#   dense  d=3 bits  127: 12 0.79, 21 0.77, 33 0.79, 60 0.68
#   dense  d=3 bits  256: 12 1.22, 21 1.13, 33 1.08, 60 0.84
#   dense  d=3 bits 1024: 12 1.54, 21 1.35, 33 1.28, 60 1.03
#   sparse d=2 bits    8: 12 1.19, 20 1.21, 32 0.94, 60 0.85
#   sparse d=3 bits  127: 12 1.03, 21 0.98, 33 0.90, 60 0.76
# A slot holds a value, about d times the bits of A and B, so wide operands
# lose; from 60 on both routes read 0.95-1.03 at any width. The windows of
# Orbit.height (10^4-10^5 bits) stay on lists.
_PACKED_MIN_SIZE = 20
_PACKED_MAX_BITS = 128


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


def _canon(ints: Sequence[int], den: int) -> "Poly":
    """Canonical Poly of (ints[0] + ints[1]*t + ...) / den for den != 0."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    if n != len(ints):
        ints = ints[:n]
    if den < 0:
        den = -den
        ints = [-c for c in ints]
    if den != 1:
        g = den
        for c in ints:
            if c:
                g = gcd(g, c)
                if g == 1:
                    break
        if g != 1:
            den //= g
            ints = [c // g for c in ints]
    return Poly(tuple(ints), den)


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) == 1:
        x = a[0]
        return [x * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    if a is b:  # a square: each cross product a_i a_j, i < j, once, doubled
        for i, x in enumerate(a):
            if x:
                out[2 * i] += x * x
                x += x
                for j in range(i + 1, len(a)):
                    out[i + j] += x * a[j]
        return out
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pack(p: Sequence[int], k: int) -> int:
    """p(2^(8k)) for |p[i]| < 2^(8k), in linear time: p packs as (positive
    part) - (negative part), two byte strings of non-negative k-byte slots.
    Fewer than 8 coefficients take Horner's rule, which is faster there."""
    if len(p) < 8:
        x = 0
        for c in reversed(p):
            x = (x << 8 * k) + c
        return x
    zero = bytes(k)
    pos = b"".join(c.to_bytes(k, "little") if c > 0 else zero for c in p)
    neg = b"".join((-c).to_bytes(k, "little") if c < 0 else zero for c in p)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(x: int, k: int, n: int) -> list[int]:
    """The n digits of x in base 2^(8k), lowest first, each in
    [-2^(8k-1), 2^(8k-1)), for x that has such an expansion. Adding 2^(8k-1)
    to every slot makes all digits non-negative, so one to_bytes call
    returns them, offset by 2^(8k-1)."""
    half = 1 << (8 * k - 1)
    offset = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    raw = (x + offset).to_bytes(n * k, "little")
    return [int.from_bytes(raw[i : i + k], "little") - half for i in range(0, n * k, k)]


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product by Kronecker substitution t -> 2^(8k) with k-byte slots.

    Every product coefficient is below 2^(8k-1) in absolute value, so the
    product of the packed operands unpacks into them. A square packs once.
    """
    square = a is b
    bits = max(map(abs, a)).bit_length()
    bits += bits if square else max(map(abs, b)).bit_length()
    k = (bits + min(len(a), len(b)).bit_length() + 8) // 8
    x = _pack(a, k)
    y = x if square else _pack(b, k)
    return _unpack(x * y, k, len(a) + len(b) - 1)


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product in Z[t] of nonzero a, b: schoolbook below the crossover of
    ``_KRONECKER_MIN_LEN``, Kronecker substitution from it on."""
    n = min(len(a), len(b))
    if n >= _KRONECKER_MIN_LEN or (
        n >= _KRONECKER_BIG_LEN
        and a is not b
        and max(a[-1].bit_length(), b[-1].bit_length()) >= _KRONECKER_BIG_BITS
    ):
        return _kronecker(a, b)
    return _schoolbook(a, b)


def _int_exact_quotient(a: Sequence[int], p: Sequence[int]) -> Optional[list[int]]:
    """a / p in Z[t] for nonzero a and primitive p, or None if p does not
    divide a. The early exits are sound by Gauss's lemma (module docstring).
    For p not primitive it still returns a / p whenever that lies in Z[t]."""
    m = len(p) - 1
    k = len(a) - m
    if k <= 0 or (p[0] and a[0] % p[0]):
        return None
    rem = list(a)
    lead = p[-1]
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c, r = divmod(rem[i + m], lead)
        if r:
            return None
        if c:
            q[i] = c
            for j in range(m):
                rem[i + j] -= c * p[j]
    if any(rem[:m]):
        return None
    return q


def rational_content(polys: Iterable["Poly"]) -> Fraction:
    """Positive generator of the Z-module spanned by all coefficients of the
    polys: gcd of the numerator contents over lcm of the denominators; 0 if
    every poly is zero. In canonical form each content is coprime to its own
    denominator, so the result needs no further reduction."""
    num, den = 0, 1
    for p in polys:
        num = gcd(num, *p.ints)
        den = lcm(den, p.den)
    return Fraction(num, den)


def primitive_pair(a: "Poly", b: "Poly") -> tuple["Poly", "Poly"]:
    """(c*a, c*b), a and b not both zero, for the c in Q* that gives integer
    coefficients of gcd 1 and a positive leading coefficient on b, or on a
    when b = 0. For coprime a, b it is the normal form of the point [a : b]
    of P^1(Q(t)), whose coprime pairs differ by factors in Q*. The content
    gcd (as in ``rational_content``) reads b first and stops at 1."""
    g = 0
    for c in chain(b.ints, a.ints):
        g = gcd(g, c)
        if g == 1:
            break
    if (b if b.ints else a).ints[-1] < 0:
        g = -g
    if g == 1 and a.den == b.den == 1:
        return a, b
    m = lcm(a.den, b.den)
    return tuple(Poly(tuple(c // g * (m // p.den) for c in p.ints), 1) for p in (a, b))


class Poly:
    """Univariate polynomial in t over Q: integer numerators lowest degree
    first over one positive denominator, in canonical form (module
    docstring)."""

    __slots__ = ("ints", "den")
    __setattr__ = __delattr__ = frozen

    def __init__(self, ints: tuple[int, ...], den: int = 1):
        set_field(self, "ints", ints)
        set_field(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        return f"Poly(ints={self.ints!r}, den={self.den!r})"

    def __reduce__(self):
        # pickle and copy would restore the slots through the frozen __setattr__
        return Poly, (self.ints, self.den)

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly.from_list(coeffs)

    @staticmethod
    def from_list(coeffs: Iterable) -> "Poly":
        fracs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return _canon([c.numerator * (den // c.denominator) for c in fracs], den)

    @staticmethod
    def constant(c) -> "Poly":
        return Poly.of(c)

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def t() -> "Poly":
        return _T

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients, lowest degree first; built on each access."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    @property
    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == self.den

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Fraction(0)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise DomainError("polynomial is not constant")
        return self.coeff(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        den = self.den
        if den != other.den:
            den = lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canon(out, den)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.ints), self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        return _canon(_int_mul(a, b), self.den * other.den)

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return _ZERO
        return _canon([x * c.numerator for x in self.ints], self.den * c.denominator)

    def shift(self, k: int) -> "Poly":
        """Multiply by t**k."""
        if self.is_zero or k == 0:
            return self
        return Poly((0,) * k + self.ints, self.den)

    def derivative(self) -> "Poly":
        return _canon([i * c for i, c in enumerate(self.ints)][1:], self.den)

    def drop_low(self, k: int) -> "Poly":
        """Quotient by t**k: the coefficients of t^k and above, moved down."""
        if k < 0:
            raise DomainError("negative shift")
        return _canon(self.ints[k:], self.den) if k else self

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        ints = self.ints
        if ints and not any(ints[:-1]):
            # c*t^k: (c*t^k)^n = c^n*t^(kn), and gcd(c^n, den^n) = 1
            return Poly((0,) * ((len(ints) - 1) * n) + (ints[-1] ** n,), self.den**n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder in Q[t].

        Integer long division of the numerators in which the remainder
        carries a common scale s: whenever a leading coefficient is not a
        multiple of lc(other), the remainder is multiplied by the least
        factor that makes it one. Then s*A = Q*B + R over Z for the
        numerators A, B, and the Q[t] results are Q*db/(s*da), R/(s*da).

        The scaling is lazy. Step i touches only the window of m + 1
        coefficients i..i+m, m = deg other: a lower coefficient is still
        unscaled and is multiplied by the current s when it enters the
        window, and the quotient coefficient found at step i is multiplied
        at the end by the factors of the steps below it. So A % B costs
        O(deg A * m) coefficient operations, not O(deg A^2).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _ZERO, self
        b = other.ints
        m = len(b) - 1
        lead = b[-1]
        rem = list(self.ints)
        n = len(rem) - m
        q = [0] * n
        factors = [1] * n
        s = 1
        for i in range(n - 1, -1, -1):
            if s != 1:
                rem[i] *= s
            top = rem[i + m]
            if not top:
                continue
            f = lead // gcd(top, lead)
            if f != 1 and f != -1:
                s *= f
                factors[i] = f
                for j in range(i, i + m):
                    rem[j] *= f
                top *= f
            c = top // lead
            q[i] = c
            for j in range(m):
                rem[i + j] -= c * b[j]
            rem[i + m] = 0
        f = 1
        for i in range(n):
            if f != 1:
                q[i] *= f
            f *= factors[i]
        scale = s * self.den
        if other.den != 1:
            q = [c * other.den for c in q]
        return _canon(q, scale), _canon(rem[:m], scale)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_quotient(self, other: "Poly") -> Optional["Poly"]:
        """self / other if other divides self in Q[t], else None.

        Divides the numerator of self by the primitive integer form of
        other, with the early exit of ``_int_exact_quotient``."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return _ZERO
        g = gcd(*other.ints)
        p = other.ints if g == 1 else [c // g for c in other.ints]
        q = _int_exact_quotient(self.ints, p)
        if q is None:
            return None
        # self / other = (A/P) * den(other) / (den(self) * g)
        if other.den != 1:
            q = [c * other.den for c in q]
        return _canon(q, self.den * g)

    def exact_div(self, other: "Poly") -> "Poly":
        q = self.exact_quotient(other)
        if q is None:
            raise DomainError("exact division has nonzero remainder")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return other.exact_quotient(self) is not None

    # -- normal forms --------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        p = self.primitive()
        return Poly(p.ints, p.ints[-1])

    def primitive(self) -> "Poly":
        """Integer-coprime coefficients and positive leading coefficient."""
        if self.is_zero:
            return self
        g = gcd(*self.ints)
        if self.ints[-1] < 0:
            g = -g
        if g == 1:
            return self if self.den == 1 else Poly(self.ints, 1)
        return Poly(tuple(c // g for c in self.ints), 1)

    def __str__(self) -> str:  # debugging aid; canonical printing is in exprs
        from .exprs import poly_text

        return poly_text(self)


_ZERO = Poly((), 1)
_ONE = Poly((1,), 1)
_T = Poly((0, 1), 1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[t]; gcd(0, 0) = 0.

    The heuristic gcd (``_heuristic_gcd``) runs on the primitive integer
    numerators; when it gives up, a primitive PRS (``_prs_gcd``) decides."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant or b.is_constant:
        return _ONE
    a, b = a.primitive(), b.primitive()
    h = _heuristic_gcd(a.ints, b.ints)
    if h is None:
        return _prs_gcd(a, b).monic()
    return Poly(tuple(h), 1).monic()


# Evaluation points a failed heuristic gcd tries before the PRS decides.
_HEU_GCD_TRIES = 6
# Largest first evaluation point of ``_heuristic_gcd`` that skips the degree
# certificate, in bytes. Measured on Python 3.11 (2-core Xeon VM), random
# coprime f, g of equal degree n <= 128: the certificate takes about
# 0.55*n^2 us whatever the coefficient size, and one evaluation and integer
# gcd at a point of b bits takes as long at b = 512 (n = 2: 15 against 19 us,
# n = 128: 8.9 against 10.2 ms), ten times less at b = 64 and fifteen to
# seventy times more at b = 4096.
_HEU_BOUND_BYTES = 64
# Primes below 2^31 for the degree certificate of ``_heuristic_gcd``.
_WORD_PRIMES = (2147483647, 2147483629, 2147483587)


def _heuristic_gcd(f: Sequence[int], g: Sequence[int]) -> Optional[list[int]]:
    """Primitive gcd of primitive f, g in Z[t] of degree >= 1, or None.

    Char-Geddes-Gonnet: for xi = 2^(8k), take gamma = gcd(f(xi), g(xi)) in
    Z, expand gamma into the balanced base-xi digits of a polynomial H, so
    H(xi) = gamma with every |H_i| <= xi/2, and let h = pp(H). h is
    accepted only if it divides f and g exactly, so h | G = gcd(f, g), and
    only with one of two certificates that G | h as well:

    - the bound. Let xi >= 2 + 2*||f||/|lc f| (or the same for g), where
      ||.|| is the largest absolute coefficient. Every root a of f has
      |a| < 1 + ||f||/|lc f| (Cauchy), so |xi - a| > xi/2, and no divisor
      of f vanishes at xi. Write G = h*q in Z[t] (Gauss). G(xi) divides
      f(xi) and g(xi), hence gamma = cont(H)*h(xi), so q(xi) divides
      cont(H), and |cont(H)| <= xi/2. If q were not constant, its roots
      would be roots of f and |q(xi)| > (xi/2)^deg q >= xi/2. So q = +-1.
    - the degree. Let p be a prime not dividing lc f (or lc g). Then G mod p
      has degree deg G (lc G divides lc f) and divides f and g mod p, so
      deg gcd(f mod p, g mod p) >= deg G >= deg h. An h of that degree is G.

    The first point is CGG's, 2*min(||f||, ||g||) + 29 rounded up to a
    power of 2^8, which lies above the bound, when that takes at most
    ``_HEU_BOUND_BYTES`` bytes. Above that, the degree certificate is
    computed first, since it costs O(deg^2) word operations whatever the
    coefficient size: it decides coprime operands with no integer gcd at
    all, and otherwise certifies h at sympy's smaller first point
    (``dup_zz_heu_gcd``: about the square root of CGG's). Each failed point
    grows by about a quarter.
    """
    fn, gn = max(map(abs, f)), max(map(abs, g))
    lf, lg = abs(f[-1]), abs(g[-1])
    bound = 2 + min(-(-2 * fn // lf), -(-2 * gn // lg))
    k_bound = (bound.bit_length() + 7) // 8
    B = 2 * min(fn, gn) + 29
    k = (B.bit_length() + 7) // 8
    dp = None
    if k > _HEU_BOUND_BYTES:
        dp = _gcd_degree_mod_p(f, g)
        if dp == 0:
            return [1]
        x0 = max(99 * isqrt(B), 2 * min(fn // lf, gn // lg) + 4)
        k = (x0.bit_length() + 7) // 8
    for _ in range(_HEU_GCD_TRIES):
        ff, gg = _eval_pow2(f, k), _eval_pow2(g, k)
        if ff and gg:
            gamma = gcd(ff, gg)
            h = _unpack(gamma, k, gamma.bit_length() // (8 * k) + 2)
            while not h[-1]:
                h.pop()
            c = gcd(*h)
            h = [x // c for x in h] if len(h) > 1 else [1]
            certified = k >= k_bound or (dp is not None and len(h) - 1 >= dp)
            if certified and (
                len(h) == 1 or all(_int_exact_quotient(x, h) is not None for x in (f, g))
            ):
                return h
        k += k // 4 + 1
    return None


def _eval_pow2(f: Sequence[int], k: int) -> int:
    """f(2^(8k)) in time linear in the size of f. With r slots of k bytes
    enough for every coefficient, the coefficients in each residue class
    j mod r pack into slots of r*k bytes, and the r packed values, shifted
    by 8*k*j bits, add up."""
    r = max(1, -(-max(map(abs, f)).bit_length() // (8 * k)))
    if r == 1:
        return _pack(f, k)
    # the classes from len(f) on are empty and pack to 0
    return sum(_pack(f[j::r], r * k) << (8 * k * j) for j in range(min(r, len(f))))


def _gcd_degree_mod_p(f: Sequence[int], g: Sequence[int]) -> Optional[int]:
    """deg gcd(f mod p, g mod p) for the first p in _WORD_PRIMES that does
    not divide both leading coefficients: an upper bound for deg gcd(f, g)
    (``_heuristic_gcd``). None if every listed prime divides both."""
    for p in _WORD_PRIMES:
        if f[-1] % p or g[-1] % p:
            break
    else:
        return None
    return len(_mod_gcd(_trim_mod(f, p), _trim_mod(g, p), p)) - 1


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of primitive a, b in Z[t] by the primitive PRS: Euclid with each
    remainder replaced by its primitive part, an associate of the
    pseudo-remainder."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, (a % b).primitive()
    return a


# ---------------------------------------------------------------------------
# (Z/m)[t]: lists of residues in [0, m), lowest degree first, trimmed. m is a
# prime p or, in Hensel lifting, a power of p; a divisor's leading
# coefficient must be a unit mod m.
# ---------------------------------------------------------------------------


def _trim_mod(f: Sequence[int], m: int) -> list[int]:
    out = [c % m for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def _mod_mul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    return _trim_mod(_int_mul(a, b), m)


def _mod_add(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim_mod(out, m)


def _mod_sub(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    return _mod_add(a, [-c for c in b], m)


def _mod_divmod(
    a: Sequence[int], b: Sequence[int], m: int
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by nonzero b in (Z/m)[t]."""
    k = len(b) - 1
    n = len(a) - k
    if n <= 0:
        return [], list(a)
    rem = list(a)
    inv = pow(b[-1], -1, m)
    q = [0] * n
    for i in range(n - 1, -1, -1):
        c = rem[i + k] * inv % m
        if c:
            q[i] = c
            rem[i : i + k] = [(x - c * y) % m for x, y in zip(rem[i : i + k], b)]
    rem = rem[:k]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def _mod_monic(a: Sequence[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mod_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd in F_p[t]; gcd(0, 0) = 0."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p) if a else []


def _mod_gcdex(
    a: Sequence[int], b: Sequence[int], p: int
) -> tuple[list[int], list[int]]:
    """(s, t) with s*a + t*b = 1 in F_p[t] for coprime a, b of degree >= 1,
    deg s < deg b and deg t < deg a (extended Euclid)."""
    r0, r1 = a, b
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_sub(s0, _mod_mul(q, s1, p), p)
        t0, t1 = t1, _mod_sub(t0, _mod_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _mod_pow(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e mod f in F_p[t]."""
    out = [1]
    a = _mod_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mod_divmod(_mod_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _mod_divmod(_mod_mul(a, a, p), f, p)[1]
    return out


def _frobenius_base(f: Sequence[int], p: int) -> list[list[int]]:
    """t^(i*p) mod f in F_p[t] for i < deg f."""
    tp = _mod_pow([0, 1], p, f, p)
    base = [[1]]
    for _ in range(len(f) - 2):
        base.append(_mod_divmod(_mod_mul(base[-1], tp, p), f, p)[1])
    return base


def _frobenius(h: Sequence[int], base: Sequence[Sequence[int]], p: int) -> list[int]:
    """h^p mod f for deg h < deg f, with base = ``_frobenius_base(f, p)``:
    h(t)^p = h(t^p) = sum h_i t^(i*p) in F_p[t], in O(deg f^2)."""
    out = [0] * len(base)
    for c, row in zip(h, base):
        if c:
            for j, y in enumerate(row):
                out[j] += c * y
    return _trim_mod(out, p)


# ---------------------------------------------------------------------------
# Factorization in Q[t]
# ---------------------------------------------------------------------------

# A first good prime with fewer modular factors than this is taken at once;
# otherwise the good prime with the fewest among the first _PRIME_TRIES.
_FEW_MODULAR_FACTORS = 15
_PRIME_TRIES = 5


@lru_cache(maxsize=4096)
def factor_tpoly(p: Poly) -> tuple[Fraction, tuple[tuple[Poly, int], ...]]:
    """Factor a nonzero element of Q[t] into monic irreducibles.

    Returns (unit, ((factor, multiplicity), ...)) with unit * prod == p,
    unit = lc(p), and the factors sorted by (degree, coefficients). Yun's
    squarefree decomposition (``_squarefree_parts``) splits p into coprime
    squarefree parts of distinct multiplicities; each part is split into
    irreducibles by ``_zassenhaus``.
    """
    if p.is_zero:
        raise DomainError("cannot factor zero")
    if p.is_constant:
        return p.constant_value(), ()
    factors = [
        (q, mult)
        for part, mult in _squarefree_parts(p)
        for q in _irreducible_factors(part)
    ]
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.leading, tuple(factors)


def is_irreducible_tpoly(p: Poly) -> bool:
    if p.is_zero or p.is_constant:
        return False
    _, factors = factor_tpoly(p)
    return len(factors) == 1 and factors[0][1] == 1


def _squarefree_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's squarefree decomposition of nonconstant p: the pairs (a_i, i)
    with a_i monic, squarefree, pairwise coprime and nonconstant, and
    p = lc(p) * prod a_i^i.

    With f = p/lc(p) = prod a_j^j, gcd(f, f') = prod a_j^(j-1) in
    characteristic 0. Step i starts from b_i = prod_(j >= i) a_j and
    c_i = sum_(j >= i) (j - i + 1) a_j' prod_(k >= i, k != j) a_k, which
    for i = 1 are f/gcd(f, f') and f'/gcd(f, f'). Then

        d_i = c_i - b_i' = a_i * sum_(j > i) (j - i) a_j' prod_(k > i, k != j) a_k,

    and gcd(b_i, d_i) = a_i: each a_j with j > i divides every term of the
    sum but the j-th, and is coprime to that one (a_j is squarefree and
    coprime to the other parts, and j - i != 0). b_(i+1) = b_i/a_i and
    c_(i+1) = d_i/a_i have the same form for i + 1.
    """
    f = p.monic()
    df = f.derivative()
    a = poly_gcd(f, df)
    b, c = f.exact_div(a), df.exact_div(a)
    out = []
    i = 1
    while not b.is_constant:
        d = c - b.derivative()
        a = poly_gcd(b, d)
        if not a.is_constant:
            out.append((a, i))
        b, c = b.exact_div(a), d.exact_div(a)
        i += 1
    return out


def _irreducible_factors(part: Poly) -> list[Poly]:
    """Monic irreducible factors of a squarefree nonconstant part."""
    f = part.primitive().ints
    out = []
    if not f[0]:  # t divides f once, f being squarefree
        out.append(_T)
        f = f[1:]
    if len(f) == 2:
        out.append(Poly(f, 1).monic())
    elif len(f) > 2:
        out.extend(Poly(tuple(g), 1).monic() for g in _zassenhaus(f))
    return out


def _zassenhaus(f: Sequence[int]) -> list[list[int]]:
    """Irreducible factors in Z[t] of f of degree n >= 2 that is primitive,
    squarefree, with lc f > 0 and f(0) != 0; each primitive with positive
    leading coefficient (von zur Gathen-Gerhard, "Modern Computer Algebra",
    Algorithm 15.19, with the modular factors of Chapter 14).

    1. A prime. p must not divide b = lc f, so that reduction mod p keeps
       every degree, and f mod p must be squarefree (deg gcd(f, f') = 0 mod
       p), so that Hensel lifting applies. Odd primes are tried from 3; the
       discriminant of f is a nonzero integer, so only finitely many fail.
       Distinct-degree factoring (``_ddf``) counts the modular factors. One
       modular factor proves f irreducible: f = g*h over Z with both degrees
       positive would reduce to a factorization mod p of the same degrees.
       Of a few good primes the one with the fewest factors is kept, which
       keeps the recombination small.
    2. Modular factors: equal-degree splitting by Cantor-Zassenhaus
       (``_edf``) with a fixed-seed ``random.Random``, so reruns agree.
    3. The bound. Let g be a factor of f in Z[t] of degree k. The Mahler
       measure is multiplicative and M(h) >= |lc h|, so M(g) <=
       M(f)*|lc g|/|lc f|; Landau gives M(f) <= ||f||_2 and every
       coefficient of g is at most binomial(k, i)*M(g), so ||g||_1 <=
       2^k M(g). Hence G = (b/lc g)*g, an integer polynomial since lc g | b,
       has ||G||_inf <= ||G||_1 <= 2^k ||f||_2 <= B = 2^n * (isqrt(sum
       f_i^2) + 1). The same bound holds for the factors of every cofactor
       f/g met later, whose leading coefficient divides b.
    4. Lifting. The monic modular factors are lifted to u_i mod p^l with
       p^l > 2B and f = b * prod u_i mod p^l (``_hensel_lift``). Monic lifts
       of pairwise coprime factors are unique, so a true factor g of f
       satisfies g = lc(g) * prod_(i in S) u_i mod p^l for exactly one set
       S of indices.
    5. Recombination. For each subset S, by increasing size, the balanced
       residue G* of b * prod_(i in S) u_i mod p^l equals (b/lc g)*g when S
       belongs to a factor g, because |coefficients| <= B < p^l/2. The
       constant term is tested first: G* must divide b*f, so G*(0) | b*f(0).
       pp(G*) is accepted only if it divides f exactly; f is replaced by the
       cofactor and b by its leading coefficient. A factor found at size s
       is irreducible, since each factor of it would belong to a smaller set
       that was tried already; when 2s exceeds the number of indices left,
       one side of any split of the rest would be smaller than s, so the
       rest is irreducible.
    """
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    best = None
    tried = 0
    for p in _odd_primes():
        if not f[-1] % p:
            continue
        fp = _mod_monic(_trim_mod(f, p), p)
        if len(_mod_gcd(fp, _trim_mod(df, p), p)) > 1:
            continue
        parts = _ddf(fp, p)
        count = sum((len(g) - 1) // d for g, d in parts)
        if count == 1:
            return [list(f)]
        if best is None or count < best[0]:
            best = (count, p, parts)
        tried += 1
        if count < _FEW_MODULAR_FACTORS or tried == _PRIME_TRIES:
            break
    _, p, parts = best
    rng = random.Random(0)
    modular = [u for g, d in parts for u in _edf(g, d, p, rng)]
    bound = (isqrt(sum(c * c for c in f)) + 1) << n
    pl = p
    while pl <= 2 * bound:
        pl *= p
    lifted = _hensel_lift(f, modular, p, pl)
    half = pl // 2

    def balanced(c: int) -> int:
        c %= pl
        return c - pl if c > half else c

    factors = []
    left = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            b = f[-1]
            c0 = b
            for i in subset:
                c0 = c0 * lifted[i][0] % pl
            c0 = balanced(c0)
            if not c0 or (b * f[0]) % c0:
                continue
            G = [b]
            for i in subset:
                G = _trim_mod(_int_mul(G, lifted[i]), pl)
            G = [balanced(c) for c in G]
            g = gcd(*G)
            G = [c // g for c in G]
            q = _int_exact_quotient(f, G)
            if q is None:
                continue
            factors.append(G)
            f = q
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    factors.append(list(f))
    return factors


def _odd_primes() -> Iterator[int]:
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _ddf(f: Sequence[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of monic squarefree f in F_p[t]: the
    pairs (g_d, d) with g_d != 1 the product of the monic irreducible
    factors of degree d. t^(p^d) - t is the product of the monic
    irreducibles of degree dividing d, and the factors of degree below d
    are already divided out, so gcd(f, t^(p^d) - t) = g_d. The powers
    t^(p^d) mod f are Frobenius steps (``_frobenius``); they stay reduced
    modulo the input f, which the shrinking f divides. Once 2d exceeds
    deg f, what is left is irreducible."""
    base = _frobenius_base(f, p)
    h = [0, 1]
    out = []
    d = 1
    while 2 * d <= len(f) - 1:
        h = _frobenius(h, base, p)
        g = _mod_gcd(f, _mod_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mod_divmod(f, g, p)[0]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(g: Sequence[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of monic squarefree g in F_p[t], p odd,
    whose irreducible factors all have degree d (Cantor-Zassenhaus).

    For a random a, modulo each irreducible factor q the power
    a^((p^d - 1)/2) is 0, 1 or -1, and 1 and -1 each with probability
    about 1/2, independently for each q (Chinese remaindering), so
    gcd(g, a^((p^d - 1)/2) - 1) splits g with probability at least about
    1/2. The power is computed as N^((p - 1)/2) with
    N = a * a^p * ... * a^(p^(d-1)) mod g, by Frobenius steps."""
    if len(g) - 1 <= d:
        return [list(g)]
    base = _frobenius_base(g, p)
    while True:
        a = _trim_mod([rng.randrange(p) for _ in range(len(g) - 1)], p)
        if len(a) < 2:
            continue
        norm = power = a
        for _ in range(d - 1):
            power = _frobenius(power, base, p)
            norm = _mod_divmod(_mod_mul(norm, power, p), g, p)[1]
        h = _mod_pow(norm, (p - 1) // 2, g, p)
        u = _mod_gcd(g, _mod_sub(h, [1], p), p)
        if 1 < len(u) < len(g):
            break
    v = _mod_divmod(g, u, p)[0]
    return _edf(u, d, p, rng) + _edf(v, d, p, rng)


def _hensel_lift(
    f: Sequence[int], factors: Sequence[Sequence[int]], p: int, pl: int
) -> list[list[int]]:
    """Monic u_i mod pl = p^l with u_i = factors[i] mod p and
    f = lc(f) * prod u_i mod pl, for f = lc(f) * prod factors mod p with
    p not dividing lc f and the factors monic and pairwise coprime mod p.

    The factors split into two halves, g = lc(f) * (first half) and
    h = (second half) mod p, with s*g + t*h = 1 mod p (``_mod_gcdex``).
    ``_hensel_step`` lifts f = g*h from m to m^2 until m >= pl, and each
    half is lifted again against its own product (von zur Gathen-Gerhard,
    Algorithm 15.17, with the factor tree split down the middle).
    """
    if len(factors) == 1:
        inv = pow(f[-1], -1, pl)
        return [[c * inv % pl for c in f]]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mod_mul(g, u, p)
    h = factors[k]
    for u in factors[k + 1 :]:
        h = _mod_mul(h, u, p)
    s, t = _mod_gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(g, factors[:k], p, pl) + _hensel_lift(h, factors[k:], p, pl)


def _hensel_step(m: int, f, g, h, s, t) -> tuple[list[int], ...]:
    """One quadratic Hensel step (von zur Gathen-Gerhard, Algorithm 15.10
    and Theorem 15.11).

    From f = g*h and s*g + t*h = 1 mod m, with h monic, deg s < deg h and
    deg t < deg g, it returns g*, h*, s*, t* with the same properties
    mod m^2, g* = g and h* = h mod m. Let e = f - g*h, which is 0 mod m,
    and s*e = q*h + r with deg r < deg h, so h* = h + r stays monic. Then
    g* = g + t*e + q*g gives

        f - g*h* = e*(1 - s*g - t*h) - (t*e + q*g)*r = 0 mod m^2,

    as both 1 - s*g - t*h and r are 0 mod m. With b = s*g* + t*h* - 1,
    0 mod m, and s*b = c*h* + d, the updates s* = s - d and
    t* = t - t*b - c*g* give s*g* + t*h* - 1 = b - b*(s*g* + t*h*) = -b^2,
    0 mod m^2.
    """
    M = m * m
    e = _mod_sub(f, _mod_mul(g, h, M), M)
    q, r = _mod_divmod(_mod_mul(s, e, M), h, M)
    g = _mod_add(g, _mod_add(_mod_mul(t, e, M), _mod_mul(q, g, M), M), M)
    h = _mod_add(h, r, M)
    b = _mod_sub(_mod_add(_mod_mul(s, g, M), _mod_mul(t, h, M), M), [1], M)
    c, d = _mod_divmod(_mod_mul(s, b, M), h, M)
    s = _mod_sub(s, d, M)
    t = _mod_sub(t, _mod_add(_mod_mul(t, b, M), _mod_mul(c, g, M), M), M)
    return g, h, s, t


# ---------------------------------------------------------------------------
# Polynomials in z with k[t] coefficients
# ---------------------------------------------------------------------------


def _ztrim(coeffs: Sequence[Poly]) -> tuple[Poly, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero:
        n -= 1
    return tuple(coeffs[:n])


class ZPoly:
    """Polynomial in z over Q[t], z-coefficients lowest degree first."""

    __setattr__ = __delattr__ = frozen

    def __init__(self, coeffs: tuple[Poly, ...]):
        set_field(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"ZPoly(coeffs={self.coeffs!r})"

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, m): the integer numerators of m*f's z-coefficients, one
        row per power of z, lowest first, with m the lcm of the
        denominators. The one place where a ZPoly's denominators are
        cleared; computed once per ZPoly (the cache sits in the instance
        dict, outside the fields, so == and hash ignore it)."""
        m = lcm(*(c.den for c in self.coeffs))
        rows = tuple(c.ints if c.den == m else tuple(x * (m // c.den) for x in c.ints)
                     for c in self.coeffs)
        return rows, m

    @staticmethod
    def of(*coeffs) -> "ZPoly":
        out = []
        for c in coeffs:
            if isinstance(c, Poly):
                out.append(c)
            else:
                out.append(Poly.constant(c))
        return ZPoly(_ztrim(out))

    @staticmethod
    def from_list(coeffs: Iterable[Poly]) -> "ZPoly":
        return ZPoly(_ztrim(list(coeffs)))

    @staticmethod
    def zero() -> "ZPoly":
        return ZPoly(())

    @staticmethod
    def one() -> "ZPoly":
        return ZPoly((Poly.one(),))

    @staticmethod
    def z() -> "ZPoly":
        return ZPoly((Poly.zero(), Poly.one()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Poly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Poly.zero()

    @property
    def leading(self) -> Poly:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ZPoly(_ztrim(out))

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        """One product in Z[t] after z -> t^L, L above the t-degree of every
        z-coefficient of the product (``binary_form_values``)."""
        if self.is_zero or other.is_zero:
            return ZPoly(())
        L = self.max_coeff_tdegree() + other.max_coeff_tdegree() + 1
        a, ma = _flatten(self, L)
        b, mb = (a, ma) if other is self else _flatten(other, L)
        return _unflatten(_int_mul(a, b), L, ma * mb)

    def scale_poly(self, p: Poly) -> "ZPoly":
        if p.is_zero:
            return ZPoly(())
        return ZPoly(_ztrim([c * p for c in self.coeffs]))

    def scale(self, c: Fraction) -> "ZPoly":
        return ZPoly(_ztrim([x.scale(c) for x in self.coeffs]))

    def __pow__(self, n: int) -> "ZPoly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = ZPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def derivative_z(self) -> "ZPoly":
        return ZPoly(
            _ztrim([self.coeffs[i].scale(i) for i in range(1, len(self.coeffs))])
        )

    def max_coeff_tdegree(self) -> int:
        """Largest t-degree among z-coefficients; -1 for the zero polynomial."""
        return max((c.degree for c in self.coeffs), default=-1)

    def homogeneous_eval(self, a, b, d: int):
        """The degree-d homogenization at (a, b), both Poly or both ZPoly
        (``binary_form_values`` of this one form)."""
        return binary_form_values((self,), a, b, d)[0]

    def content_poly(self) -> Poly:
        """Monic gcd in Q[t] of all z-coefficients; zero for the zero poly."""
        g = Poly.zero()
        for c in self.coeffs:
            g = poly_gcd(g, c)
            if g.degree == 0:
                break
        return g

    def exact_div_poly(self, p: Poly) -> "ZPoly":
        return ZPoly(_ztrim([c.exact_div(p) for c in self.coeffs]))

    def __str__(self) -> str:
        from .exprs import zpoly_text

        return zpoly_text(self)


def resultant_z(f: ZPoly, g: ZPoly) -> Poly:
    """Resultant in z of two nonzero elements of Q[t][z] (affine convention:
    the degrees are the actual z-degrees a and b, with no homogenization).

    For a >= b, Res(f, g) is the determinant of the (a+b) x (a+b) Sylvester
    matrix: b shifted rows of the z-coefficients of f, highest first, then
    a shifted rows of those of g. For a < b the operands are swapped first,
    which is sympy's convention: it differs from the Sylvester determinant
    of (f, g) by the sign (-1)^(a*b). Let m_f and m_g be the lcm of the
    denominators of the z-coefficients of f and g. The determinant is
    homogeneous of degree b in the coefficients of f and of degree a in
    those of g, so Res(m_f*f, m_g*g) = m_f^b * m_g^a * Res(f, g). The left
    side has entries in Z[t]; the scale is divided back out. Res(f, g) = f^b
    when a = 0 and g^a when b = 0.

    The determinant over Z[t] is taken on packed entries: t -> 2^(8k) is a
    ring map Z[t] -> Z, so it carries the determinant of the matrix to the
    determinant of the packed integers (``_packed_det``), and one
    ``_unpack`` returns it. The slot width k is exact. Every minor of the
    Sylvester matrix takes at most b rows of f and a rows of g, and the l1
    norm of a determinant is at most the product of its rows' l1 norms (it
    is bounded by the permanent of the matrix of entry norms), so each
    coefficient of each minor is at most n_f^b * n_g^a, with n_f and n_g
    the l1 norms of the integer rows of f and g, both >= 1. With 2^(8k-1)
    above that bound, a minor is the balanced base-2^(8k) expansion of its
    image: the image is 0 exactly when the minor is, and the determinant,
    of t-degree at most b*deg_t f + a*deg_t g, unpacks exactly. The
    entries themselves, at most n_f or n_g, fit ``_pack``.
    """
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of zero polynomial")
    a, b = f.degree, g.degree
    if a == 0:
        return f.coeffs[0] ** b
    if b == 0:
        return g.coeffs[0] ** a
    if a < b:
        f, g, a, b = g, f, b, a
    (F, mf), (G, mg) = f.integer_rows, g.integer_rows
    nf = sum(abs(c) for r in F for c in r)
    ng = sum(abs(c) for r in G for c in r)
    k = ((nf**b * ng**a).bit_length() + 8) // 8
    X, Y = [_pack(r, k) for r in reversed(F)], [_pack(r, k) for r in reversed(G)]
    n = a + b
    M = [[0] * n for _ in range(n)]
    for r in range(b):
        M[r][r : r + a + 1] = X
    for r in range(a):
        M[b + r][r : r + b + 1] = Y
    tdeg = b * max(map(len, F)) + a * max(map(len, G)) - n
    return _canon(_unpack(_packed_det(M), k, tdeg + 1), mf**b * mg**a)


def form_resultant(f: ZPoly, g: ZPoly, d: int) -> Poly:
    """Resultant of the degree-d homogenizations of f and g, up to sign:
    ``resultant_z(f, g)`` times lc^(d-b) of the side of z-degree d, with b
    the other side's z-degree (that side's degree-d form is x1^(d-b) times
    its degree-b form, and Res(F, x1) = F(1, 0) = lc up to sign). 1 for
    d = 0; 0 when neither side reaches z-degree d (x1 divides both forms)
    or one side is 0."""
    if any(h.degree > d for h in (f, g)):
        raise DomainError("homogenization degree below z-degree")
    if d == 0:
        return _ONE
    if f.is_zero or g.is_zero:
        return _ZERO
    if f.degree == d:
        corr = f.leading ** (d - g.degree)
    elif g.degree == d:
        corr = g.leading ** (d - f.degree)
    else:
        return _ZERO
    return resultant_z(f, g) * corr


def _packed_det(M: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (von zur Gathen-Gerhard, Section 6.2 and Exercise 6.14).

    After step k every entry (i, j) with i, j > k is the (k+2)-minor of
    rows 0..k, i and columns 0..k, j (Sylvester's identity), so each
    division by the previous pivot is exact; for packed entries it is the
    image of the exact division in Z[t], and the products before it are
    never unpacked. A zero pivot is replaced by a lower row, with a sign
    change; a zero column gives 0.
    """
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            i = next((i for i in range(k + 1, n) if M[i][k]), None)
            if i is None:
                return 0
            M[k], M[i] = M[i], M[k]
            sign = -sign
        pivot, top = M[k][k], M[k]
        for row in M[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * M[n - 1][n - 1]


def binary_form_values(forms: Sequence[ZPoly], a, b, d: int) -> list:
    """The values F(a, b) = sum F_i a^i b^(d-i) of the degree-d
    homogenizations of the forms, at a, b both Poly or both ZPoly.

    One integer kernel serves every form:

    - rational inputs become integers by homogeneity: with a = A/alpha,
      b = B/beta and m = lcm(alpha, beta), F(a, b) = F(A m/alpha,
      B m/beta) / m^d, and each form's coefficients are put over one
      denominator, which divides out at the end;
    - ZPoly arguments are flattened by z -> t^L, a ring map from Q[t][z]
      to Q[t]. With L above the t-degree of every value, deg F + d *
      max(deg_t a, deg_t b), the z-coefficients of a value are the
      length-L slices of its image (``_unflatten``), so a composition is
      one evaluation in Q[t];
    - the powers of A and B and each monomial A^i B^(d-i) are computed
      once, on first use, and shared by the forms: on integer lists, every
      product through ``_int_mul``, or, from d * max(len A, len B) =
      ``_PACKED_MIN_SIZE`` on while every coefficient of A and B has fewer
      than ``_PACKED_MAX_BITS`` bits, on packed integers
      (``_packed_values``);
    - each value, or each z-coefficient of a ZPoly value, is put in
      canonical form once.
    """
    if d < 0:
        raise DomainError("negative homogenization degree")
    if any(len(f.coeffs) > d + 1 for f in forms):
        raise DomainError("homogenization degree below z-degree")
    flat = not isinstance(a, Poly)
    if flat:
        h_forms = max([0] + [f.max_coeff_tdegree() for f in forms])
        L = 1 + h_forms + d * max(0, a.max_coeff_tdegree(), b.max_coeff_tdegree())
        (A, alpha), (B, beta) = _flatten(a, L), _flatten(b, L)
    else:
        A, alpha, B, beta = a.ints, a.den, b.ints, b.den
    m = alpha if alpha == beta else lcm(alpha, beta)
    if m != alpha:
        A = [c * (m // alpha) for c in A]
    if m != beta:
        B = [c * (m // beta) for c in B]
    md = m**d
    if (d * max(len(A), len(B)) >= _PACKED_MIN_SIZE
            and max(map(abs, chain(A, B))).bit_length() < _PACKED_MAX_BITS):
        rows = [f.integer_rows for f in forms]
        return [_unflatten(acc, L, den * md) if flat else _canon(acc, den * md)
                for acc, (_, den) in zip(_packed_values(rows, A, B, d), rows)]
    pa, pb = [[1], A], [[1], B]  # the powers of A and B computed so far
    mons: dict[int, list[int]] = {}
    values = []
    for f in forms:
        rows, den = f.integer_rows
        acc: list[int] = []
        for i, ci in enumerate(rows):
            # A^i B^(d-i) = 0 when A = 0 and i > 0, or B = 0 and i < d
            if not ci or (i and not A) or (i < d and not B):
                continue
            mon = mons.get(i)
            if mon is None:
                while len(pa) <= i:
                    pa.append(_int_mul(pa[-1], A))
                while len(pb) <= d - i:
                    pb.append(_int_mul(pb[-1], B))
                mon = pa[i] if i == d else pb[d] if i == 0 else _int_mul(pa[i], pb[d - i])
                mons[i] = mon
            term = _int_mul(ci, mon)
            if len(acc) < len(term):
                acc.extend([0] * (len(term) - len(acc)))
            acc[: len(term)] = map(add, acc, term)
        den *= md
        values.append(_unflatten(acc, L, den) if flat else _canon(acc, den))
    return values


def _packed_values(rows, A: Sequence[int], B: Sequence[int], d: int) -> list[list[int]]:
    """sum c_i A^i B^(d-i) in Z[t] for the integer rows c of each form, by
    Kronecker substitution t -> 2^(8k) on the whole expression: a ring map
    Z[t] -> Z, so each value is sum_ij c_ij (X^i Y^(d-i) << 8kj) with
    X = A(2^(8k)) and Y = B(2^(8k)), packed once, and one ``_unpack``
    returns it.

    The slot width k is exact: the l1 norm is submultiplicative, so every
    coefficient of a value is at most its l1 norm, and that is at most
    sum_i |c_i|_1 |A|_1^i |B|_1^(d-i). Taking 2^(8k-1) above that bound and
    above |A|_1 and |B|_1 (so that both pack, a form that leaves one
    operand's powers unused included), each value unpacks into its balanced
    base-2^(8k) digits, and every A_i and B_i fits a slot.
    """
    terms = [[(i, ci) for i, ci in enumerate(form) if ci and (A or not i) and (B or i == d)]
             for form, _ in rows]
    na, nb = sum(map(abs, A)), sum(map(abs, B))
    bound = max(na, nb, *(sum(sum(map(abs, ci)) * na**i * nb ** (d - i) for i, ci in form)
                          for form in terms))
    k = (bound.bit_length() + 8) // 8
    s = 8 * k
    px, py = [1, _pack(A, k)], [1, _pack(B, k)]
    la, lb = len(A) - 1, len(B) - 1
    mons: dict[int, int] = {}
    accs = []
    for form in terms:
        acc = n = 0
        for i, ci in form:
            mon = mons.get(i)
            if mon is None:
                while len(px) <= i:
                    px.append(px[-1] * px[1])
                while len(py) <= d - i:
                    py.append(py[-1] * py[1])
                mon = mons[i] = px[i] * py[d - i]
            for j, c in enumerate(ci):
                if c:
                    acc += c * (mon << s * j)
            n = max(n, len(ci) + i * la + (d - i) * lb)
        accs.append(_unpack(acc, k, n) if n else [])
    return accs


def _flatten(f: ZPoly, L: int) -> tuple[list[int], int]:
    """(the integer numerator, the denominator) of f(t, t^L) in Q[t], for L
    above the t-degree of every z-coefficient of f."""
    rows, den = f.integer_rows
    out = [0] * (L * len(rows))
    for k, row in enumerate(rows):
        out[k * L : k * L + len(row)] = row
    while out and not out[-1]:
        out.pop()
    return out, den


def _unflatten(acc: Sequence[int], L: int, den: int) -> ZPoly:
    """The ZPoly whose image under z -> t^L is acc/den, for L above the
    t-degree of its every z-coefficient: the length-L slices of acc, each
    put in canonical form once."""
    return ZPoly(_ztrim([_canon(acc[k : k + L], den) for k in range(0, len(acc), L)]))

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
it is computed on each access, for printing and sort keys, and the kernels
never use it.

Kernels, all on the integer numerators:

- multiply: the schoolbook product below a crossover, Kronecker substitution
  above it (Harvey, "Faster polynomial multiplication via multipoint
  Kronecker substitution", JSC 2009: pack each operand into one integer,
  multiply once, unpack). The choice depends on the shorter operand's
  length alone; see ``_KRONECKER_MIN_LEN`` for the measurement.
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
  Q[t], so the monic gcd is unchanged. No sympy is imported here.
- content, primitive part and monic associate: one pass each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .errors import DomainError

# Shortest operand length (number of coefficients) from which a product runs
# through Kronecker substitution. Measured on Python 3.11 (2-core Xeon VM),
# min of five timings per cell, balanced operands with random signed
# coefficients, Kronecker time / schoolbook time:
#   bits    8: n=12 1.47, n=16 1.07, n=20 0.74, n=24 0.58
#   bits   64: n=12 1.09, n=16 0.76, n=20 0.68, n=24 0.57
#   bits  700: n=12 1.48, n=16 1.17, n=20 0.62, n=24 1.06, n=32 0.81
#   bits 1500: n=12 1.09, n=16 1.07, n=20 0.99, n=24 0.91, n=32 0.79
# Squares cross over a little earlier (n=16: 0.60-1.16). Against a length-256
# operand of 1000 bits, a 1000-bit operand of length m gives 1.15 at m=16
# and 0.61 at m=32. Map coefficients and base points (a few coefficients)
# stay on the schoolbook side; deep orbit iterates (hundreds of
# coefficients) go through Kronecker.
_KRONECKER_MIN_LEN = 20


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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pack(p: Sequence[int], k: int) -> int:
    """p(2^(8k)) for |p[i]| < 2^(8k), in linear time: p packs as (positive
    part) - (negative part), two byte strings of non-negative k-byte slots."""
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


def _int_exact_quotient(a: Sequence[int], p: Sequence[int]) -> Optional[list[int]]:
    """a / p in Z[t] for nonzero a and primitive p, or None if p does not
    divide a. The early exits are sound by Gauss's lemma (module docstring)."""
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


@dataclass(frozen=True, slots=True)
class Poly:
    """Univariate polynomial in t over Q: integer numerators lowest degree
    first over one positive denominator, in canonical form (module
    docstring)."""

    ints: tuple[int, ...]
    den: int = 1

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
        if min(len(a), len(b)) >= _KRONECKER_MIN_LEN:
            out = _kronecker(a, b)
        else:
            out = _schoolbook(a, b)
        return _canon(out, self.den * other.den)

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

    def drop_low(self, k: int) -> "Poly":
        """Quotient by t**k: the coefficients of t^k and above, moved down."""
        if k < 0:
            raise DomainError("negative shift")
        return _canon(self.ints[k:], self.den) if k else self

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
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

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coprime; 0 for zero."""
        return rational_content((self,))

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
    return sum(_pack(f[j::r], r * k) << (8 * k * j) for j in range(r))


def _gcd_degree_mod_p(f: Sequence[int], g: Sequence[int]) -> Optional[int]:
    """deg gcd(f mod p, g mod p) for the first p in _WORD_PRIMES that does
    not divide both leading coefficients: an upper bound for deg gcd(f, g)
    (``_heuristic_gcd``). None if every listed prime divides both."""
    for p in _WORD_PRIMES:
        if f[-1] % p or g[-1] % p:
            break
    else:
        return None
    a, b = _trim_mod(f, p), _trim_mod(g, p)
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[-1], -1, p)
        m = len(b) - 1
        for i in range(len(a) - 1 - m, -1, -1):
            c = a[i + m] * inv % p
            if c:
                a[i : i + m] = [(x - c * y) % p for x, y in zip(a[i : i + m], b)]
        a, b = b, _trim_mod(a[:m], p)
    return len(a) - 1


def _trim_mod(f: Sequence[int], p: int) -> list[int]:
    out = [c % p for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of primitive a, b in Z[t] by the primitive PRS: Euclid with each
    remainder replaced by its primitive part, an associate of the
    pseudo-remainder."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, (a % b).primitive()
    return a


def clear_denominators(ps: Sequence[Poly]) -> list[Poly]:
    """The ps times the lcm of their denominators: integral polynomials with
    the same ratios, hence the same point of projective space."""
    m = lcm(*(p.den for p in ps))
    if m == 1:
        return list(ps)
    return [Poly(tuple(c * (m // p.den) for c in p.ints), 1) for p in ps]


# ---------------------------------------------------------------------------
# Polynomials in z with k[t] coefficients
# ---------------------------------------------------------------------------


def _ztrim(coeffs: Sequence[Poly]) -> tuple[Poly, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class ZPoly:
    """Polynomial in z over Q[t], z-coefficients lowest degree first."""

    coeffs: tuple[Poly, ...]

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

    @staticmethod
    def const(p: Poly) -> "ZPoly":
        return ZPoly(_ztrim([p]))

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPoly(())
        out = [Poly.zero()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca.is_zero:
                for j, cb in enumerate(b):
                    if not cb.is_zero:
                        out[i + j] = out[i + j] + ca * cb
        return ZPoly(_ztrim(out))

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

    def homogeneous_eval(self, mons: "BinaryMonomials"):
        """Evaluate the degree-d homogenization at (a, b), where
        mons = BinaryMonomials(a, b, d)."""
        if mons.d < self.degree:
            raise DomainError("homogenization degree below z-degree")
        acc = None
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                m = mons[i]
                term = m * c if isinstance(m, Poly) else m.scale_poly(c)
                acc = term if acc is None else acc + term
        return mons.zero if acc is None else acc

    def content_poly(self) -> Poly:
        """Monic gcd in Q[t] of all z-coefficients; zero for the zero poly."""
        g = Poly.zero()
        for c in self.coeffs:
            g = poly_gcd(g, c)
            if g.degree == 0:
                break
        return g

    def rational_content(self) -> Fraction:
        return rational_content(self.coeffs)

    def exact_div_poly(self, p: Poly) -> "ZPoly":
        return ZPoly(_ztrim([c.exact_div(p) for c in self.coeffs]))

    def __str__(self) -> str:
        from .exprs import zpoly_text

        return zpoly_text(self)


class BinaryMonomials:
    """The monomials a^i * b^(d-i), i = 0..d, of a binary form of degree d
    at (a, b), for a, b both Poly or both ZPoly.

    Each monomial and each power is computed on first use and kept, so the
    numerator and denominator of a map, evaluated at one point, share their
    products, and a monomial no form uses is never computed.
    """

    def __init__(self, a, b, d: int):
        if d < 0:
            raise DomainError("negative homogenization degree")
        one = Poly.one() if isinstance(a, Poly) else ZPoly.one()
        self.d = d
        self.zero = Poly.zero() if isinstance(a, Poly) else ZPoly.zero()
        self._pows = ([one, a], [one, b])
        self._mons: dict[int, object] = {}

    def _pow(self, k: int, e: int):
        pows = self._pows[k]
        while len(pows) <= e:
            pows.append(pows[-1] * pows[1])
        return pows[e]

    def __getitem__(self, i: int):
        m = self._mons.get(i)
        if m is None:
            j = self.d - i
            if j == 0:
                m = self._pow(0, i)
            elif i == 0:
                m = self._pow(1, j)
            else:
                m = self._pow(0, i) * self._pow(1, j)
            self._mons[i] = m
        return m

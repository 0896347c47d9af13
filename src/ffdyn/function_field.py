"""Exact arithmetic in K = Q(t): elements, places, valuations, heights.

Places are the monic irreducible polynomials of Q[t] plus the place at
infinity, weighted by degree (1 for infinity). All "log" quantities are
exact integers via log|x|_v = -ord_v(x) * deg(v); the product formula
sum_v ord_v(x) * deg(v) = 0 then holds on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Optional

from .errors import DomainError
from .polynomials import Poly, poly_gcd
from .sympybridge import factor_tpoly, is_irreducible_tpoly


@dataclass(frozen=True)
class FieldElement:
    """Element of Q(t) as a reduced fraction num/den with den monic."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "FieldElement":
        if den.is_zero:
            raise DomainError("denominator is zero")
        if num.is_zero:
            return FieldElement(Poly.zero(), Poly.one())
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.leading
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return FieldElement(num, den)

    @staticmethod
    def from_poly(p: Poly) -> "FieldElement":
        return FieldElement(p, Poly.one())

    @staticmethod
    def from_rational(c) -> "FieldElement":
        return FieldElement(Poly.constant(Fraction(c)), Poly.one())

    @staticmethod
    def zero() -> "FieldElement":
        return FieldElement(Poly.zero(), Poly.one())

    @staticmethod
    def one() -> "FieldElement":
        return FieldElement(Poly.one(), Poly.one())

    @staticmethod
    def t() -> "FieldElement":
        return FieldElement(Poly.t(), Poly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.num, self.den)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if other.is_zero:
            raise ZeroDivisionError("division by zero field element")
        return FieldElement.make(self.num * other.den, self.den * other.num)

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement.make(self.den, self.num)

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        return FieldElement.make(self.num**n, self.den**n)

    def __str__(self) -> str:
        from .exprs import field_elem_text

        return field_elem_text(self)


@dataclass(frozen=True)
class Place:
    """A place of Q(t): a monic irreducible polynomial, or infinity (poly None)."""

    poly: Optional[Poly]

    @staticmethod
    def finite(poly: Poly) -> "Place":
        if not poly.is_monic or poly.degree < 1:
            raise DomainError("finite place requires a monic nonconstant polynomial")
        if not is_irreducible_tpoly(poly):
            raise DomainError("finite place polynomial must be irreducible over Q")
        return Place(poly)

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __str__(self) -> str:
        from .exprs import place_text

        return place_text(self)


PlaceSet = FrozenSet[Place]


def place_set(places: Iterable[Place]) -> PlaceSet:
    return frozenset(places)


def poly_ord(p: Poly, pi: Poly) -> int:
    """Multiplicity of the irreducible pi in nonzero p (by trial division)."""
    if p.is_zero:
        raise DomainError("valuation of zero undefined")
    # pi = t: the multiplicity is the run of low zero coefficients
    if pi == Poly.t():
        e = 0
        while p.coeff(e) == 0:
            e += 1
        return e
    e = 0
    while True:
        q = p.exact_quotient(pi)
        if q is None:
            return e
        p = q
        e += 1


def ord_at(x: FieldElement, v: Place) -> int:
    """ord_v(x) for nonzero x; infinity uses deg(den) - deg(num)."""
    if x.is_zero:
        raise DomainError("valuation of zero undefined")
    if v.is_infinite:
        return x.den.degree - x.num.degree
    return poly_ord(x.num, v.poly) - poly_ord(x.den, v.poly)


def log_abs(x: FieldElement, v: Place) -> int:
    """log|x|_v = -ord_v(x) * deg(v), an exact integer."""
    return -ord_at(x, v) * v.degree


def support(x: FieldElement) -> list[Place]:
    """All finite places in the support of nonzero x (num and den factors)."""
    if x.is_zero:
        raise DomainError("support of zero undefined")
    places = []
    seen = set()
    for p in (x.num, x.den):
        if p.degree > 0:
            _, factors = factor_tpoly(p)
            for q, _ in factors:
                if q not in seen:
                    seen.add(q)
                    places.append(Place(q))
    return places


def height_elem(x: FieldElement) -> int:
    """Naive logarithmic height of x, equal to max(deg num, deg den); h(0) = 0."""
    if x.is_zero:
        return 0
    return max(x.num.degree, x.den.degree)


def height_elem_place_sum(x: FieldElement) -> int:
    """Height as sum over places of max(log|x|_v, 0) (independent route)."""
    if x.is_zero:
        return 0
    total = max(log_abs(x, Place.infinity()), 0)
    for v in support(x):
        total += max(log_abs(x, v), 0)
    return total


def product_formula_defect(x: FieldElement) -> int:
    """sum_v ord_v(x) * deg(v) over the full support plus infinity; always 0."""
    if x.is_zero:
        raise DomainError("valuation of zero undefined")
    total = ord_at(x, Place.infinity())
    for v in support(x):
        total += ord_at(x, v) * v.degree
    return total


def _strip_finite_places(p: Poly, S: PlaceSet) -> Poly:
    for v in S:
        if not v.is_infinite and not p.is_zero:
            e = poly_ord(p, v.poly)
            if e:
                p = p.exact_div(v.poly**e)
    return p


def is_S_integer(x: FieldElement, S: PlaceSet) -> bool:
    """True iff ord_v(x) >= 0 at every place outside S (0 is an S-integer)."""
    if x.is_zero:
        return True
    den = _strip_finite_places(x.den, S)
    if den.degree > 0:
        return False
    if Place.infinity() not in S and x.num.degree > x.den.degree:
        return False
    return True


def is_S_unit(x: FieldElement, S: PlaceSet) -> bool:
    """True iff x != 0 and ord_v(x) = 0 at every place outside S."""
    if x.is_zero:
        return False
    num = _strip_finite_places(x.num, S)
    den = _strip_finite_places(x.den, S)
    if num.degree > 0 or den.degree > 0:
        return False
    if Place.infinity() not in S and x.num.degree != x.den.degree:
        return False
    return True


def quasi_integral(x: FieldElement, S: PlaceSet, eps: Fraction) -> bool:
    """Quasi-(S, eps)-integrality: the S-part of the height is at least
    an eps fraction of the total height (exact rational comparison)."""
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise DomainError("eps must lie in (0, 1]")
    if x.is_zero:
        return True
    s_part = sum(max(log_abs(x, v), 0) for v in S)
    return s_part >= eps * height_elem(x)

"""Exact arithmetic in K = Q(t): elements, places, valuations, heights.

Places are the monic irreducible polynomials of Q[t] plus the place at
infinity, weighted by degree (1 for infinity). All "log" quantities are
exact integers via log|x|_v = -ord_v(x) * deg(v); the product formula
sum_v ord_v(x) * deg(v) = 0 then holds on the nose.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, Optional

from .errors import DomainError, Value, set_field
from .polynomials import Poly, factor_tpoly, is_irreducible_tpoly, poly_gcd


class FieldElement(Value):
    """Element of Q(t) as a reduced fraction num/den with den monic."""

    __match_args__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        set_field(self, "num", num)
        set_field(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

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
        return FieldElement.reduced(num, den)

    @staticmethod
    def reduced(num: Poly, den: Poly) -> "FieldElement":
        """num/den for coprime num and nonzero den: only makes den monic."""
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
        return FieldElement.reduced(self.den, self.num)

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime num, den stay coprime and a power of a monic den
        # is monic, so the result is already reduced
        return FieldElement(self.num**n, self.den**n)

    def __str__(self) -> str:
        from .exprs import field_elem_text

        return field_elem_text(self)


class Place(Value):
    """A place of Q(t): a monic irreducible polynomial, or infinity (poly None)."""

    __match_args__ = ("poly",)

    def __init__(self, poly: Optional[Poly]):
        set_field(self, "poly", poly)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash((self.poly,))

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


def _split_place(p: Poly, pi: Poly) -> tuple[int, Poly]:
    """(e, p / pi^e) for nonzero p, with e the multiplicity of the
    irreducible pi in p (by trial division)."""
    if p.is_zero:
        raise DomainError("valuation of zero undefined")
    e = 0
    # pi = t: the multiplicity is the run of low zero coefficients
    if pi == Poly.t():
        while p.coeff(e) == 0:
            e += 1
        return e, p.drop_low(e)
    while True:
        q = p.exact_quotient(pi)
        if q is None:
            return e, p
        p = q
        e += 1


def poly_ord(p: Poly, pi: Poly) -> int:
    """Multiplicity of the irreducible pi in nonzero p (by trial division)."""
    return _split_place(p, pi)[0]


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
    # num and den are coprime, so no factor repeats
    return [
        Place(q)
        for p in (x.num, x.den)
        if p.degree > 0
        for q, _ in factor_tpoly(p)[1]
    ]


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


def _split_places(p: Poly, S: PlaceSet) -> tuple[Poly, list[int]]:
    """(p / prod_v pi_v^e_v, [e_v]) for nonzero p, with e_v the
    multiplicity of pi_v in p (`_split_place`), over the finite places v
    of S in the iteration order of S."""
    es = []
    for v in S:
        if not v.is_infinite:
            e, p = _split_place(p, v.poly)
            es.append(e)
    return p, es


def s_split(x: FieldElement, S: PlaceSet) -> tuple[tuple[Poly, Poly, int], list[int]]:
    """(a, b, o) of ``s_free_part`` and the list of ord_v(x) over the
    finite places v of S, in the iteration order of S, for nonzero x.

    One trial-division pass over x.num and x.den finds both: ord_v(x) is
    the multiplicity of pi_v in x.num minus that in x.den, and the
    quotients left are a and b."""
    if x.is_zero:
        raise DomainError("valuation of zero undefined")
    a, ea = _split_places(x.num, S)
    b, eb = _split_places(x.den, S)
    o = 0 if Place.infinity() in S else x.den.degree - x.num.degree
    # x.den is monic, and so is its quotient by monic place polynomials
    return (a.monic(), b, o), [i - j for i, j in zip(ea, eb)]


def s_free_part(x: FieldElement, S: PlaceSet) -> tuple[Poly, Poly, int]:
    """(a, b, o) for nonzero x: a and b are x's numerator and denominator
    made monic with every finite place of S divided out, and o = ord_inf(x),
    or 0 when infinity lies in S; the first half of ``s_split``.

    a and b are coprime, so the triple holds ord_v(x) at every place v
    outside S and nothing else: two nonzero elements have equal triples
    exactly when their quotient is an S-unit."""
    return s_split(x, S)[0]


def is_S_integer(x: FieldElement, S: PlaceSet) -> bool:
    """True iff ord_v(x) >= 0 at every place outside S (0 is an S-integer):
    ord_inf(x) >= 0 unless infinity lies in S, and the denominator of
    ``s_free_part`` is constant. The numerator's part is not needed."""
    if x.is_zero:
        return True
    if Place.infinity() not in S and x.den.degree < x.num.degree:
        return False
    return _split_places(x.den, S)[0].is_constant


def is_S_unit(x: FieldElement, S: PlaceSet) -> bool:
    """True iff x != 0 and ord_v(x) = 0 at every place outside S."""
    return not x.is_zero and s_free_part(x, S) == (Poly.one(), Poly.one(), 0)

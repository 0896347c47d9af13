"""Rational self-maps of P^1 over K = Q(t) and points of P^1(K).

Maps are stored in normalized form: numerator and denominator coprime in
K[z], joint k[t]-content removed, and the joint leading rational constant
positive, so equal maps have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import DomainError, Value, set_field
from .function_field import FieldElement, Place, PlaceSet
from .polynomials import (
    Poly,
    ZPoly,
    binary_form_values,
    factor_tpoly,
    form_resultant,
    poly_gcd,
    primitive_pair,
    rational_content,
)
from .sympybridge import factor_zpoly_over_k, sqf_zpoly_over_k, zpoly_gcd_over_k

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


class ProjectivePoint(Value):
    """Point of P^1(K) with coprime polynomial coordinates [x0 : x1].

    In the normal form of ``primitive_pair``: integer coefficients of gcd 1,
    and a positive leading coefficient on x1, or on x0 at infinity. So equal
    points compare equal, and the height is max(deg x0, deg x1).
    """

    __match_args__ = ("x0", "x1")

    def __init__(self, x0: Poly, x1: Poly):
        set_field(self, "x0", x0)
        set_field(self, "x1", x1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x0 == other.x0 and self.x1 == other.x1

    def __hash__(self):
        return hash((self.x0, self.x1))

    @staticmethod
    def make(x0: Poly, x1: Poly) -> "ProjectivePoint":
        if x0.is_zero and x1.is_zero:
            raise DomainError("illegal point [0:0]")
        g = poly_gcd(x0, x1)
        return ProjectivePoint(*primitive_pair(x0.exact_div(g), x1.exact_div(g)))

    @staticmethod
    def from_field(x: FieldElement) -> "ProjectivePoint":
        return ProjectivePoint(*primitive_pair(x.num, x.den))

    @staticmethod
    def infinity() -> "ProjectivePoint":
        return ProjectivePoint(Poly.one(), Poly.zero())

    @staticmethod
    def zero() -> "ProjectivePoint":
        return ProjectivePoint(Poly.zero(), Poly.one())

    @property
    def is_infinite(self) -> bool:
        return self.x1.is_zero

    def affine(self) -> Optional[FieldElement]:
        """Affine coordinate, or None for the point at infinity. The
        coordinates are coprime, so x0/x1 needs no gcd, only a monic x1."""
        if self.is_infinite:
            return None
        return FieldElement.reduced(self.x0, self.x1)

    @property
    def height(self) -> int:
        return max(self.x0.degree, self.x1.degree)

    def __str__(self) -> str:
        from .exprs import point_text

        return point_text(self)


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


class RationalMap(Value):
    """Normalized rational map F(z)/G(z) of degree d = max(deg F, deg G)."""

    __match_args__ = ("F", "G", "d")

    def __init__(self, F: ZPoly, G: ZPoly, d: int):
        set_field(self, "F", F)
        set_field(self, "G", G)
        set_field(self, "d", d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and self.F == other.F and self.G == other.G

    def __hash__(self):
        return hash((self.F, self.G, self.d))

    @property
    def is_polynomial(self) -> bool:
        """Polynomial as a map of K: denominator constant in z."""
        return self.G.degree == 0

    def coefficient_height(self) -> int:
        """Height of the map: max t-degree over all coefficients of F, G."""
        return max(self.F.max_coeff_tdegree(), self.G.max_coeff_tdegree(), 0)

    def g_top(self) -> Poly:
        """Coefficient of z^d in the degree-d homogenization of G."""
        return self.G.coeff(self.d)

    def __str__(self) -> str:
        from .exprs import map_text

        return map_text(self)


# Integers t0 at which ``coprime_by_specialization`` tries F(t0, z).
_SPECIALIZATION_POINTS = (1, -1, 2, -2, 3)


def _specialize(f: ZPoly, t0: int) -> Poly:
    """f(t0, z) in Q[z] times the lcm of the denominators of f, as a Poly in
    the variable z; the positive factor changes neither degree nor gcd."""
    values = []
    for row in f.integer_rows[0]:
        v = 0
        for c in reversed(row):
            v = v * t0 + c
        values.append(v)
    while values and not values[-1]:
        values.pop()
    return Poly(tuple(values), 1)


def coprime_by_specialization(F: ZPoly, G: ZPoly) -> bool:
    """True only if F and G (F nonzero) are coprime in K[z]; False means
    undecided.

    The certificate: an integer t0 with lc_z(F)(t0) != 0 and
    gcd(F(t0, z), G(t0, z)) = 1 in Q[z]. Proof: suppose F and G share a
    factor of positive z-degree in K[z]. Its primitive associate h in
    Q[t][z] divides F and G in Q[t][z] by Gauss's lemma over Q[t], and
    lc_z(h) divides lc_z(F), so lc_z(h)(t0) != 0 and h(t0, z) keeps the
    z-degree of h. Setting t = t0 is a ring map Q[t][z] -> Q[z], so h(t0, z)
    divides F(t0, z) and G(t0, z), and their gcd has positive degree.

    The points of ``_SPECIALIZATION_POINTS`` are tried in turn: at a root of
    lc_z(F), or of the resultant of F and G, the specializations say
    nothing."""
    for t0 in _SPECIALIZATION_POINTS:
        f = _specialize(F, t0)
        if f.degree == F.degree and poly_gcd(f, _specialize(G, t0)).degree == 0:
            return True
    return False


def _is_monomial(f: ZPoly) -> bool:
    """Whether the nonzero f is c*z^k, one term in z."""
    return all(c.is_zero for c in f.coeffs[:-1])


def _z_order(f: ZPoly) -> int:
    """Largest k with z^k dividing the nonzero f."""
    return next(k for k, c in enumerate(f.coeffs) if not c.is_zero)


def normalize_map(Fraw: ZPoly, Graw: ZPoly) -> RationalMap:
    """Bring a fraction of z-polynomials over K into normalized form.

    A zero side makes a constant map, 0/1 or 1/0, of degree 0. Otherwise a
    common power of z is divided out first, when z divides both sides.

    Then a side with one term c*z^k (c nonzero in Q[t]) needs no gcd: c is a
    unit of K[z], so a common factor of F and G divides z^k. If k = 0 there
    is none; if k > 0 the other side has a nonzero z^0 coefficient, since z
    no longer divides both, so it is prime to z^k. Otherwise the K[z] gcd
    is computed only if ``coprime_by_specialization`` cannot certify that F
    and G are coprime."""
    if Fraw.is_zero and Graw.is_zero:
        raise DomainError("numerator and denominator both zero")
    F, G = Fraw, Graw
    if F.is_zero:
        G = ZPoly.one()
    elif G.is_zero:
        F = ZPoly.one()
    else:
        if F.coeffs[0].is_zero and G.coeffs[0].is_zero:
            k = min(_z_order(F), _z_order(G))
            F, G = ZPoly(F.coeffs[k:]), ZPoly(G.coeffs[k:])
        if not (_is_monomial(F) or _is_monomial(G) or coprime_by_specialization(F, G)):
            _, F, G = zpoly_gcd_over_k(F, G)
    return _normalize_coprime(F, G)


def _normalize_coprime(F: ZPoly, G: ZPoly) -> RationalMap:
    """Normalized form of F/G for F, G coprime in K[z], not both zero."""
    coeffs = F.coeffs + G.coeffs
    # joint k[t] content, 1 when some coefficient is a nonzero constant
    if not any(c.degree == 0 for c in coeffs):
        cp = poly_gcd(F.content_poly(), G.content_poly())
        if cp.degree > 0:
            F = F.exact_div_poly(cp)
            G = G.exact_div_poly(cp)
            coeffs = F.coeffs + G.coeffs
    # joint rational content with positive leading constant
    content = rational_content(coeffs)
    if (F if not F.is_zero else G).leading.ints[-1] < 0:
        content = -content
    if content != 1:
        F = F.scale(1 / content)
        G = G.scale(1 / content)
    d = max(F.degree, G.degree)
    return RationalMap(F, G, d)


def require_dynamical(phi: RationalMap) -> None:
    if phi.d < 2:
        raise DomainError("dynamical operation requires a map of degree >= 2")


# ---------------------------------------------------------------------------
# Resultant and reduction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def resultant(phi: RationalMap) -> Poly:
    """Res_z of the degree-d homogenizations of F and G (``form_resultant``;
    a side of z-degree d exists since d = max(deg F, deg G)); nonzero in
    k[t], normalized primitive with positive leading coefficient."""
    if phi.F.is_zero or phi.G.is_zero:
        raise DomainError("resultant of zero polynomial")
    det = form_resultant(phi.F, phi.G, phi.d)
    if det.is_zero:
        raise DomainError("zero resultant: numerator and denominator share a root")
    return det.primitive()


def bad_reduction_places(phi: RationalMap) -> PlaceSet:
    """Finite places dividing the resultant of the normalized model."""
    _, factors = factor_tpoly(resultant(phi))
    return frozenset(Place(q) for q, _ in factors)


def common_factor(a: Poly, b: Poly, res: Poly) -> Poly:
    """Monic gcd(a mod res, b mod res, res) = gcd(a, b, res) for nonzero res:
    gcd(a, b) whenever that divides res, as for the values of a map at
    coprime coordinates and res its resultant. The gcds run on remainders
    of degree below deg res; b is reduced only if a and res share a factor."""
    if res.is_constant:
        return Poly.one()
    g = poly_gcd(a % res, res)
    return poly_gcd(b % res, g) if g.degree > 0 else g


# ---------------------------------------------------------------------------
# Evaluation and iteration
# ---------------------------------------------------------------------------


def apply_map(phi: RationalMap, P: ProjectivePoint) -> ProjectivePoint:
    """Evaluate phi at P with projective re-normalization.

    The coordinates of P and the coefficients of F and G are integers, so
    every product runs on integers. F and G share the powers and monomials
    x0^i * x1^(d-i) (``binary_form_values``).

    Any common factor of the evaluated pair divides the resultant, so it is
    common_factor(A, B, Res): a gcd of remainders of degree below deg Res,
    much cheaper than a gcd of A and B at large orbit heights.
    """
    A, B = binary_form_values((phi.F, phi.G), P.x0, P.x1, phi.d)
    if B.is_zero:
        return ProjectivePoint.infinity()
    if A.is_zero:
        return ProjectivePoint.zero()
    g = common_factor(A, B, resultant(phi))
    if g.degree > 0:
        A, B = A.exact_div(g), B.exact_div(g)
    return ProjectivePoint(*primitive_pair(A, B))


def compose(phi: RationalMap, psi: RationalMap) -> RationalMap:
    """phi o psi; degrees multiply.

    No K[z] gcd is needed. The degree-d homogenizations F, G of a
    normalized map are coprime binary forms: F and G are coprime in K[z],
    and the one of degree d is not divisible by the second variable. Let
    P, Q be the coprime forms of psi. Over an algebraic closure, a common
    zero (x : y) of F(P, Q) and G(P, Q) would make (P(x, y), Q(x, y))
    either (0, 0), a common zero of P and Q, or a common zero of F and G.
    So the composed forms are coprime, and so are their dehomogenizations.
    Every RationalMap comes from ``normalize_map`` or ``identity_map`` and
    is normalized."""
    if phi.d < 1 or psi.d < 1:
        raise DomainError("composition requires degrees >= 1")
    out = _normalize_coprime(*binary_form_values((phi.F, phi.G), psi.F, psi.G, phi.d))
    if out.d != phi.d * psi.d:
        raise DomainError("degenerate composition: degree dropped")
    return out


def identity_map() -> RationalMap:
    return RationalMap(ZPoly.z(), ZPoly.one(), 1)


@lru_cache(maxsize=256)
def power(phi: RationalMap, n: int) -> RationalMap:
    """n-fold self-composition, phi composed onto the cached phi^(n-1)."""
    if n < 0:
        raise DomainError("negative iterate")
    if n == 0:
        return identity_map()
    return phi if n == 1 else compose(phi, power(phi, n - 1))


# ---------------------------------------------------------------------------
# Fibers and ramification
# ---------------------------------------------------------------------------


class FiberDecomposition(NamedTuple):
    """Fiber of a map over a point, as K[z]-irreducibles with multiplicities
    plus the multiplicity at infinity; degree-weighted multiplicities sum to d.
    """

    factors: tuple[tuple[ZPoly, int], ...]
    infinity_multiplicity: int

    def degree_sum(self) -> int:
        return (
            sum(f.degree * m for f, m in self.factors) + self.infinity_multiplicity
        )


def fiber_polynomial(phi: RationalMap, A: ProjectivePoint) -> ZPoly:
    """a1*F - a0*G for A = [a0 : a1]; its roots are the finite fiber points."""
    W = phi.F.scale_poly(A.x1) - phi.G.scale_poly(A.x0)
    if W.is_zero:
        raise DomainError("degenerate fiber: map is constant")
    return W


def fiber(phi: RationalMap, A: ProjectivePoint) -> FiberDecomposition:
    if phi.d < 1:
        raise DomainError("fiber requires degree >= 1")
    W = fiber_polynomial(phi, A)
    factors = tuple(factor_zpoly_over_k(W))
    fd = FiberDecomposition(factors, phi.d - W.degree)
    assert fd.degree_sum() == phi.d
    return fd


def ramification_index(phi: RationalMap, P: ProjectivePoint) -> int:
    """Vanishing order e_P(phi) of phi(z) - phi(P) at P (>= 1): at infinity
    d - deg W for the fiber polynomial W over phi(P); at P = [x0 : x1]
    finite, the multiplicity of the root x0/x1 of W, which is the z-order
    of x1^n W(x0/x1 + z) = sum W_i (x0 + x1 z)^i x1^(n-i), n = deg W, one
    binary-form evaluation at (x0 + x1 z, x1)."""
    if phi.d < 1:
        raise DomainError("ramification requires degree >= 1")
    A = apply_map(phi, P)
    W = fiber_polynomial(phi, A)
    if P.is_infinite:
        return phi.d - W.degree
    shifted = W.homogeneous_eval(ZPoly((P.x0, P.x1)), ZPoly((P.x1,)), W.degree)
    e = _z_order(shifted)
    assert e >= 1
    return e


def max_fiber_ram(phi: RationalMap, m: int, A: ProjectivePoint) -> int:
    """Largest ramification index in the fiber of phi^m over A. phi^m is not
    built: its fiber polynomial is W = a1*F(P, Q) - a0*G(P, Q) for the forms
    [P : Q] of phi^(m-1), up to the factor in K that ``compose`` divides out,
    which moves no multiplicity or degree; infinity has d^m - deg W."""
    require_dynamical(phi)
    W = fiber_polynomial(phi, A)
    if m > 1:
        psi = power(phi, m - 1)
        W = W.homogeneous_eval(psi.F, psi.G, phi.d)
    if W.degree > 0 and coprime_by_specialization(W, W.derivative_z()):
        # W is squarefree over K (characteristic 0): one part, multiplicity 1
        mults = [1]
    else:
        mults = [mult for _, mult in sqf_zpoly_over_k(W)]
    inf_mult = phi.d**m - W.degree
    if inf_mult > 0:
        mults.append(inf_mult)
    return max(mults)


def _pure_linear_power_root(W: ZPoly, d: int) -> Optional[FieldElement]:
    """Root g with W = c*(z - g)^d, or None if W is not such a power.

    Decided by the identity in Q[t][z]

        (d W_d)^d * W = W_d * (d W_d z + W_(d-1))^d.

    If W = c (z - h)^d with c, h in K, then W_d = c and W_(d-1) = -d c h,
    so h = -W_(d-1)/(d W_d) and d W_d z + W_(d-1) = d W_d (z - h): the
    right side is W_d (d W_d)^d (z - h)^d, the left side. Conversely, if
    the identity holds, dividing by (d W_d)^d != 0 gives W = W_d (z - h)^d
    with that h. The power is one evaluation of the form x0^d at
    (d W_d z + W_(d-1), 1); no element of K is built unless W is a power.
    """
    if W.degree != d:
        return None
    top, sub = W.coeffs[d], W.coeffs[d - 1]
    lead = top.scale(d)
    x0_power = ZPoly((Poly.zero(),) * d + (Poly.one(),))
    power = x0_power.homogeneous_eval(ZPoly((sub, lead)), ZPoly.one(), d)
    if W.scale_poly(lead**d) != power.scale_poly(top):
        return None
    return FieldElement.make(-sub, lead)


def _sole_preimage(phi: RationalMap, A: ProjectivePoint) -> Optional[ProjectivePoint]:
    """B with phi^-1(A) = {B}, so that A is totally ramified over B, or None
    when the fiber over A has two points or more."""
    W = fiber_polynomial(phi, A)
    if W.degree == 0:
        return ProjectivePoint.infinity()  # all d preimages lie at infinity
    g = _pure_linear_power_root(W, phi.d)
    return None if g is None else ProjectivePoint.from_field(g)


def is_exceptional(phi: RationalMap, A: ProjectivePoint) -> bool:
    """True iff the backward orbit of A is finite: A is a fixed point with
    phi^-1(A) = {A}, or one point of a 2-cycle {A, B} with phi^-1(A) = {B}
    and phi^-1(B) = {A}.

    Decided on the fibers of phi itself, as phi^-1(A) = {B} and
    phi^-1(B) = {A} for some B, where B = A is allowed. This is the same as
    phi^-2(A) = {A}: if phi^-1(A) has two points or more, so has phi^-2(A),
    since the fibers over distinct points are disjoint and nonempty; if
    phi^-1(A) = {B}, then phi^-2(A) = phi^-1(B). A point whose backward orbit
    is finite has a grand orbit of at most two points (Riemann-Hurwitz), so
    these are all the cases."""
    require_dynamical(phi)
    B = _sole_preimage(phi, A)
    if B is None:
        return False
    C = _sole_preimage(phi, B)
    return C == A


def choose_m(
    phi: RationalMap, A: ProjectivePoint, eps: Fraction, cap: int = 6
) -> int:
    """Smallest m with max ramification over A in phi^m at most eps*d^m/5."""
    require_dynamical(phi)
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise DomainError("eps must lie in (0, 1]")
    if is_exceptional(phi, A):
        raise DomainError("exceptional target")
    for m in range(1, cap + 1):
        e = max_fiber_ram(phi, m, A)
        if Fraction(e) <= eps * phi.d**m / 5:
            return m
    raise DomainError(f"no admissible level found up to cap {cap}")


def is_polynomial_iterate(phi: RationalMap, j: int) -> bool:
    """True iff phi^j is a polynomial over K (constant denominator in z).

    A normalized map psi is a polynomial iff psi^-1(inf) = {inf}. If phi^j
    is one, the backward orbit of inf under phi is the finite union of
    phi^-i(inf) for i < j, so inf is exceptional for phi: either
    phi^-1(inf) = {inf}, and phi is a polynomial, or inf lies on an
    exceptional 2-cycle {inf, B}, and phi^-j(inf) is {inf} for even j and
    {B} for odd j. Conversely, both cases make phi^j a polynomial for the
    j stated. So no iterate is built."""
    require_dynamical(phi)
    if j < 1:
        raise DomainError("iterate index must be positive")
    if phi.is_polynomial:
        return True
    return j % 2 == 0 and is_exceptional(phi, ProjectivePoint.infinity())


# ---------------------------------------------------------------------------
# Wronskian / ramification accounting
# ---------------------------------------------------------------------------


def wronskian(phi: RationalMap) -> ZPoly:
    """F'G - FG' (z-derivatives); its roots carry the finite ramification."""
    return phi.F.derivative_z() * phi.G - phi.F * phi.G.derivative_z()


def ramification_totals(phi: RationalMap) -> tuple[int, int, int]:
    """(finite total from the Wronskian degree, e_infinity - 1, 2d - 2)."""
    require_dynamical(phi)
    w = wronskian(phi)
    if w.is_zero:
        raise DomainError("zero Wronskian: map is degenerate")
    e_inf = ramification_index(phi, ProjectivePoint.infinity())
    return w.degree, e_inf - 1, 2 * phi.d - 2

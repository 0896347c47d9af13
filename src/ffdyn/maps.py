"""Rational self-maps of P^1 over K = Q(t) and points of P^1(K).

Maps are stored in normalized form: numerator and denominator coprime in
K[z], joint k[t]-content removed, and the joint leading rational constant
positive, so equal maps have identical representations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import DomainError
from .function_field import FieldElement, Place, PlaceSet
from .polynomials import (
    BinaryMonomials,
    Poly,
    ZPoly,
    clear_denominators,
    poly_gcd,
    rational_content,
)
from .sympybridge import (
    factor_tpoly,
    factor_zpoly_over_k,
    resultant_z,
    sqf_zpoly_over_k,
    zpoly_gcd_over_k,
)

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^1(K) with coprime polynomial coordinates [x0 : x1].

    Normalized so x1 is monic when nonzero, else x0 is monic; the height is
    then exactly max(deg x0, deg x1).
    """

    x0: Poly
    x1: Poly

    @staticmethod
    def make(x0: Poly, x1: Poly) -> "ProjectivePoint":
        if x0.is_zero and x1.is_zero:
            raise DomainError("illegal point [0:0]")
        g = poly_gcd(x0, x1)
        if g.degree > 0:
            x0 = x0.exact_div(g)
            x1 = x1.exact_div(g)
        return ProjectivePoint._scaled(x0, x1)

    @staticmethod
    def _scaled(x0: Poly, x1: Poly) -> "ProjectivePoint":
        # trusted path: coordinates already coprime
        if not x1.is_zero:
            lc = x1.leading
        else:
            lc = x0.leading
        if lc != 1:
            inv = 1 / lc
            x0 = x0.scale(inv)
            x1 = x1.scale(inv)
        return ProjectivePoint(x0, x1)

    @staticmethod
    def from_field(x: FieldElement) -> "ProjectivePoint":
        return ProjectivePoint._scaled(x.num, x.den)

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
        """Affine coordinate, or None for the point at infinity."""
        if self.is_infinite:
            return None
        return FieldElement.make(self.x0, self.x1)

    @property
    def height(self) -> int:
        return max(self.x0.degree, self.x1.degree)

    def __str__(self) -> str:
        from .exprs import point_text

        return point_text(self)


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMap:
    """Normalized rational map F(z)/G(z) of degree d = max(deg F, deg G)."""

    F: ZPoly
    G: ZPoly
    d: int

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

    def f_top(self) -> Poly:
        return self.F.coeff(self.d)

    def __str__(self) -> str:
        from .exprs import map_text

        return map_text(self)


def _kz_exact_div(f: ZPoly, g: ZPoly) -> ZPoly:
    """Exact division in K[z]; result cleared back to k[t] coefficients."""
    fc = [FieldElement.from_poly(c) for c in f.coeffs]
    gc = [FieldElement.from_poly(c) for c in g.coeffs]
    dg = len(gc) - 1
    if dg < 0:
        raise ZeroDivisionError("division by zero polynomial")
    q = [FieldElement.zero()] * (len(fc) - dg) if len(fc) > dg else []
    rem = list(fc)
    lead = gc[-1]
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + dg] / lead
        q[i] = c
        for j, oc in enumerate(gc):
            rem[i + j] = rem[i + j] - c * oc
    if any(not r.is_zero for r in rem[:dg]):
        raise DomainError("exact division in K[z] has nonzero remainder")
    # clear denominators: lcm via product/gcd chain
    den = Poly.one()
    for c in q:
        den = den * c.den.exact_div(poly_gcd(den, c.den))
    out = [c.num * den.exact_div(c.den) for c in q]
    return ZPoly.from_list(out)


def normalize_map(Fraw: ZPoly, Graw: ZPoly) -> RationalMap:
    """Bring a fraction of z-polynomials over K into normalized form."""
    if Fraw.is_zero and Graw.is_zero:
        raise DomainError("numerator and denominator both zero")
    F, G = Fraw, Graw
    if not F.is_zero and not G.is_zero:
        g = zpoly_gcd_over_k(F, G)
        if g.degree > 0:
            F = _kz_exact_div(F, g)
            G = _kz_exact_div(G, g)
    # joint k[t] content
    cp = poly_gcd(F.content_poly(), G.content_poly())
    if cp.degree > 0:
        F = F.exact_div_poly(cp)
        G = G.exact_div_poly(cp)
    # joint rational content with positive leading constant
    content = rational_content(F.coeffs + G.coeffs)
    lead = (F if not F.is_zero else G).leading.leading
    if lead < 0:
        content = -content
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
    """Res_z of the degree-d homogenizations of F and G; nonzero in k[t],
    normalized primitive with positive leading coefficient.

    Computed from the affine resultant with the standard correction
    lc^(d - deg) for the side of exact degree d; a degree-d side always
    exists since d = max(deg F, deg G)."""
    d = phi.d
    affine = resultant_z(phi.F, phi.G)
    if phi.F.degree == d:
        corr = phi.F.coeff(d) ** (d - phi.G.degree)
    else:
        corr = phi.G.coeff(d) ** (d - phi.F.degree)
    det = affine * corr
    if det.is_zero:
        raise DomainError("zero resultant: numerator and denominator share a root")
    return det.primitive()


@lru_cache(maxsize=512)
def resultant_factors(phi: RationalMap) -> tuple[tuple[Poly, int], ...]:
    _, factors = factor_tpoly(resultant(phi))
    return factors


def bad_reduction_places(phi: RationalMap) -> PlaceSet:
    """Finite places dividing the resultant of the normalized model."""
    return frozenset(Place(q) for q, _ in resultant_factors(phi))


# ---------------------------------------------------------------------------
# Evaluation and iteration
# ---------------------------------------------------------------------------


def apply_map(phi: RationalMap, P: ProjectivePoint) -> ProjectivePoint:
    """Evaluate phi at P with projective re-normalization.

    The coordinates are first scaled by the lcm of their denominators. The
    forms F, G are homogeneous of degree d, so both values pick up the same
    factor and the image point is unchanged, while every product runs on
    integers. F and G share one table of monomials x0^i * x1^(d-i).

    Any common factor of the evaluated pair divides the resultant, so the
    coprime reduction is done by trial division against its factorization
    (much cheaper than a generic gcd at large orbit heights).
    """
    mons = BinaryMonomials(*clear_denominators((P.x0, P.x1)), phi.d)
    A = phi.F.homogeneous_eval(mons)
    B = phi.G.homogeneous_eval(mons)
    if B.is_zero:
        return ProjectivePoint.infinity()
    if A.is_zero:
        return ProjectivePoint.zero()
    for pi, _ in resultant_factors(phi):
        while True:
            qa = A.exact_quotient(pi)
            if qa is None:
                break
            qb = B.exact_quotient(pi)
            if qb is None:
                break
            A, B = qa, qb
    return ProjectivePoint._scaled(A, B)


def iterate(phi: RationalMap, P: ProjectivePoint, n: int) -> list[ProjectivePoint]:
    """Orbit prefix [P, phi(P), ..., phi^n(P)]."""
    require_dynamical(phi)
    orbit = [P]
    for _ in range(n):
        orbit.append(apply_map(phi, orbit[-1]))
    return orbit


def compose(phi: RationalMap, psi: RationalMap) -> RationalMap:
    """phi o psi; degrees multiply."""
    if phi.d < 1 or psi.d < 1:
        raise DomainError("composition requires degrees >= 1")
    mons = BinaryMonomials(psi.F, psi.G, phi.d)
    F = phi.F.homogeneous_eval(mons)
    G = phi.G.homogeneous_eval(mons)
    out = normalize_map(F, G)
    if out.d != phi.d * psi.d:
        raise DomainError("degenerate composition: degree dropped")
    return out


def identity_map() -> RationalMap:
    return RationalMap(ZPoly.z(), ZPoly.one(), 1)


@lru_cache(maxsize=256)
def power(phi: RationalMap, n: int) -> RationalMap:
    """n-fold self-composition; n = 0 gives the identity."""
    if n < 0:
        raise DomainError("negative iterate")
    if n == 0:
        return identity_map()
    out = phi
    for _ in range(n - 1):
        out = compose(phi, out)
    return out


# ---------------------------------------------------------------------------
# Fibers and ramification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberDecomposition:
    """Fiber of a map over a point, as K[z]-irreducibles with multiplicities
    plus the multiplicity at infinity; degree-weighted multiplicities sum to d.
    """

    factors: tuple[tuple[ZPoly, int], ...]
    infinity_multiplicity: int
    map_degree: int

    def multiplicities(self) -> list[int]:
        out = [m for _, m in self.factors]
        if self.infinity_multiplicity > 0:
            out.append(self.infinity_multiplicity)
        return out

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
    fd = FiberDecomposition(factors, phi.d - W.degree, phi.d)
    assert fd.degree_sum() == phi.d
    return fd


def _linear_root_multiplicity(W: ZPoly, p: FieldElement) -> int:
    """Multiplicity of z = p as a root of W, by synthetic division over K."""
    coeffs = [FieldElement.from_poly(c) for c in W.coeffs]
    e = 0
    while len(coeffs) > 1:
        acc = coeffs[-1]
        quot = [acc]  # quotient coefficients, highest degree first
        for c in reversed(coeffs[1:-1]):
            acc = acc * p + c
            quot.append(acc)
        rem = acc * p + coeffs[0]
        if not rem.is_zero:
            return e
        coeffs = list(reversed(quot))
        e += 1
    return e


def ramification_index(phi: RationalMap, P: ProjectivePoint) -> int:
    """Vanishing order e_P(phi) of phi(z) - phi(P) at P (>= 1)."""
    if phi.d < 1:
        raise DomainError("ramification requires degree >= 1")
    A = apply_map(phi, P)
    W = fiber_polynomial(phi, A)
    if P.is_infinite:
        return phi.d - W.degree
    e = _linear_root_multiplicity(W, P.affine())
    assert e >= 1
    return e


def max_fiber_ram(phi: RationalMap, m: int, A: ProjectivePoint) -> int:
    """Largest ramification index in the fiber of phi^m over A."""
    require_dynamical(phi)
    psi = power(phi, m)
    W = fiber_polynomial(psi, A)
    mults = [mult for _, mult in sqf_zpoly_over_k(W)]
    inf_mult = psi.d - W.degree
    if inf_mult > 0:
        mults.append(inf_mult)
    return max(mults)


def is_exceptional(phi: RationalMap, A: ProjectivePoint) -> bool:
    """True iff the backward orbit of A is {A}: the fiber of phi^2 over A
    is supported on A alone."""
    require_dynamical(phi)
    psi = power(phi, 2)
    W = fiber_polynomial(psi, A)
    if A.is_infinite:
        return W.degree <= 0
    if W.degree != psi.d:
        return False  # infinity lies in the fiber
    return _linear_root_multiplicity(W, A.affine()) == psi.d


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


def preimage_count_zero_infty(phi: RationalMap) -> int:
    """Number of distinct geometric points in phi^(-1)({0, infinity})."""
    count = 0
    for zpoly in (phi.F, phi.G):
        if zpoly.degree > 0:
            count += sum(part.degree for part, _ in sqf_zpoly_over_k(zpoly))
    if phi.F.degree < phi.d or phi.G.degree < phi.d:
        count += 1  # infinity maps to 0 or infinity
    return count


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


class SpecialForm(Enum):
    POWER = "PowerForm"
    QUOTIENT = "QuotientForm"
    MONOMIAL = "MonomialForm"
    NONE = "None"


def _pure_linear_power_root(W: ZPoly, d: int) -> Optional[FieldElement]:
    """Root g with W = c*(z - g)^d, or None if W is not such a power."""
    if W.degree != d:
        return None
    lead = FieldElement.from_poly(W.leading)
    g = -(FieldElement.from_poly(W.coeff(d - 1)) / lead) / FieldElement.from_rational(d)
    if _linear_root_multiplicity(W, g) == d:
        return g
    return None


def special_form_classify(phi: RationalMap) -> SpecialForm:
    """Detect the shapes f*(X-g)^{+-d}, f*(X-g)^d/(X-h)^d and f*X^{+-d}."""
    require_dynamical(phi)
    d = phi.d
    if phi.G.degree == 0:
        g = _pure_linear_power_root(phi.F, d)
        if g is not None:
            return SpecialForm.MONOMIAL if g.is_zero else SpecialForm.POWER
        return SpecialForm.NONE
    if phi.F.degree == 0:
        g = _pure_linear_power_root(phi.G, d)
        if g is not None:
            return SpecialForm.MONOMIAL if g.is_zero else SpecialForm.POWER
        return SpecialForm.NONE
    gf = _pure_linear_power_root(phi.F, d)
    gg = _pure_linear_power_root(phi.G, d)
    if gf is not None and gg is not None and gf != gg:
        return SpecialForm.QUOTIENT
    return SpecialForm.NONE


def is_polynomial_iterate(phi: RationalMap, j: int) -> bool:
    """True iff phi^j is a polynomial over K (constant denominator in z)."""
    require_dynamical(phi)
    if j < 1:
        raise DomainError("iterate index must be positive")
    return power(phi, j).G.degree == 0


class IsotrivialityVerdict(Enum):
    CONSTANT_COEFFICIENTS = "ConstantCoefficients"
    ISOTRIVIAL_WITNESS = "IsotrivialWitness"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class IsotrivialityResult:
    verdict: IsotrivialityVerdict
    witness: Optional[RationalMap] = None  # Moebius change of variable


def mobius_inverse(M: RationalMap) -> RationalMap:
    if M.d != 1:
        raise DomainError("not a Moebius map")
    a = M.F.coeff(1)
    b = M.F.coeff(0)
    c = M.G.coeff(1)
    e = M.G.coeff(0)
    return normalize_map(ZPoly.of(-b, e), ZPoly.of(a, -c))


def conjugate(phi: RationalMap, M: RationalMap) -> RationalMap:
    """M^{-1} o phi o M."""
    return compose(mobius_inverse(M), compose(phi, M))


def isotriviality_heuristic(
    phi: RationalMap, search_degree_bound: int = 2
) -> IsotrivialityResult:
    """Best-effort isotriviality detection; never claims non-isotriviality."""
    require_dynamical(phi)
    if phi.coefficient_height() == 0:
        return IsotrivialityResult(IsotrivialityVerdict.CONSTANT_COEFFICIENTS)
    entries = [Poly.zero()] + [Poly.t() ** j for j in range(search_degree_bound + 1)]
    for a, b, c, e in itertools.product(entries, repeat=4):
        det = a * e - b * c
        if det.is_zero:
            continue
        M = normalize_map(ZPoly.of(b, a), ZPoly.of(e, c))
        if M.d != 1:
            continue
        try:
            conj = conjugate(phi, M)
        except DomainError:
            continue
        if conj.coefficient_height() == 0:
            return IsotrivialityResult(
                IsotrivialityVerdict.ISOTRIVIAL_WITNESS, witness=M
            )
    return IsotrivialityResult(IsotrivialityVerdict.UNKNOWN)


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

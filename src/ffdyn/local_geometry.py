"""Chordal local heights on P^1(K) at places of Q(t), and the two local
comparison inequalities built from them.

For P = [x0 : x1], Q = [y0 : y1] with coprime polynomial coordinates,

    lambda_v(P, Q) = -log|x0*y1 - y0*x1|_v + logmax_v(P) + logmax_v(Q),

an exact nonnegative integer, +infinity exactly when P = Q. Summed over all
places it recovers the naive height: sum_v lambda_v(P, infinity) = h(P).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .function_field import (
    FieldElement,
    Place,
    PlaceSet,
    log_abs,
    poly_ord,
)
from .maps import (
    ProjectivePoint,
    RationalMap,
    apply_map,
    fiber,
    power,
    require_dynamical,
)


@dataclass(frozen=True)
class LocalHeightValue:
    """Value of a local height: an exact integer or +infinity (value None)."""

    value: Optional[int]

    @staticmethod
    def finite(value: int) -> "LocalHeightValue":
        return LocalHeightValue(value)

    @staticmethod
    def infinite() -> "LocalHeightValue":
        return LocalHeightValue(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "LocalHeightValue") -> "LocalHeightValue":
        if self.is_infinite or other.is_infinite:
            return LocalHeightValue(None)
        return LocalHeightValue(self.value + other.value)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.value)


def lambda_v(P: ProjectivePoint, Q: ProjectivePoint, v: Place) -> LocalHeightValue:
    """Chordal local height of the pair (P, Q) at v; >= 0, infinite iff P = Q.

    With cross = x0*y1 - y0*x1 it is deg v * ord_pi(cross) at a finite place
    v = (pi), and h(P) + h(Q) - deg(cross) at infinity. Proof, from the module
    formula: coprime coordinates are not both divisible by pi, so logmax_v = 0
    at a finite v; at infinity log|c| = deg c, so logmax is h(P), resp. h(Q)."""
    cross = P.x0 * Q.x1 - Q.x0 * P.x1
    if cross.is_zero:
        return LocalHeightValue.infinite()
    if v.is_infinite:
        return LocalHeightValue.finite(P.height + Q.height - cross.degree)
    return LocalHeightValue.finite(v.degree * poly_ord(cross, v.poly))


def lambda_sum(P: ProjectivePoint, Q: ProjectivePoint, S: PlaceSet) -> LocalHeightValue:
    """Sum of lambda_v(P, Q) over the places in S."""
    total = LocalHeightValue.finite(0)
    for v in S:
        total = total + lambda_v(P, Q, v)
        if total.is_infinite:
            break
    return total


# ---------------------------------------------------------------------------
# Local contact comparison for field elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContactComparisonRecord:
    """At a place where x is closer to y than y is to infinity, the proximity
    of y to infinity is pinched: lower <= middle <= upper with
    lower = lambda_v(y, inf), middle = lambda_v(x, y) + log|x - y|_v,
    upper = 2 * lambda_v(y, inf)."""

    applicable: bool
    lower: int
    middle: Optional[int]
    upper: int

    @property
    def holds(self) -> bool:
        if not self.applicable:
            return True  # vacuous
        return self.lower <= self.middle <= self.upper


def contact_comparison(
    x: FieldElement, y: FieldElement, v: Place
) -> ContactComparisonRecord:
    if x == y:
        raise DomainError("contact comparison requires distinct elements")
    px = ProjectivePoint.from_field(x)
    py = ProjectivePoint.from_field(y)
    inf = ProjectivePoint.infinity()
    lam_xy = lambda_v(px, py, v).value
    lam_y_inf = lambda_v(py, inf, v)
    if lam_y_inf.is_infinite:
        raise DomainError("y must be finite")
    lower = lam_y_inf.value
    applicable = lam_xy > lower
    middle = lam_xy + log_abs(x - y, v)
    return ContactComparisonRecord(
        applicable=applicable, lower=lower, middle=middle, upper=2 * lower
    )


# ---------------------------------------------------------------------------
# Fiber pullback comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberPullbackRecord:
    """S-sums of both sides of the local pullback comparison for the fiber
    of phi^m over A: the weighted proximity of P to the closest fiber point
    against the proximity of phi^m(P) to A, plus the normalized defect."""

    lhs: int
    rhs: int
    defect: int
    normalizer: int
    fiber_size: int

    @property
    def normalized_defect(self) -> Fraction:
        return Fraction(self.defect, self.normalizer)


def _fiber_points_with_multiplicity(
    psi: RationalMap, A: ProjectivePoint
) -> list[tuple[ProjectivePoint, int]]:
    """Fiber of psi over A as K-rational points; error if any factor is
    irreducible of higher degree (the point then lives in an extension)."""
    fd = fiber(psi, A)
    out = []
    for factor, mult in fd.factors:
        if factor.degree != 1:
            raise DomainError(
                "fiber point requires extension: irreducible factor of z-degree "
                f"{factor.degree}"
            )
        root = FieldElement.make(-factor.coeff(0), factor.coeff(1))
        out.append((ProjectivePoint.from_field(root), mult))
    if fd.infinity_multiplicity > 0:
        out.append((ProjectivePoint.infinity(), fd.infinity_multiplicity))
    return out


def fiber_pullback_defect(
    phi: RationalMap,
    m: int,
    A: ProjectivePoint,
    P: ProjectivePoint,
    S: PlaceSet,
) -> FiberPullbackRecord:
    """Compare sum_{v in S} max_{A'} e_{A'} * lambda_v(P, A') (over the fiber
    points A' of phi^m above A) with sum_{v in S} lambda_v(phi^m(P), A)."""
    require_dynamical(phi)
    if m < 1:
        raise DomainError("fiber level must be positive")
    psi = power(phi, m)
    fiber_pts = _fiber_points_with_multiplicity(psi, A)
    for pt, _ in fiber_pts:
        if pt == P:
            raise DomainError("P lies in the fiber; comparison undefined")
    image = apply_map(psi, P)
    lhs = 0
    rhs = 0
    for v in S:
        best = 0
        for pt, mult in fiber_pts:
            lam = lambda_v(P, pt, v).value
            best = max(best, mult * lam)
        lhs += best
        rhs += lambda_v(image, A, v).value
    normalizer = A.height + psi.coefficient_height() + 1
    return FiberPullbackRecord(
        lhs=lhs,
        rhs=rhs,
        defect=rhs - lhs,
        normalizer=normalizer,
        fiber_size=len(fiber_pts),
    )

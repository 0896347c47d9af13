"""Chordal local heights on P^1(K) at places of Q(t), and the two local
comparison inequalities built from them.

For P = [x0 : x1], Q = [y0 : y1] with coprime polynomial coordinates,

    lambda_v(P, Q) = -log|x0*y1 - y0*x1|_v + logmax_v(P) + logmax_v(Q),

an exact nonnegative integer, +infinity exactly when P = Q. Summed over all
places it recovers the naive height: sum_v lambda_v(P, infinity) = h(P).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError
from .function_field import (
    FieldElement,
    Place,
    PlaceSet,
    log_abs,
    poly_ord,
)
from .maps import (
    FiberDecomposition,
    ProjectivePoint,
    RationalMap,
    apply_map,
    fiber,
    power,
    require_dynamical,
)


def _cross_sum(P: ProjectivePoint, Q: ProjectivePoint, places) -> Optional[int]:
    """Sum of lambda_v(P, Q) over `places`, each read from the one cross
    term cross = x0*y1 - y0*x1: deg v * ord_pi(cross) at a finite place
    v = (pi), and h(P) + h(Q) - deg(cross) at infinity. None (+infinity)
    when P = Q, as then cross = 0; the empty sum is 0. Proof, from the module
    formula: coprime coordinates are not both divisible by pi, so logmax_v = 0
    at a finite v; at infinity log|c| = deg c, so logmax is h(P), resp. h(Q)."""
    if not places:
        return 0
    cross = P.x0 * Q.x1 - Q.x0 * P.x1
    if cross.is_zero:
        return None
    return sum(
        P.height + Q.height - cross.degree
        if v.is_infinite
        else v.degree * poly_ord(cross, v.poly)
        for v in places
    )


def lambda_v(P: ProjectivePoint, Q: ProjectivePoint, v: Place) -> Optional[int]:
    """Chordal local height of the pair (P, Q) at v: an int >= 0, or None
    (+infinity) exactly when P = Q."""
    return _cross_sum(P, Q, (v,))


def lambda_sum(P: ProjectivePoint, Q: ProjectivePoint, S: PlaceSet) -> Optional[int]:
    """Sum of lambda_v(P, Q) over the places in S, from one cross term: an
    int >= 0, or None (+infinity) when P = Q and S is not empty."""
    return _cross_sum(P, Q, S)


# ---------------------------------------------------------------------------
# Local contact comparison for field elements
# ---------------------------------------------------------------------------


class ContactComparisonRecord(NamedTuple):
    """At a place where x is closer to y than y is to infinity, the proximity
    of y to infinity is pinched: lower <= middle <= upper with
    lower = lambda_v(y, inf), middle = lambda_v(x, y) + log|x - y|_v,
    upper = 2 * lambda_v(y, inf)."""

    applicable: bool
    lower: int
    middle: int
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
    lam_xy = lambda_v(px, py, v)  # both finite: x != y, and y is not infinity
    lower = lambda_v(py, ProjectivePoint.infinity(), v)
    applicable = lam_xy > lower
    middle = lam_xy + log_abs(x - y, v)
    return ContactComparisonRecord(
        applicable=applicable, lower=lower, middle=middle, upper=2 * lower
    )


# ---------------------------------------------------------------------------
# Fiber pullback comparison
# ---------------------------------------------------------------------------


class FiberPullbackRecord(NamedTuple):
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
    return _fiber_pullback_defect(psi, fiber(psi, A), A, P, S)


def _fiber_pullback_defect(
    psi: RationalMap,
    fd: FiberDecomposition,
    A: ProjectivePoint,
    P: ProjectivePoint,
    S: PlaceSet,
) -> FiberPullbackRecord:
    """fiber_pullback_defect for psi = phi^m, given its fiber fd over A. The
    fiber points are K-rational: an irreducible factor of higher degree is an
    error (the point then lives in an extension)."""
    fiber_pts = []
    for factor, mult in fd.factors:
        if factor.degree != 1:
            raise DomainError(
                "fiber point requires extension: irreducible factor of z-degree "
                f"{factor.degree}"
            )
        root = FieldElement.make(-factor.coeff(0), factor.coeff(1))
        fiber_pts.append((ProjectivePoint.from_field(root), mult))
    if fd.infinity_multiplicity > 0:
        fiber_pts.append((ProjectivePoint.infinity(), fd.infinity_multiplicity))
    for pt, _ in fiber_pts:
        if pt == P:
            raise DomainError("P lies in the fiber; comparison undefined")
    lhs = sum(
        max((mult * lambda_v(P, pt, v) for pt, mult in fiber_pts), default=0)
        for v in S
    )
    rhs = lambda_sum(apply_map(psi, P), A, S)  # finite: P is not in the fiber
    normalizer = A.height + psi.coefficient_height() + 1
    return FiberPullbackRecord(
        lhs=lhs,
        rhs=rhs,
        defect=rhs - lhs,
        normalizer=normalizer,
        fiber_size=len(fiber_pts),
    )

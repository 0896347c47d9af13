"""Orbit scans: S-integral points in orbits, quasi-integrality index sets,
and exact evaluation of the quantitative bounds on both.

The long-range S-integrality scan uses a persistence certificate instead of
computing astronomically large iterates: at a finite place v outside S where
the map has good reduction (v does not divide the resultant) and the reduced
map fixes infinity (v divides the top denominator coefficient, automatic
when deg_z G < d), a pole of the orbit at v persists forever, because
reduction mod v commutes with the map. From the first such pole onward no
iterate can be S-integral.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, OrbitBudgetError
from .function_field import FieldElement, Place, PlaceSet, is_S_integer
from .heights import (
    DEFAULT_HEIGHT_BUDGET,
    HeightInterval,
    Orbit,
    Preperiodic,
    canonical_height,
)
from .local_geometry import lambda_sum
from .maps import (
    ProjectivePoint,
    RationalMap,
    is_exceptional,
    is_polynomial_iterate,
    resultant,
)
from .polynomials import factor_tpoly

CERTIFICATE_HEIGHT_LIMIT = 256  # count_S_integral seeks certificates up to it

# ---------------------------------------------------------------------------
# Exact integer bounds for log_d^+ of rational intervals
# ---------------------------------------------------------------------------


def floor_log_plus(d: int, x: Fraction) -> int:
    """Largest integer e >= 0 with d^e <= x; 0 when x <= 1."""
    if d < 2:
        raise DomainError("log base must be at least 2")
    x = Fraction(x)
    if x <= 1:
        return 0
    e = 0
    power = Fraction(d)
    while power <= x:
        e += 1
        power *= d
    return e


def ceil_log_plus(d: int, x: Fraction) -> int:
    """Smallest integer e >= 0 with d^e >= x; 0 when x <= 1. It is
    floor_log_plus(d, x), plus 1 unless x <= 1 or that power equals x."""
    e = floor_log_plus(d, x)
    return e if x <= 1 or d**e == x else e + 1


# ---------------------------------------------------------------------------
# S-integral points in an orbit
# ---------------------------------------------------------------------------


class PersistenceCertificate(NamedTuple):
    """A pole at the finite place v from iterate `start` onward: v is outside
    S, does not divide the resultant, and the reduction of the map mod v
    fixes infinity, so every later iterate also has a pole at v."""

    start: int
    place: Place


class IntegralScanReport(NamedTuple):
    hits: tuple[int, ...]
    certificate: Optional[PersistenceCertificate]
    warnings: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.hits)


def _certificate_at(
    phi: RationalMap, n: int, elem: Optional[FieldElement], S: PlaceSet
) -> Optional[PersistenceCertificate]:
    """Try to certify that iterates n, n+1, ... all have a pole outside S;
    elem is the affine coordinate of iterate n, None at infinity."""
    if elem is None or elem.den.degree == 0:
        return None
    res = resultant(phi)
    g_top = phi.g_top()
    _, den_factors = factor_tpoly(elem.den)
    for q, _ in den_factors:
        if Place(q) in S or q.divides(res):
            continue
        if not g_top.is_zero and not q.divides(g_top):
            continue
        return PersistenceCertificate(start=n, place=Place(q))
    return None


def count_S_integral(orbit: Orbit, S: PlaceSet, N: int) -> IntegralScanReport:
    """Indices 1 <= n <= N with phi^n(P) an S-integer (infinity never counts),
    for the orbit of P under phi.

    Once a persistence certificate is found the remaining range is certified
    pole-bound without computing further iterates. Once the orbit has
    escaped (Orbit.escape_index), every later iterate is a polynomial of
    positive degree, S-integral iff infinity lies in S, so no further
    iterate is built either; the height budget still applies to their
    heights. Otherwise the scan computes every iterate and enforces the
    height budget.
    """
    phi = orbit.phi
    if N < 0:
        raise DomainError("scan bound must be nonnegative")
    warnings = []
    try:
        if isinstance(orbit.classify(), Preperiodic):
            warnings.append(
                "base point is preperiodic; finiteness is trivial for this orbit"
            )
    except OrbitBudgetError:
        warnings.append("wandering check inconclusive within budget")
    if is_polynomial_iterate(phi, 2):  # implied by is_polynomial_iterate(phi, 1)
        warnings.append(
            "map has a polynomial iterate; S-integral points need not be finite "
            "in number when S contains infinity"
        )
    hits = []
    certificate = None
    for n in range(1, N + 1):
        if orbit.escape_index(n - 1) is not None:
            orbit.height(N)  # the budget checks of building iterates n..N
            if Place.infinity() in S:
                hits.extend(range(n, N + 1))
            break
        current = orbit[n]
        elem = current.affine()
        if elem is not None and is_S_integer(elem, S):
            hits.append(n)
        if current.height <= CERTIFICATE_HEIGHT_LIMIT:
            certificate = _certificate_at(phi, n, elem, S)
            if certificate is not None:
                break
    return IntegralScanReport(
        hits=tuple(hits),
        certificate=certificate,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Quasi-integrality index set (Gamma set)
# ---------------------------------------------------------------------------


class GammaRecord(NamedTuple):
    n: int
    proximity: Optional[int]  # sum over S of lambda_v(phi^n P, A); None = infinite
    hhat: HeightInterval  # certified interval for hhat(phi^n P)
    membership: str  # "in" | "out" | "undecided"
    s_integral: bool


class GammaSetReport(NamedTuple):
    records: tuple[GammaRecord, ...]
    in_indices: tuple[int, ...]
    undecided_indices: tuple[int, ...]

    @property
    def max_in_index(self) -> Optional[int]:
        return max(self.in_indices, default=None)


def gamma_set(
    orbit: Orbit,
    S: PlaceSet,
    A: ProjectivePoint,
    eps,
    N: int,
    depth: int = 6,
    wandering_attested: bool = False,
) -> GammaSetReport:
    """Three-valued scan of the indices n <= N where phi^n(P), for the orbit
    of P under phi, is (S, eps)-close to A: proximity >= eps * hhat(phi^n P).

    Membership is decided by comparing the exact proximity integer with eps
    times a certified canonical-height interval; indices whose interval
    straddles the threshold are reported as undecided (increase depth). The
    per-index intervals come from the exact functional equation
    hhat(phi^n P) = d^n * hhat(P), so only one base interval is computed.
    """
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise DomainError("eps must lie in (0, 1]")
    if depth < 1:
        raise DomainError("depth must be positive")
    if N < 0:
        raise DomainError("scan bound must be nonnegative")
    if is_exceptional(orbit.phi, A):
        raise DomainError("exceptional target")
    if not wandering_attested and isinstance(orbit.classify(), Preperiodic):
        raise DomainError("base point is preperiodic; orbit scan requires wandering")
    d = orbit.phi.d
    hhat_P = orbit.hhat(depth)
    records = []
    in_idx = []
    undecided_idx = []
    for n, x in enumerate(orbit.prefix(N)):
        hhat = HeightInterval(d**n * hhat_P.lo, d**n * hhat_P.hi)
        elem = x.affine()
        s_integral = elem is not None and is_S_integer(elem, S)
        prox = lambda_sum(x, A, S)
        if prox is None or prox >= eps * hhat.hi:
            membership = "in"
        elif prox < eps * hhat.lo:
            membership = "out"
        else:
            membership = "undecided"
        if membership == "in":
            in_idx.append(n)
        elif membership == "undecided":
            undecided_idx.append(n)
        records.append(
            GammaRecord(
                n=n,
                proximity=prox,
                hhat=hhat,
                membership=membership,
                s_integral=s_integral,
            )
        )
    return GammaSetReport(
        records=tuple(records),
        in_indices=tuple(in_idx),
        undecided_indices=tuple(undecided_idx),
    )


# ---------------------------------------------------------------------------
# Quantitative bound evaluation
# ---------------------------------------------------------------------------


def _log_term(
    gamma1: Fraction, orbit: Orbit, depth: int, x_lo: Fraction, x_hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Certified enclosure of gamma1 + log_d^+(X / hhat(P)) for X in
    [x_lo, x_hi], P the orbit's base point: (gamma1 + floor log_d^+(x_lo /
    hhat(P).hi), gamma1 + ceil log_d^+(x_hi / hhat(P).lo)) from the
    depth-`depth` interval for hhat(P). An error unless that interval's
    lower end is positive, which the bound divides by."""
    hhat_P = orbit.hhat(depth)
    if hhat_P.lo <= 0:
        raise DomainError(
            "canonical height of the base point not certified positive; "
            "increase depth or the point is preperiodic"
        )
    d = orbit.phi.d
    return (
        gamma1 + floor_log_plus(d, x_lo / hhat_P.hi),
        gamma1 + ceil_log_plus(d, x_hi / hhat_P.lo),
    )


def gamma_set_bound_rhs(
    gamma1: Fraction,
    orbit: Orbit,
    A: ProjectivePoint,
    depth: int = 8,
) -> tuple[Fraction, Fraction]:
    """Certified enclosure of gamma1 + log_d^+((hhat(A) + h(phi)) / hhat(P))
    for the orbit of P under phi, the one gamma_set scanned; hhat(A) is
    computed under the orbit's height budget. The theory proves
    that a constant gamma1 exists but does not pin it down, so the caller
    supplies it as an exact rational.

    Canonical heights enter as intervals, so the result is a lower/upper pair
    of exact rationals bracketing the bound; a preperiodic P (interval lower
    endpoint 0) is rejected."""
    phi = orbit.phi
    h_phi = phi.coefficient_height()
    hhat_A = canonical_height(phi, A, depth, orbit.height_budget)
    return _log_term(gamma1, orbit, depth, hhat_A.lo + h_phi, hhat_A.hi + h_phi)


def integral_count_bound_rhs(
    gamma1: Fraction,
    orbit: Orbit,
    depth: int = 8,
) -> tuple[Fraction, Fraction]:
    """Certified enclosure of gamma1 + log_d^+(h(phi) / hhat(P)) bounding the
    count of S-integral iterates for the wandering base point P of the
    orbit, the one count_S_integral scanned."""
    h_phi = Fraction(orbit.phi.coefficient_height())
    return _log_term(gamma1, orbit, depth, h_phi, h_phi)


# ---------------------------------------------------------------------------
# Empirical constant estimation over a family of instances
# ---------------------------------------------------------------------------


class GammaEstimateReport(NamedTuple):
    gamma_hat: int
    witnesses: tuple[int, ...]
    warnings: tuple[str, ...]


def estimate_gamma(
    instances: Sequence[tuple[RationalMap, ProjectivePoint, ProjectivePoint]],
    S: PlaceSet,
    eps,
    N: int,
    depth: int = 6,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> GammaEstimateReport:
    """Smallest integer gamma making the index bound hold on every instance:
    max over (phi, A, P) of max(Gamma-set) - log_d^+((hhat A + h phi)/hhat P),
    using the certified lower bound of the log term (conservative), the
    lower end of gamma_set_bound_rhs with gamma1 = 0. An instance whose
    scan, bound or Gamma-set cannot be certified is excluded with a
    warning."""
    if not instances:
        raise DomainError("no instances supplied")
    # checked once here, as gamma_set would reject every instance alike
    if not (0 < Fraction(eps) <= 1):
        raise DomainError("eps must lie in (0, 1]")
    if depth < 1:
        raise DomainError("depth must be positive")
    if N < 0:
        raise DomainError("scan bound must be nonnegative")
    if height_budget < 0:
        raise DomainError("height budget must be nonnegative")
    warnings = []
    gamma_hat = 0
    witnesses = []
    for i, (phi, A, P) in enumerate(instances):
        try:
            orbit = Orbit(phi, P, height_budget)
            report = gamma_set(orbit, S, A, eps, N, depth=depth)
            if report.undecided_indices:
                raise DomainError(
                    f"undecided indices {list(report.undecided_indices)} "
                    f"at depth {depth}"
                )
            m_star = report.max_in_index
            if m_star is None:
                continue
            log_lower = int(gamma_set_bound_rhs(Fraction(0), orbit, A, depth)[0])
        except DomainError as exc:  # OrbitBudgetError included
            warnings.append(f"instance {i} excluded: {exc}")
            continue
        contribution = max(0, m_star - log_lower)
        if contribution > gamma_hat:
            gamma_hat = contribution
            witnesses = [i]
        elif contribution == gamma_hat and contribution > 0:
            witnesses.append(i)
    return GammaEstimateReport(
        gamma_hat=gamma_hat,
        witnesses=tuple(witnesses),
        warnings=tuple(warnings),
    )

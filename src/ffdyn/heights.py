"""Heights on P^1(K), canonical-height intervals and orbit classification.

The canonical height of a point is approximated by certified rational
intervals: the center is h(phi^N P)/d^N and the radius is a displacement
bound divided by d^N (d - 1), so the true value always lies inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError, DomainError, OrbitBudgetError
from .function_field import FieldElement
from .maps import (
    ProjectivePoint,
    RationalMap,
    apply_map,
    power,
    require_dynamical,
    resultant,
)
from .polynomials import Poly

DEFAULT_HEIGHT_BUDGET = 1 << 14


# ---------------------------------------------------------------------------
# Intervals and tunable constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightInterval:
    """Closed rational interval certified to contain a canonical height."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError("empty height interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi


_BOUND_KEYS = (
    "gamma1",
    "gamma2",
    "gamma3",
    "gamma4",
    "kappa1",
    "kappa2",
    "c1",
    "c2",
    "c3",
    "c4",
)


@dataclass(frozen=True)
class BoundParams:
    """Explicit rational constants for the quantitative orbit bounds.

    The theory guarantees such constants exist but does not pin them down;
    they are supplied as data so bound evaluations stay exact and auditable.
    """

    values: tuple[tuple[str, Fraction], ...] = ()

    def get(self, key: str) -> Fraction:
        for k, v in self.values:
            if k == key:
                return v
        raise ConfigError(f"bound parameter {key!r} not supplied")

    def has(self, key: str) -> bool:
        return any(k == key for k, _ in self.values)

    @staticmethod
    def from_pairs(pairs) -> "BoundParams":
        out = []
        seen = set()
        for key, value in pairs:
            if key not in _BOUND_KEYS:
                raise ConfigError(f"unknown bound parameter {key!r}")
            if key in seen:
                raise ConfigError(f"duplicate bound parameter {key!r}")
            seen.add(key)
            value = Fraction(value)
            if value < 0:
                raise ConfigError(f"bound parameter {key!r} must be nonnegative")
            out.append((key, value))
        out.sort()
        return BoundParams(tuple(out))

    @staticmethod
    def from_file(path: Union[str, Path]) -> "BoundParams":
        pairs = []
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'name = p/q'")
            key, _, val = line.partition("=")
            try:
                value = Fraction(val.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad rational {val.strip()!r}") from exc
            pairs.append((key.strip(), value))
        return BoundParams.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Basic heights
# ---------------------------------------------------------------------------


def displacement_bound(phi: RationalMap) -> int:
    """Certified integer B with |h(phi(P)) - d*h(P)| <= B for all P.

    Upper side: evaluating the degree-d homogenization adds at most h(phi)
    to the coordinate degrees. Lower side: the common factor removed after
    evaluation divides the resultant, and elimination expresses the
    coordinate powers through the evaluated pair with cofactors of height
    at most h(phi) + deg Res, giving d*h(P) <= h(phi(P)) + h(phi) + deg Res
    + 2d*h(phi) after degree bookkeeping. The sum of both sides' constants
    is taken so one B works for both inequalities.
    """
    require_dynamical(phi)
    h = phi.coefficient_height()
    return h + resultant(phi).degree + 2 * phi.d * h


@dataclass(frozen=True)
class IterateHeightRecord:
    """h(phi^n) against the sharp geometric-series bound and a looser
    closed-form bound with the rational constant 21/10 replacing log 8."""

    n: int
    lhs: int
    sharp_rhs: int
    loose_rhs: Fraction

    @property
    def holds_sharp(self) -> bool:
        return self.lhs <= self.sharp_rhs

    @property
    def holds_loose(self) -> bool:
        return Fraction(self.lhs) <= self.loose_rhs


def iterate_height_check(phi: RationalMap, n: int) -> IterateHeightRecord:
    require_dynamical(phi)
    if n < 1:
        raise DomainError("iterate index must be positive")
    d = phi.d
    h = phi.coefficient_height()
    lhs = power(phi, n).coefficient_height()
    geo = (d**n - 1) // (d - 1)
    sharp = geo * h
    loose = Fraction(sharp) + Fraction(21, 10) * d * d * ((d ** (n - 1) - 1) // (d - 1))
    return IterateHeightRecord(n, lhs, sharp, loose)


# ---------------------------------------------------------------------------
# Orbits with a height budget
# ---------------------------------------------------------------------------


class Orbit:
    """The orbit of P under phi, computed on demand: orbit[n] is phi^n(P)
    and orbit.prefix(n) is [P, phi(P), ..., phi^n(P)]. Iterates are kept, so
    each apply_map step runs once per Orbit.

    Height budget: phi is applied only to an iterate whose height is within
    height_budget. Asking past an iterate that exceeds the budget raises
    OrbitBudgetError("orbit height H exceeds budget B at iterate n"). The
    iterate that exceeds the budget is still returned: it is already
    computed, so a caller that stops there does no extra work.
    """

    def __init__(
        self,
        phi: RationalMap,
        P: ProjectivePoint,
        height_budget: int = DEFAULT_HEIGHT_BUDGET,
    ):
        require_dynamical(phi)
        self.phi = phi
        self.height_budget = height_budget
        self._points = [P]

    def __getitem__(self, n: int) -> ProjectivePoint:
        if n < 0:
            raise DomainError("negative iterate index")
        points = self._points
        while len(points) <= n:
            last = points[-1]
            if last.height > self.height_budget:
                raise OrbitBudgetError(
                    f"orbit height {last.height} exceeds budget "
                    f"{self.height_budget} at iterate {len(points) - 1}"
                )
            points.append(apply_map(self.phi, last))
        return points[n]

    def prefix(self, n: int) -> list[ProjectivePoint]:
        return [self[k] for k in range(n + 1)]


# ---------------------------------------------------------------------------
# Canonical height
# ---------------------------------------------------------------------------


def canonical_height(
    phi: RationalMap,
    P: ProjectivePoint,
    depth: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> HeightInterval:
    """Certified interval for the canonical height of P, from depth iterates."""
    require_dynamical(phi)
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    d = phi.d
    center = Fraction(Orbit(phi, P, height_budget)[depth].height, d**depth)
    radius = Fraction(displacement_bound(phi), d**depth * (d - 1))
    return HeightInterval(max(Fraction(0), center - radius), center + radius)


@dataclass(frozen=True)
class Preperiodic:
    """Certified preperiodicity: phi^(tail + cycle) P = phi^tail P."""

    tail: int
    cycle: int


@dataclass(frozen=True)
class Wandering:
    """Certified positive canonical height with the witnessing lower bound."""

    canonical_lower: Fraction
    depth: int


def classify_preperiodic(
    phi: RationalMap,
    P: ProjectivePoint,
    max_iter: int = 10_000,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> Union[Preperiodic, Wandering]:
    """Decide preperiodic vs wandering with a certificate either way.

    Preperiodicity is certified by an exact orbit repetition; wandering is
    certified by a canonical-height interval with positive lower endpoint.
    """
    orbit = Orbit(phi, P, height_budget)
    seen = {P: 0}
    d = phi.d
    B = displacement_bound(phi)
    for n in range(1, max_iter + 1):
        current = orbit[n]
        if current in seen:
            tail = seen[current]
            return Preperiodic(tail=tail, cycle=n - tail)
        # lower endpoint of the depth-n interval: h_n/d^n - B/(d^n (d-1))
        lo = Fraction(current.height, d**n) - Fraction(B, d**n * (d - 1))
        if lo > 0:
            return Wandering(canonical_lower=lo, depth=n)
        seen[current] = n
    raise OrbitBudgetError(f"no classification within {max_iter} iterates")


# ---------------------------------------------------------------------------
# Minimum positive canonical height over a search lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HminScanReport:
    min_positive_upper: Fraction
    witness: ProjectivePoint
    scanned: int
    certified_wandering: int


def hmin_lattice_scan(
    phi: RationalMap,
    deg_bound: int,
    coeff_height_bound: int,
    depth: int,
    include_infinity: bool = True,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> HminScanReport:
    """Scan polynomial points with bounded degree and coefficient size for
    the smallest certified upper bound on a positive canonical height."""
    require_dynamical(phi)
    if deg_bound < 0 or coeff_height_bound < 1:
        raise DomainError("empty search lattice")
    grid = {Fraction(0)}
    for p in range(1, coeff_height_bound + 1):
        for q in range(1, coeff_height_bound + 1):
            grid.add(Fraction(p, q))
            grid.add(Fraction(-p, q))
    values = sorted(grid)
    points = []
    seen = set()

    def add(pt: ProjectivePoint) -> None:
        if pt not in seen:
            seen.add(pt)
            points.append(pt)

    def extend(prefix: list[Fraction], k: int) -> None:
        if k > deg_bound:
            add(ProjectivePoint.from_field(FieldElement.from_poly(Poly.from_list(prefix))))
            return
        for v in values:
            extend(prefix + [v], k + 1)

    extend([], 0)
    if include_infinity:
        add(ProjectivePoint.infinity())
    best: Optional[Fraction] = None
    witness: Optional[ProjectivePoint] = None
    certified = 0
    for pt in points:
        try:
            verdict = classify_preperiodic(
                phi, pt, max_iter=depth, height_budget=height_budget
            )
        except OrbitBudgetError:
            continue
        if isinstance(verdict, Preperiodic):
            continue
        certified += 1
        hi = canonical_height(phi, pt, depth, height_budget).hi
        if best is None or hi < best:
            best = hi
            witness = pt
    if best is None:
        raise DomainError("no wandering point certified in the search lattice")
    return HminScanReport(
        min_positive_upper=best,
        witness=witness,
        scanned=len(points),
        certified_wandering=certified,
    )

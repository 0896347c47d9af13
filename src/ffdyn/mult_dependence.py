"""Multiplicative dependence in orbits: S-unit hits, exhaustive dependence
searches over exponent boxes, the polynomial-case classifier, and zero scans
of split multilinear forms along orbits.

A dependence solution is a tuple (n, k, r, s) with the unit witness
u = phi^{n+k}(alpha)^r / phi^k(alpha)^s; u is derived from the tuple (the
defining equation determines it uniquely) and only its S-unit membership is
searched."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .errors import DomainError, OrbitBudgetError
from .function_field import (
    FieldElement,
    Place,
    PlaceSet,
    is_S_integer,
    is_S_unit,
    ord_at,
    support,
)
from .heights import DEFAULT_HEIGHT_BUDGET, Preperiodic, classify_preperiodic
from .maps import (
    ProjectivePoint,
    RationalMap,
    apply_map,
    bad_reduction_places,
    require_dynamical,
)

# ---------------------------------------------------------------------------
# Orbit helpers
# ---------------------------------------------------------------------------


def _affine_orbit(
    phi: RationalMap,
    alpha: ProjectivePoint,
    n: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> list[Optional[FieldElement]]:
    """[alpha, phi(alpha), ..., phi^n(alpha)] as affine values; None at infinity."""
    require_dynamical(phi)
    orbit = [alpha]
    for step in range(n):
        nxt = apply_map(phi, orbit[-1])
        if nxt.height > height_budget:
            raise OrbitBudgetError(
                f"orbit height {nxt.height} exceeds budget {height_budget} "
                f"at iterate {step + 1}"
            )
        orbit.append(nxt)
    return [pt.affine() for pt in orbit]


# ---------------------------------------------------------------------------
# S-unit hits
# ---------------------------------------------------------------------------


def unit_hits(
    phi: RationalMap,
    alpha: ProjectivePoint,
    S: PlaceSet,
    N: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> list[int]:
    """Indices 1 <= n <= N with phi^n(alpha) an S-unit (infinity never is)."""
    if N < 1:
        raise DomainError("scan bound must be positive")
    orbit = _affine_orbit(phi, alpha, N, height_budget)
    return [
        n for n in range(1, N + 1) if orbit[n] is not None and is_S_unit(orbit[n], S)
    ]


# ---------------------------------------------------------------------------
# Dependence search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependenceQuery:
    """Search box for phi^{n+k}(alpha)^r = u * phi^k(alpha)^s with u an S-unit."""

    alpha: ProjectivePoint
    S: PlaceSet
    n_max: int
    k_max: int
    r_max: int
    s_max: int

    def __post_init__(self):
        if min(self.n_max, self.k_max, self.r_max, self.s_max) < 1:
            raise DomainError("all search bounds must be at least 1")
        if self.alpha.is_infinite:
            raise DomainError("base point must be affine")


@dataclass(frozen=True)
class DependenceSolution:
    n: int
    k: int
    r: int
    s: int
    u: FieldElement
    alpha: ProjectivePoint
    rho: float  # log(|s|/|r|)/log d + 1 for the witnessing pair

    def verify(self, S: PlaceSet) -> bool:
        return is_S_unit(self.u, S)


@dataclass(frozen=True)
class DependenceSearchReport:
    solutions: tuple[DependenceSolution, ...]
    skipped: tuple[str, ...]
    zero_not_periodic: bool
    wandering_certified: bool


def _zero_is_periodic(
    phi: RationalMap, height_budget: int = DEFAULT_HEIGHT_BUDGET
) -> bool:
    """True iff classify_preperiodic certifies phi^n(0) = 0 for some n >= 1,
    i.e. returns Preperiodic with tail 0. Strictly preperiodic and certified
    wandering both mean "not periodic".

    An orbit still undecided after 12 iterates, or past the height
    budget, also counts as not periodic. This happens when the orbit of 0
    keeps a canonical height too small to certify, as for a map with
    constant coefficients, whose orbit of 0 stays at height 0 while its
    rational coefficients grow.
    """
    try:
        verdict = classify_preperiodic(
            phi, ProjectivePoint.zero(), max_iter=12, height_budget=height_budget
        )
    except OrbitBudgetError:
        return False
    return isinstance(verdict, Preperiodic) and verdict.tail == 0


def _coprime_pairs(r_max: int, s_max: int):
    """(r, s) with r > 0, s != 0, gcd(r, |s|) = 1 within the box."""
    for r in range(1, r_max + 1):
        for a in range(1, s_max + 1):
            if gcd(r, a) == 1:
                yield r, a
                yield r, -a


def dependence_search(
    phi: RationalMap,
    q: DependenceQuery,
    wandering_attested: bool = False,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> DependenceSearchReport:
    """Exhaustive exact search of the box for multiplicative dependences."""
    require_dynamical(phi)
    wandering_certified = False
    if not wandering_attested:
        verdict = classify_preperiodic(phi, q.alpha, height_budget=height_budget)
        if isinstance(verdict, Preperiodic):
            raise DomainError("base point is preperiodic; search requires wandering")
        wandering_certified = True
    orbit = _affine_orbit(phi, q.alpha, q.n_max + q.k_max, height_budget)
    d = phi.d
    solutions = []
    skipped = []
    for n in range(1, q.n_max + 1):
        for k in range(1, q.k_max + 1):
            f = orbit[n + k]
            g = orbit[k]
            if f is None or g is None:
                skipped.append(f"(n={n}, k={k}): iterate at infinity")
                continue
            if f.is_zero or g.is_zero:
                skipped.append(f"(n={n}, k={k}): iterate is zero, u undefined")
                continue
            for r, s in _coprime_pairs(q.r_max, q.s_max):
                u = f**r / g**s
                if is_S_unit(u, q.S):
                    rho = math.log(abs(s) / r) / math.log(d) + 1
                    solutions.append(
                        DependenceSolution(n=n, k=k, r=r, s=s, u=u, alpha=q.alpha, rho=rho)
                    )
    solutions.sort(key=lambda sol: (sol.n, sol.k, sol.r, sol.s))
    return DependenceSearchReport(
        solutions=tuple(solutions),
        skipped=tuple(skipped),
        zero_not_periodic=not _zero_is_periodic(phi, height_budget),
        wandering_certified=wandering_certified,
    )


def saturate_exponents(r: int, s: int) -> tuple[int, int]:
    """Divide out gcd and normalize the sign so the first exponent is positive."""
    if r == 0 or s == 0:
        raise DomainError("exponents must be nonzero")
    g = gcd(r, s)
    r, s = r // g, s // g
    if r < 0:
        r, s = -r, -s
    return r, s


# ---------------------------------------------------------------------------
# Polynomial-case classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseEvidence:
    label: str  # one of "A.1", "A.2", "A.3", "A.4", "B"
    alpha_integral: bool
    witness_place: Optional[Place] = None
    valuation_pattern_ok: Optional[bool] = None
    shape_ok: Optional[bool] = None
    detail: str = ""


def poly_case_classifier(
    phi: RationalMap,
    solution: DependenceSolution,
    S: PlaceSet,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> CaseEvidence:
    """Place a dependence solution for a polynomial map into the case split
    of the proof taxonomy: A.1-A.4 when alpha is integral away from S and the
    bad-reduction places, else case B with its valuation-doubling pattern."""
    require_dynamical(phi)
    if not phi.is_polynomial:
        raise DomainError("classifier requires a polynomial map")
    S_phi = frozenset(S) | bad_reduction_places(phi)
    alpha_elem = solution.alpha.affine()
    if alpha_elem is None:
        raise DomainError("base point must be affine")
    r, s = solution.r, solution.s
    if not alpha_elem.is_zero and not is_S_integer(alpha_elem, S_phi):
        # Case B: a pole of alpha at a good-reduction place outside S_phi
        witness = next(
            v
            for v in support(alpha_elem)
            if v not in S_phi and ord_at(alpha_elem, v) < 0
        )
        d = phi.d
        orbit = _affine_orbit(
            phi, solution.alpha, solution.n + solution.k, height_budget
        )
        v0 = ord_at(alpha_elem, witness)
        pattern_ok = all(
            orbit[j] is not None and ord_at(orbit[j], witness) == d**j * v0
            for j in range(1, solution.n + solution.k + 1)
        )
        shape_ok = r == 1 and s == d**solution.n
        return CaseEvidence(
            label="B",
            alpha_integral=False,
            witness_place=witness,
            valuation_pattern_ok=pattern_ok,
            shape_ok=shape_ok,
            detail=f"pole at witness place with ord {v0}",
        )
    if s < 0:
        label, detail = "A.1", "s < 0: both orbit values are S-units up to the unit u"
    elif s >= 2:
        label, detail = "A.2", "s >= 2"
    elif r >= 2:
        label, detail = "A.3", "s = 1, r >= 2"
    else:
        label, detail = "A.4", "r = s = 1"
    return CaseEvidence(label=label, alpha_integral=True, detail=detail)


# ---------------------------------------------------------------------------
# Split multilinear forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitMultilinearForm:
    """sum_i c_i * prod_{j in J_i} T_j with the blocks J_i disjoint subsets of
    {1..arity} covering it jointly; an empty block contributes the constant
    term c_i."""

    arity: int
    blocks: tuple[tuple[int, ...], ...]
    coefficients: tuple[FieldElement, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise DomainError("arity must be positive")
        if len(self.blocks) != len(self.coefficients):
            raise DomainError("one coefficient per block required")
        if not self.blocks:
            raise DomainError("form must have at least one block")
        seen = set()
        for block in self.blocks:
            for j in block:
                if j in seen:
                    raise DomainError(f"variable T{j} appears in two blocks")
                if not 1 <= j <= self.arity:
                    raise DomainError(f"variable index {j} out of range")
                seen.add(j)
        if seen != set(range(1, self.arity + 1)):
            missing = sorted(set(range(1, self.arity + 1)) - seen)
            raise DomainError(f"blocks do not cover variables {missing}")
        if any(c.is_zero for c in self.coefficients):
            raise DomainError("zero coefficient in split form")

    def evaluate(self, values: Sequence[FieldElement]) -> FieldElement:
        if len(values) != self.arity:
            raise DomainError("wrong number of arguments")
        total = FieldElement.zero()
        for block, c in zip(self.blocks, self.coefficients):
            term = c
            for j in block:
                term = term * values[j - 1]
            total = total + term
        return total


@dataclass(frozen=True)
class ZeroScanReport:
    zero_tuples: tuple[tuple[int, ...], ...]
    skipped: tuple[tuple[int, ...], ...]  # tuples touching an infinite iterate
    scanned: int


def split_multilinear_zero_scan(
    form: SplitMultilinearForm,
    phi: RationalMap,
    alpha: ProjectivePoint,
    N: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> ZeroScanReport:
    """All strictly decreasing index tuples n_1 > ... > n_k in [0, N] where
    the form vanishes at (phi^{n_1} alpha, ..., phi^{n_k} alpha); exact."""
    if N < 1:
        raise DomainError("scan bound must be positive")
    if alpha.is_infinite:
        raise DomainError("base point must be affine")
    orbit = _affine_orbit(phi, alpha, N, height_budget)
    zero_tuples = []
    skipped = []
    scanned = 0
    for combo in itertools.combinations(range(N, -1, -1), form.arity):
        scanned += 1
        values = [orbit[n] for n in combo]
        if any(v is None for v in values):
            skipped.append(combo)
            continue
        if form.evaluate(values).is_zero:
            zero_tuples.append(combo)
    return ZeroScanReport(
        zero_tuples=tuple(zero_tuples),
        skipped=tuple(skipped),
        scanned=scanned,
    )

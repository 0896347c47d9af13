"""Multiplicative dependence in orbits: S-unit hits, exhaustive dependence
searches over exponent boxes, the polynomial-case classifier, and zero scans
of split multilinear forms along orbits.

A dependence solution is a tuple (n, k, r, s) with the unit witness
u = phi^{n+k}(alpha)^r / phi^k(alpha)^s; u is derived from the tuple (the
defining equation determines it uniquely). The search compares the S-free
parts of f^r and g^s instead, and builds u only for the solutions."""

from __future__ import annotations

import itertools
import math
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DomainError, OrbitBudgetError, Value, set_field
from .function_field import (
    FieldElement,
    PlaceSet,
    is_S_unit,
    s_free_part,
    s_split,
)
from .heights import Orbit, Preperiodic
from .maps import ProjectivePoint, bad_reduction_places
from .polynomials import Poly, _canon, _int_mul

# ---------------------------------------------------------------------------
# S-unit hits
# ---------------------------------------------------------------------------


def unit_hits(orbit: Orbit, S: PlaceSet, N: int) -> list[int]:
    """Indices 1 <= n <= N with phi^n(alpha) an S-unit (infinity never is),
    for the orbit of alpha under phi."""
    if N < 1:
        raise DomainError("scan bound must be positive")
    values = [pt.affine() for pt in orbit.prefix(N)]
    return [
        n for n in range(1, N + 1) if values[n] is not None and is_S_unit(values[n], S)
    ]


# ---------------------------------------------------------------------------
# Dependence search
# ---------------------------------------------------------------------------


class DependenceQuery(Value):
    """Search box for phi^{n+k}(alpha)^r = u * phi^k(alpha)^s with u an S-unit."""

    __match_args__ = ("S", "n_max", "k_max", "r_max", "s_max")

    def __init__(self, S: PlaceSet, n_max: int, k_max: int, r_max: int, s_max: int):
        if min(n_max, k_max, r_max, s_max) < 1:
            raise DomainError("all search bounds must be at least 1")
        set_field(self, "S", S)
        set_field(self, "n_max", n_max)
        set_field(self, "k_max", k_max)
        set_field(self, "r_max", r_max)
        set_field(self, "s_max", s_max)


class DependenceSolution(NamedTuple):
    n: int
    k: int
    r: int
    s: int
    u: FieldElement
    rho: float  # log(|s|/|r|)/log d + 1 for the witnessing pair


class DependenceSearchReport(NamedTuple):
    solutions: tuple[DependenceSolution, ...]
    skipped: tuple[str, ...]
    zero_not_periodic: bool
    wandering_certified: bool


def _zero_is_periodic(zero_orbit: Orbit) -> bool:
    """True iff the classification of the orbit of 0 certifies phi^n(0) = 0
    for some n >= 1, i.e. returns Preperiodic with tail 0. Strictly
    preperiodic and certified wandering both mean "not periodic".

    An orbit still undecided after 12 iterates, or past the height
    budget, also counts as not periodic. This happens when the orbit of 0
    keeps a canonical height too small to certify, as for a map with
    constant coefficients, whose orbit of 0 stays at height 0 while its
    rational coefficients grow.
    """
    try:
        verdict = zero_orbit.classify(max_iter=12)
    except OrbitBudgetError:
        return False
    return isinstance(verdict, Preperiodic) and verdict.tail == 0


def _exponent_ratio(u: tuple, w: tuple) -> Optional[tuple[int, int]]:
    """The one coprime (r, m) with r, m >= 1 and r*u = m*w, or None, for
    integer vectors u and w not both zero. Their first nonzero entries fix
    r/m = |w_i|/|u_i|; every other entry must agree with it."""
    x, y = next((x, y) for x, y in zip(u, w) if x or y)
    if x * y <= 0:
        return None
    g = gcd(x, y)
    r, m = abs(y) // g, abs(x) // g
    if any(r * ui != m * wi for ui, wi in zip(u, w)):
        return None
    return r, m


def dependence_search(
    orbit: Orbit, q: DependenceQuery, wandering_attested: bool = False
) -> DependenceSearchReport:
    """Exact search of the box for multiplicative dependences on the orbit
    of alpha under phi; alpha must be affine.

    f**r / g**s is an S-unit exactly when f**r and g**s have the same
    S-free part (`s_free_part`). With (a, b, o) the part of f and
    (a', b', o') that of g, the part of g**s is (a'^s, b'^s, s*o') for
    s > 0 and (b'^|s|, a'^|s|, s*o') for s < 0. Equal parts have equal
    degrees, so with u = (deg a, deg b, o) and w the degree vector of
    (a', b', o'), or of (b', a', -o') for s < 0, a solution has
    r*u = |s|*w. Hence for each (n, k) and each sign of s:
    - if u = w = 0, both parts are (1, 1, 0) and every coprime pair solves;
    - if exactly one of u and w is 0, no pair does;
    - otherwise only the one coprime r/|s| of `_exponent_ratio` can, and
      one comparison of powers decides it.

    For a solution the parts cancel, so u = f**r / g**s needs no gcd. A
    nonzero x with monic denominator is lc(x.num) * prod_v pi_v^ord_v(x)
    times its S-free quotient, over the finite places v of S, and lc and
    ord_v are multiplicative (lc(x**-1) = 1/lc(x.num)). Hence u =
    lc(f.num)^r / lc(g.num)^s * prod_v pi_v^e_v with e_v = r*ord_v(f) -
    s*ord_v(g); `s_split` reads the S-free part and every ord_v of an
    orbit value from one trial-division pass. u is built on integer rows:
    pi_v = P_v / m_v with P_v the integer row of pi_v and m_v its leading
    coefficient, and the constant is one integer fraction c / m. The
    numerator is c times the P_v^e_v with e_v > 0, over m times their
    m_v^e_v; the denominator is the product of the P_v^-e_v with e_v < 0
    over that of their m_v^-e_v, which is monic. Each side is made
    canonical once. P_v^e is built by binary powering from the squares
    P_v^(2^i), which a search builds once per place: O(log e) products for
    any e, and none at the place t, where P_v^e is t^e. ord_v of an orbit
    value grows like d^(n+k), so e can run to thousands within the default
    height budget."""
    alpha = orbit[0]
    if alpha.is_infinite:
        raise DomainError("base point must be affine")
    wandering_certified = False
    if not wandering_attested:
        if isinstance(orbit.classify(), Preperiodic):
            raise DomainError("base point is preperiodic; search requires wandering")
        wandering_certified = True
    values = [pt.affine() for pt in orbit.prefix(q.n_max + q.k_max)]
    splits = [None if x is None or x.is_zero else s_split(x, q.S) for x in values]
    parts = [split and split[0] for split in splits]
    ords = [split and split[1] for split in splits]
    unit_part = (Poly.one(), Poly.one(), 0)

    def exponent_pairs(i: int, j: int) -> list[tuple[int, int]]:
        """The coprime (r, s) of the box whose parts of values[i]**r and
        values[j]**s agree (docstring above)."""
        if parts[i] == parts[j] == unit_part:
            return [
                (r, sign * m)
                for r in range(1, q.r_max + 1)
                for m in range(1, q.s_max + 1)
                if gcd(r, m) == 1
                for sign in (1, -1)
            ]
        a, b, o = parts[i]
        a2, b2, o2 = parts[j]
        pairs = []
        for sign, (num, den, og) in ((1, parts[j]), (-1, (b2, a2, -o2))):
            ratio = _exponent_ratio((a.degree, b.degree, o), (num.degree, den.degree, og))
            if ratio is None:
                continue
            r, m = ratio
            if r <= q.r_max and m <= q.s_max and a**r == num**m and b**r == den**m:
                pairs.append((r, sign * m))
        return pairs

    finite = [v.poly for v in q.S if not v.is_infinite]
    # squares[v][i] = P_v^(2^i) for P_v = finite[v].ints (docstring above)
    squares = [[v.ints] for v in finite]

    def place_power(v: int, e: int) -> Sequence[int]:
        """P_v^e for e > 0, by binary powering on squares[v]."""
        row = finite[v].ints
        if not any(row[:-1]):  # the place t: P_v = t
            return (0,) * e + (1,)
        sq = squares[v]
        while len(sq) < e.bit_length():
            sq.append(_int_mul(sq[-1], sq[-1]))
        power = None
        for i in range(e.bit_length()):
            if e >> i & 1:
                power = sq[i] if power is None else _int_mul(power, sq[i])
        return power

    def unit(i: int, j: int, r: int, s: int) -> FieldElement:
        """values[i]**r / values[j]**s for a solution (docstring above)."""
        f, g = values[i].num, values[j].num
        if s > 0:
            c, m = f.ints[-1] ** r * g.den**s, f.den**r * g.ints[-1] ** s
        else:
            c, m = f.ints[-1] ** r * g.ints[-1] ** -s, f.den**r * g.den**-s
        num, den, den_m = [c], [1], 1
        for v, (ei, ej) in enumerate(zip(ords[i], ords[j])):
            e = r * ei - s * ej
            if e > 0:
                num = _int_mul(num, place_power(v, e))
                m *= finite[v].den ** e
            elif e < 0:
                den = _int_mul(den, place_power(v, -e))
                den_m *= finite[v].den ** -e
        return FieldElement(_canon(num, m), _canon(den, den_m))

    phi = orbit.phi
    d = phi.d
    solutions = []
    skipped = []
    for n in range(1, q.n_max + 1):
        for k in range(1, q.k_max + 1):
            f = values[n + k]
            g = values[k]
            if f is None or g is None:
                skipped.append(f"(n={n}, k={k}): iterate at infinity")
                continue
            if f.is_zero or g.is_zero:
                skipped.append(f"(n={n}, k={k}): iterate is zero, u undefined")
                continue
            for r, s in exponent_pairs(n + k, k):
                rho = math.log(abs(s) / r) / math.log(d) + 1
                u = unit(n + k, k, r, s)
                solutions.append(
                    DependenceSolution(n=n, k=k, r=r, s=s, u=u, rho=rho)
                )
    solutions.sort(key=lambda sol: (sol.n, sol.k, sol.r, sol.s))
    zero = ProjectivePoint.zero()
    zero_orbit = orbit if alpha == zero else Orbit(phi, zero, orbit.height_budget)
    return DependenceSearchReport(
        solutions=tuple(solutions),
        skipped=tuple(skipped),
        zero_not_periodic=not _zero_is_periodic(zero_orbit),
        wandering_certified=wandering_certified,
    )


# ---------------------------------------------------------------------------
# Polynomial-case classifier
# ---------------------------------------------------------------------------


def poly_case_split(orbit: Orbit, S: PlaceSet) -> Callable[[DependenceSolution], str]:
    """The labeler of the proof taxonomy's case split for the dependence
    solutions of one search on orbit's base point alpha, for a polynomial
    map: "A.1"-"A.4", read from r and s, when alpha is integral away from S
    and the bad-reduction places, else "B". The split of alpha by S_phi,
    which needs the bad-reduction places (a factorization of Res), is done
    here, once."""
    phi = orbit.phi
    if not phi.is_polynomial:
        raise DomainError("classifier requires a polynomial map")
    alpha = orbit[0].affine()
    if alpha is None:
        raise DomainError("base point must be affine")
    if not alpha.is_zero:  # 0 is S_phi-integral
        _, b, o = s_free_part(alpha, frozenset(S) | bad_reduction_places(phi))
        if b.degree > 0 or o < 0:
            return lambda solution: "B"
    return _integral_case


def _integral_case(solution: DependenceSolution) -> str:
    """Cases A.1-A.4 of poly_case_split, read from r and s."""
    r, s = solution.r, solution.s
    if s < 0:
        return "A.1"  # both orbit values are S-units up to the unit u
    if s >= 2:
        return "A.2"
    return "A.3" if r >= 2 else "A.4"  # s = 1


# ---------------------------------------------------------------------------
# Split multilinear forms
# ---------------------------------------------------------------------------


class SplitMultilinearForm(Value):
    """sum_i c_i * prod_{j in J_i} T_j with the blocks J_i disjoint subsets of
    {1..arity} covering it jointly; an empty block contributes the constant
    term c_i."""

    __match_args__ = ("arity", "blocks", "coefficients")

    def __init__(
        self,
        arity: int,
        blocks: tuple[tuple[int, ...], ...],
        coefficients: tuple[FieldElement, ...],
    ):
        if arity < 1:
            raise DomainError("arity must be positive")
        if len(blocks) != len(coefficients):
            raise DomainError("one coefficient per block required")
        if not blocks:
            raise DomainError("form must have at least one block")
        seen = set()
        for block in blocks:
            for j in block:
                if j in seen:
                    raise DomainError(f"variable T{j} appears in two blocks")
                if not 1 <= j <= arity:
                    raise DomainError(f"variable index {j} out of range")
                seen.add(j)
        if seen != set(range(1, arity + 1)):
            missing = sorted(set(range(1, arity + 1)) - seen)
            raise DomainError(f"blocks do not cover variables {missing}")
        if any(c.is_zero for c in coefficients):
            raise DomainError("zero coefficient in split form")
        set_field(self, "arity", arity)
        set_field(self, "blocks", blocks)
        set_field(self, "coefficients", coefficients)

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


class ZeroScanReport(NamedTuple):
    zero_tuples: tuple[tuple[int, ...], ...]
    skipped: tuple[tuple[int, ...], ...]  # tuples touching an infinite iterate
    scanned: int


def split_multilinear_zero_scan(
    form: SplitMultilinearForm, orbit: Orbit, N: int
) -> ZeroScanReport:
    """All strictly decreasing index tuples n_1 > ... > n_k in [0, N] where
    the form vanishes at (phi^{n_1} alpha, ..., phi^{n_k} alpha), for the
    orbit of alpha under phi; exact."""
    if N < 1:
        raise DomainError("scan bound must be positive")
    if orbit[0].is_infinite:
        raise DomainError("base point must be affine")
    values = [pt.affine() for pt in orbit.prefix(N)]
    zero_tuples = []
    skipped = []
    scanned = 0
    for combo in itertools.combinations(range(N, -1, -1), form.arity):
        scanned += 1
        args = [values[n] for n in combo]
        if any(v is None for v in args):
            skipped.append(combo)
            continue
        if form.evaluate(args).is_zero:
            zero_tuples.append(combo)
    return ZeroScanReport(
        zero_tuples=tuple(zero_tuples),
        skipped=tuple(skipped),
        scanned=scanned,
    )

"""Heights on P^1(K), canonical-height intervals and orbit classification.

The canonical height of a point is approximated by certified rational
intervals around h(phi^N P)/d^N: each step moves the height by at most h(phi)
above and (2d - 1) h(phi) below d times the height (displacement_bound), so
the interval reaches h(phi)/(d^N (d - 1)) above and (2d - 1) times that below,
and the true value always lies inside.
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
    common_factor,
    power,
    require_dynamical,
    resultant,
)
from .polynomials import BinaryMonomials, Poly, primitive_pair

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
    """Certified integer B = (2d - 1) h(phi) with |h(phi(Q)) - d*h(Q)| <= B
    for all Q. It is the larger of the two one-sided bounds

        -(2d - 1) h(phi) <= h(phi(Q)) - d*h(Q) <= h(phi),

    which _hhat_interval uses separately. Both are sharp: with d = 2 and h(phi)
    = 1, (z^2 + (t+1) z + t)/(t z - 1) at t^3 reaches -3, and ((t-1) z + t -
    1)/((t-1) z^2 + (2t+1) z - t) at 0 reaches +1.

    Proof, in the notation of Orbit.height: Q = [x0 : x1] with coprime
    coordinates of height h, A = F(x0, x1), B = G(x0, x1) and M = max(deg A,
    deg B). A and B are not both 0, since the identity of (F3) would give Res
    = 0, and h(phi Q) = M - deg g with g = gcd(A, B).
    - Upper side: each term F_i x0^i x1^(d-i) or G_i x0^i x1^(d-i) has degree
      at most h(phi) + d*h, so h(phi Q) <= M <= d*h + h(phi).
    - Lower side: g divides Res. When A, B != 0 this is (F2); when B = 0 the
      identity of (F3) reads Res x_i^(2d-1) = g_i(x) A for both i, so g = A
      divides Res, and likewise when A = 0. By (F3), M >= d*h + deg Res -
      (2d - 1) h(phi), so h(phi Q) >= M - deg Res >= d*h - (2d - 1) h(phi).
    """
    require_dynamical(phi)
    return (2 * phi.d - 1) * phi.coefficient_height()


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
    each apply_map step runs once per Orbit. orbit.height(n) is the exact
    h(phi^n(P)); it builds iterates only while they are cheap (see height).
    orbit.classify() decides preperiodic against wandering and
    orbit.hhat(depth) bounds the canonical height, both from the same
    iterates. A command builds one Orbit per base point and asks it every
    question, so no iterate is computed twice.

    Height budget: phi is applied only to an iterate whose height is within
    height_budget, and a truncated step of height() counts as applying phi.
    Asking past an iterate that exceeds the budget raises
    OrbitBudgetError("orbit height H exceeds budget B at iterate n"). The
    iterate that exceeds the budget is still returned: it is already
    computed, so a caller that stops there does no extra work.

    Escape: when phi is a polynomial with a constant denominator and P lies
    in Q[t], orbit.escape_index(n) is the first k <= n at which the orbit
    has escaped to infinity (see there). From k on, orbit.height(n) reads
    the heights from a recurrence and builds no iterate; the height budget
    applies to them as if each were built.
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
        in_qt = not P.x1.is_zero and P.x1.is_constant
        self._escape_rule = _escape_rule(phi) if in_qt else None
        self._unescaped = 0  # iterates below this index have not escaped
        self._escaped_heights: list[int] = []  # from the escape index on

    def _check_budget(self, height: int, n: int) -> None:
        if height > self.height_budget:
            raise OrbitBudgetError(
                f"orbit height {height} exceeds budget "
                f"{self.height_budget} at iterate {n}"
            )

    def __getitem__(self, n: int) -> ProjectivePoint:
        if n < 0:
            raise DomainError("negative iterate index")
        points = self._points
        while len(points) <= n:
            last = points[-1]
            self._check_budget(last.height, len(points) - 1)
            points.append(apply_map(self.phi, last))
        return points[n]

    def prefix(self, n: int) -> list[ProjectivePoint]:
        return [self[k] for k in range(n + 1)]

    def height(self, n: int) -> int:
        """Exact h(phi^n(P)): from the recurrence of escape_index once the
        orbit has escaped by n; otherwise from the iterates up to a switch
        index j, then from a truncated local state stepped n - j times.

        Notation: phi = [F : G] of degree d and height h(phi), F = sum F_i
        x0^i x1^(d-i) and likewise G; Res is its resultant and L = 2d*h(phi)
        - deg Res >= 0. For Q = [x0 : x1] with coprime coordinates of height
        h, let A = F(x0, x1), B = G(x0, x1), D = d*h + h(phi) and M = max(deg
        A, deg B) <= D.

        Facts:
        (F1) h > h(phi) implies A != 0 and B != 0. Say B = 0. If x0 = 0 or
             x1 = 0 then h = 0. Otherwise let a < b be the least and the
             largest i with G_i != 0; dividing B by x0^a x1^(d-b) leaves a
             form whose vanishing gives x1 | G_b x0^(b-a) and x0 | G_a
             x1^(b-a), so x1 | G_b, x0 | G_a and h <= h(phi). Same for A.
        (F2) If A, B != 0 then g = gcd(A, B) divides Res: by the identity of
             (F3) it divides Res x0^(2d-1) and Res x1^(2d-1), whose gcd is
             Res. So h(phi Q) = M - deg g, and g = common_factor(A, B, Res).
        (F3) M >= D - L. The adjugate of the Sylvester matrix gives
             Res * x_i^(2d-1) = g_i(x) A + h_i(x) B, with forms g_i, h_i of
             degree d - 1 whose coefficients are (2d-1)-minors, of degree at
             most (2d-1) h(phi). Comparing degrees: deg Res + (2d-1) h <=
             (2d-1) h(phi) + (d-1) h + M.
        (F4) By (F2) and (F3), h(phi Q) >= M - deg Res >= d*h - (2d-1) h(phi),
             which is >= h once (d-1) h >= (2d-1) h(phi).

        State with r steps left: h; a window (u0, u1) with x_i = t^s u_i +
        (terms of degree < s), s = h - r*L, so of width W = r*L + 1; and,
        unless Res is constant (then g = 1), residues (p0, p1) = mu*(x0, x1)
        mod Res^(r+1) with mu coprime to Res. One step:
        1. Each product in A - t^(ds) F(u0, u1) has a factor of degree < s
           and the others of degree <= h, so its degree is <= D - W: the
           coefficients of A at degrees >= c = D - W + 1 are those of
           t^(ds) F(u0, u1), and by (F3) M >= D - L >= c can be read there.
        2. rho_A = F(p) mod Res^(r+1) is mu^d A mod Res^(r+1), likewise rho_B,
           and mu is coprime to Res, so g = common_factor(rho_A, rho_B, Res)
           by (F2).
        3. h' = M - deg g, by (F2).
        4. Write A = t^c a + A_low, deg A_low < c. As g | A and c >= deg g,
           the quotient A / g agrees with (t^c a) // g at degrees >= c - deg
           g, where it is t^(c - deg g) ((t^(deg g) a) // g). Its width is
           M - c + 1 >= (r-1) L + 1 by (F3); it is cut to (r-1) L + 1. As g
           divides mu^d A and Res^(r+1), rho_A / g = mu^d A / g mod Res^(r+1)
           / g, and Res^r divides that modulus as g | Res: mod Res^r the
           quotients are the new coordinates times mu^d and a rational
           constant. Each pair is replaced by its ``primitive_pair``, a
           rational multiple, which moves no degree and no factor. As Res
           also divides that modulus, common_factor(rho_A / g, rho_B / g,
           Res) = gcd(A/g, B/g, Res), which is 1 by (F2); a nonconstant value
           raises. Modulo Res^r alone the last step could not tell a loss of
           Res from one beyond it.

        Switch at the first j, r = n - j, where the window drops a
        coefficient (h >= r*L + 1), c >= deg Res and (d-1) h >= (2d-1)
        h(phi). Then h > h(phi), and by (F4) h never drops, so (F1), hence
        (F2), holds at every later step. W never grows, so c = d*h + h(phi)
        - W + 1 never drops and c >= deg Res >= deg g at every later step.
        Steps 1 and 4 check (F3) and (F2) anyway.

        A further switch condition only saves time: the state holds r*L + 1
        window and (r+1) deg Res residue coefficients per coordinate,
        2d*h(phi)*r + 1 + deg Res in all, and twice that must not exceed
        d^(r-1) h, about the height of the last iterate the global path
        would build. On the per-place residues this state replaced, a
        truncated step with one step left took 1.4 to 2.7 times as long as a
        global step of about equal size (heights near 20, several bad
        places), and 0.06 to 0.26 times with two or more steps left or four
        times fewer coefficients (height-1 maps, depths 5 to 9).

        The cost is not polynomial in n: the window and residue coefficients
        are rationals that can grow like an orbit over a number field.

        An iterate n that is already built gives its height directly. The
        budget checks are unchanged: iterate n is built only after iterates
        0..n-1 passed the budget, which is what either route above checks.
        """
        if n < 0:
            raise DomainError("negative iterate index")
        if n < len(self._points):
            return self._points[n].height
        if self.escape_index(n) is not None:
            return self._escaped_height(n)
        j = self._switch_index(n)
        return self[n].height if j is None else self._local_height(j, n)

    def escape_index(self, n: int) -> Optional[int]:
        """The first k <= n at which the orbit has escaped to infinity, or
        None. Builds the iterates up to that k, or up to n if there is none,
        and none at all when the rule below does not apply.

        The rule applies when phi = F/G with G a nonzero constant of Q and P
        = [x0 : x1] with x1 a nonzero constant. Write F = sum a_i z^i with
        a_i in Q[t]. Every iterate then has this form: G(x0, x1) = G x1^d is
        a nonzero constant, so it is coprime to F(x0, x1). The height of
        such an iterate is h = deg x0 (0 when x0 = 0).

        Iterate k has escaped when h > 0 and (d - i) h > deg a_i - deg a_d
        for every nonzero a_i with i < d.

        Lemma: if iterate k has escaped, then h(phi^(k+1) P) = d h + deg a_d
        and iterate k + 1 has escaped. The term a_d x0^d of F(x0, x1) has
        degree d h + deg a_d; each other term a_i x0^i x1^(d-i) has degree
        deg a_i + i h, smaller by the condition. So nothing cancels the
        leading term, and h' = deg F(x0, x1) = d h + deg a_d. As d >= 2 and
        h > 0, h' >= 2h > h, so h' > 0 and (d - i) h' > (d - i) h > deg a_i
        - deg a_d.

        Hence, for every n >= k:
        - h(phi^(n+1) P) = d h(phi^n P) + deg a_d, which height() reads;
        - the heights increase strictly, so phi^n P equals no other iterate:
          an equality would make the orbit periodic from there on, with
          bounded heights. P wanders;
        - phi^n P = x0/x1 is a polynomial of positive degree. Its only pole
          is at infinity, so it is S-integral iff infinity lies in S, and no
          finite place gives it a persistence certificate.

        A switch index j of height() is never below k, so the escape route
        builds no iterate that the switch route would not. Here Res = G^d
        a_d^d up to sign, so deg Res = d deg a_d <= d h(phi) and L >= 0. A
        switch at j needs h > r L >= 0 and (d - 1) h >= (2d - 1) h(phi), so
        h > 0, and h > h(phi) >= deg a_i - deg a_d unless h(phi) = 0, when
        every deg a_i - deg a_d is 0. Either way iterate j has escaped.
        """
        rule = self._escape_rule
        if rule is None:
            return None
        _, terms = rule
        heights = self._escaped_heights
        while not heights and self._unescaped <= n:
            h = self[self._unescaped].height
            if h > 0 and all(m * h > e for m, e in terms):
                heights.append(h)
            else:
                self._unescaped += 1
        return self._unescaped if heights and self._unescaped <= n else None

    def hhat(self, depth: int) -> HeightInterval:
        """Certified interval for the canonical height of P from the exact
        height of iterate depth (_hhat_interval)."""
        if depth < 0:
            raise DomainError("depth must be nonnegative")
        h_phi = self.phi.coefficient_height()
        return _hhat_interval(self.height(depth), depth, self.phi.d, h_phi)

    def classify(self, max_iter: int = 10_000) -> Union[Preperiodic, Wandering]:
        """Decide preperiodic vs wandering with a certificate either way.

        Preperiodicity is certified by an exact orbit repetition; wandering is
        certified by a canonical-height interval with positive lower endpoint,
        which at iterate n means (d - 1) h(phi^n P) > (2d - 1) h(phi). Once the
        orbit has escaped (escape_index), no iterate repeats and the heights
        follow a recurrence, so no further iterate is built.
        """
        seen = {self._points[0]: 0}
        d = self.phi.d
        h_phi = self.phi.coefficient_height()
        for n in range(1, max_iter + 1):
            if self.escape_index(n - 1) is None:
                current = self[n]
                if current in seen:
                    tail = seen[current]
                    return Preperiodic(tail=tail, cycle=n - tail)
                seen[current] = n
                h = current.height
            else:
                h = self.height(n)
            lo = _hhat_interval(h, n, d, h_phi).lo
            if lo > 0:
                return Wandering(canonical_lower=lo, depth=n)
        raise OrbitBudgetError(f"no classification within {max_iter} iterates")

    def _escaped_height(self, n: int) -> int:
        """h(phi^n P) for n at or past the escape index k, by the recurrence
        from h(phi^k P). The budget is checked before each step, with the
        text and index of the step that builds the iterate."""
        deg_ad, _ = self._escape_rule
        d = self.phi.d
        k = self._unescaped
        heights = self._escaped_heights
        while k + len(heights) <= n:
            self._check_budget(heights[-1], k + len(heights) - 1)
            heights.append(d * heights[-1] + deg_ad)
        return heights[n - k]

    def _switch_index(self, n: int) -> Optional[int]:
        """The first j < n at which height(n) may switch, or None."""
        if n == 0:
            return None
        d, h_phi, deg_res, L = _local_constants(self.phi)
        for j in range(n):
            h = self[j].height
            r = n - j
            state_size = 2 * d * h_phi * r + 1 + deg_res
            if (
                h > r * L
                and 2 * state_size <= d ** (r - 1) * h
                and d * h + h_phi - r * L >= deg_res
                and (d - 1) * h >= (2 * d - 1) * h_phi
            ):
                return j
        return None

    def _local_height(self, j: int, n: int) -> int:
        """h(phi^n P) by stepping the local state of height() from iterate j."""
        phi = self.phi
        d, h_phi, _, L = _local_constants(phi)
        Q = self[j]
        h, r = Q.height, n - j
        s = h - r * L
        window = primitive_pair(Q.x0.drop_low(s), Q.x1.drop_low(s))
        res = resultant(phi)
        mod = res ** (r + 1)
        residues = None if res.is_constant else primitive_pair(Q.x0 % mod, Q.x1 % mod)
        for i in range(j, n):
            self._check_budget(h, i)
            r = n - i
            s = h - r * L
            D = d * h + h_phi
            c = D - r * L
            mons = BinaryMonomials(*window, d)
            tops = [
                form.homogeneous_eval(mons).drop_low(c - d * s)
                for form in (phi.F, phi.G)
            ]
            M = c + max(top.degree for top in tops)
            if M < D - L:
                raise RuntimeError(
                    f"internal error: top degree {M} below {D - L} at iterate {i}"
                )
            g = Poly.one()
            if residues is not None:
                mons = BinaryMonomials(*residues, d)
                values = [form.homogeneous_eval(mons) % mod for form in (phi.F, phi.G)]
                g = common_factor(*values, res)
                if g.degree:
                    values = [v.exact_div(g) for v in values]
                    if common_factor(*values, res).degree:
                        raise RuntimeError(
                            f"internal error: common factor beyond the resultant "
                            f"at iterate {i}"
                        )
            h = M - g.degree
            if r > 1:
                cut = M - D + L
                if g.degree:
                    tops = [top.shift(g.degree) // g for top in tops]
                window = primitive_pair(*(top.drop_low(cut) for top in tops))
                if residues is not None:
                    mod = res**r
                    residues = primitive_pair(*(v % mod for v in values))
        return h


def _escape_rule(phi: RationalMap) -> Optional[tuple[int, tuple[tuple[int, int], ...]]]:
    """(deg a_d, the pairs (d - i, deg a_i - deg a_d) over the nonzero a_i
    with i < d) for phi = (sum a_i z^i)/G with G a nonzero constant of Q, as
    Orbit.escape_index reads them; None for any other phi."""
    G = phi.G
    if G.degree != 0 or G.coeff(0).degree != 0:
        return None
    d = phi.d
    a = phi.F.coeffs
    deg_ad = a[d].degree
    terms = tuple((d - i, c.degree - deg_ad) for i, c in enumerate(a[:d]) if not c.is_zero)
    return deg_ad, terms


def _local_constants(phi: RationalMap) -> tuple[int, int, int, int]:
    """(d, h(phi), deg Res, L = 2d*h(phi) - deg Res) for Orbit.height."""
    h_phi = phi.coefficient_height()
    deg_res = resultant(phi).degree
    return phi.d, h_phi, deg_res, 2 * phi.d * h_phi - deg_res


# ---------------------------------------------------------------------------
# Canonical height
# ---------------------------------------------------------------------------


def canonical_height(
    phi: RationalMap,
    P: ProjectivePoint,
    depth: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> HeightInterval:
    """Certified interval for the canonical height of P (Orbit.hhat)."""
    return Orbit(phi, P, height_budget).hhat(depth)


def _hhat_interval(h: int, n: int, d: int, h_phi: int) -> HeightInterval:
    """Interval for hhat(P) from h = h(phi^n P) and h_phi = h(phi):

        [h/d^n - (2d - 1) h_phi/(d^n (d - 1)), h/d^n + h_phi/(d^n (d - 1))].

    hhat(P) = h/d^n + sum over k >= n of (h(phi^(k+1) P) - d h(phi^k P))/d^(k+1),
    each numerator lies in [-(2d - 1) h_phi, h_phi] (displacement_bound), and
    the sum of 1/d^(k+1) over k >= n is 1/(d^n (d - 1)). The lower end is
    clipped at 0."""
    center = Fraction(h, d**n)
    unit = Fraction(h_phi, d**n * (d - 1))
    return HeightInterval(max(Fraction(0), center - (2 * d - 1) * unit), center + unit)


def classify_preperiodic(
    phi: RationalMap,
    P: ProjectivePoint,
    max_iter: int = 10_000,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> Union[Preperiodic, Wandering]:
    """Decide preperiodic vs wandering with a certificate (Orbit.classify)."""
    return Orbit(phi, P, height_budget).classify(max_iter)


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
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> HminScanReport:
    """Scan polynomial points with bounded degree and coefficient size, and
    the point at infinity, for the smallest certified upper bound on a
    positive canonical height.

    A point whose classification or depth-`depth` interval would apply phi
    past the height budget is skipped and not counted as certified."""
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
    add(ProjectivePoint.infinity())
    best: Optional[Fraction] = None
    witness: Optional[ProjectivePoint] = None
    certified = 0
    for pt in points:
        orbit = Orbit(phi, pt, height_budget)
        try:
            if isinstance(orbit.classify(max_iter=depth), Preperiodic):
                continue
            hi = orbit.hhat(depth).hi
        except OrbitBudgetError:
            continue
        certified += 1
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

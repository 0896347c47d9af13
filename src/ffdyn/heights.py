"""Heights on P^1(K), canonical-height intervals and orbit classification.

The canonical height of a point is approximated by certified rational
intervals around h(phi^N P)/d^N: each step moves the height by at most h(phi)
above and (2d - 1) h(phi) below d times the height (displacement_bound), so
the interval reaches h(phi)/(d^N (d - 1)) above and (2d - 1) times that below,
and the true value always lies inside.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .errors import DomainError, OrbitBudgetError, Value, set_field
from .maps import (
    ProjectivePoint,
    RationalMap,
    apply_map,
    common_factor,
    power,
    require_dynamical,
    resultant,
)
from .polynomials import (
    Poly,
    ZPoly,
    _odd_primes,
    binary_form_values,
    factor_tpoly,
    primitive_pair,
)

DEFAULT_HEIGHT_BUDGET = 1 << 14


# ---------------------------------------------------------------------------
# Intervals and verdicts
# ---------------------------------------------------------------------------


class HeightInterval(Value):
    """Closed rational interval certified to contain a canonical height."""

    __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise DomainError("empty height interval")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi


class Preperiodic(Value):
    """Certified preperiodicity: phi^(tail + cycle) P = phi^tail P."""

    __match_args__ = ("tail", "cycle")

    def __init__(self, tail: int, cycle: int):
        set_field(self, "tail", tail)
        set_field(self, "cycle", cycle)


class Wandering(Value):
    """Certified positive canonical height with the witnessing lower bound."""

    __match_args__ = ("canonical_lower", "depth")

    def __init__(self, canonical_lower: Fraction, depth: int):
        set_field(self, "canonical_lower", canonical_lower)
        set_field(self, "depth", depth)


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


class IterateHeightRecord(NamedTuple):
    """h(phi^n) against the sharp geometric-series bound."""

    n: int
    lhs: int
    sharp_rhs: int

    @property
    def holds_sharp(self) -> bool:
        return self.lhs <= self.sharp_rhs


def iterate_height_check(phi: RationalMap, n: int) -> IterateHeightRecord:
    require_dynamical(phi)
    if n < 1:
        raise DomainError("iterate index must be positive")
    d = phi.d
    lhs = power(phi, n).coefficient_height()
    sharp = (d**n - 1) // (d - 1) * phi.coefficient_height()
    return IterateHeightRecord(n, lhs, sharp)


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

    Once the recurrence certificate of height() holds at an iterate k,
    orbit.height(n) reads h(phi^(n+1) P) = d h(phi^n P) + m for n >= k and
    builds no further iterate; the height budget applies to these heights
    as if each were built. Once an iterate repeats an earlier one, every
    later index is read from the cycle without applying phi: each point of
    the cycle passed the budget check already.
    """

    def __init__(
        self,
        phi: RationalMap,
        P: ProjectivePoint,
        height_budget: int = DEFAULT_HEIGHT_BUDGET,
    ):
        require_dynamical(phi)
        if height_budget < 0:
            raise DomainError("height budget must be nonnegative")
        self.phi = phi
        self.height_budget = height_budget
        self._points = [P]
        self._index = {P: 0}  # the index of each built iterate
        # once found: phi maps the last built iterate to points[_cycle_start]
        self._cycle_start: Optional[int] = None
        G = phi.G  # hole-free (height): G = c x1^d, c in Q*, and x1 constant
        self._hole_free = G.degree == 0 and G.coeff(0).degree == 0 and P.x1.degree == 0
        self._terms = None  # _term_degrees(phi), once a certificate is sought
        self._uncertified = 0  # no certificate holds at iterates below this
        self._increment = 0  # m of the certificate, once one holds
        self._recurrence_heights: list[int] = []  # from the certificate on
        self._local_heights: dict[int, int] = {}  # by n, from the truncated state

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
        while len(points) <= n and self._cycle_start is None:
            self._check_budget(points[-1].height, len(points) - 1)
            Q = apply_map(self.phi, points[-1])
            self._cycle_start = self._index.get(Q)
            if self._cycle_start is None:
                self._index[Q] = len(points)
                points.append(Q)
        if n < len(points):
            return points[n]
        start = self._cycle_start
        return points[start + (n - start) % (len(points) - start)]

    def prefix(self, n: int) -> list[ProjectivePoint]:
        return [self[k] for k in range(n + 1)]

    def height(self, n: int) -> int:
        """Exact h(phi^n(P)). The iterates j = 0, 1, ... are walked in order.
        If a recurrence certificate holds at j, the height is read from the
        recurrence; else if the switch condition below holds at j, from a
        truncated local state stepped n - j times from iterate j; else the
        walk goes on, and reaching n gives the iterate itself. So no iterate
        is built that the switch route alone would not build.

        The certificate is sought only when the walk could switch at all:
        when some j < n meets the switch condition at the upper bound of
        h(phi^j P) from displacement_bound (_may_switch), or when the orbit
        is hole-free (below), where the certificate needs no work per map.
        Otherwise the walk builds iterates of moderate height only, which
        costs less than the certificate's work per map: on the 180 maps of
        the fresh-maps benchmark's canheight tasks, seeds 0-2 (deg Res 3 to
        9), that took 0.35 ms per map on average, and no certificate held.

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

        Recurrence certificate at iterate k, for n >= k:

            h(phi^(n+1) P) = d h(phi^n P) + m.

        The certificate has two parts, checked by _stable_increment on the
        built iterate k (DeMarco and Ghioca, "Rationality of dynamical
        canonical height", ETDS 39 (2019); Call and Silverman, Compositio
        Math. 89 (1993), for the split into local parts). Write x = (x0, x1)
        for an iterate, A = F(x), B = G(x) and g = gcd(A, B) as above.

        At infinity. Let x0, x1 != 0, of degrees a and b, and e = a - b.
        The term F_i x0^i x1^(d-i) has degree deg F_i + i e + d b. Let
        top_F(e) be the largest deg F_i + i e over the nonzero F_i, and
        likewise top_G(e). If exactly one term of F and one of G attain
        these, nothing cancels: A, B != 0, deg A = top_F(e) + d b and deg B =
        top_G(e) + d b. The next iterate is (A, B) / g up to a constant, so
        its e' = top_F(e) - top_G(e) and its height is max(deg A, deg B) -
        deg g = d h + m(e) - deg g, with h = b + max(e, 0) and m(e) =
        max(top_F(e), top_G(e)) - d max(e, 0). The certificate takes for E
        the values e_k, e_k', e_k'', ... until one repeats or one meets the
        interval rule below, and asks that both tops be unique at every e in
        E and that m(e) = m on all of E. Then every later iterate has
        nonzero coordinates and an e in E, and h(phi^(n+1) P) = d h(phi^n P)
        + m - deg g_n. The walk through E is given up after _MAX_E_VALUES
        values.

        Interval rule: if e >= 0, the unique tops sit at i = d in F and at
        the largest i_G with G_i != 0, d > i_G, and e' > e, then E may end
        in [e, oo). Raising e by delta raises the top of F by d delta and
        that of G by i_G delta, more than any other term of its form, so at
        e' the tops stay put and e'' - e' = (d - i_G)(e' - e) > 0: e grows
        strictly forever, and as top_F(e) - top_G(e) = e' > 0, m(e) =
        top_F(e) - d e = deg F_d throughout.

        At the finite places, by reduction modulo a prime (Silverman and
        Voloch, Acta Arith. 137 (2009); Benedetto et al., Math. Ann. 355
        (2013)). By (F2) g divides Res, so g = 1 unless an irreducible pi
        dividing Res divides A and B. Take pi primitive in Z[t] and a prime
        ideal I = (p, t - w) of Z[t] that contains it: p a prime that
        divides neither lc(pi) nor a denominator of F or G, and w a root of
        pi mod p. Scaled by one rational constant prime to p, F and G have
        coefficients in Z[t]; F_I and G_I are their reductions mod I. For
        every pi the certificate asks that some (p, w) pass this test at the
        built iterate x_k: x_k mod I is not (0, 0), and its orbit under
        [F_I : G_I] on P^1(F_p) never reaches (0, 0) before a point repeats
        (at most p + 1 steps). Proof, with x_n primitive in Z[t]^2 (the
        normal form of ProjectivePoint), A = F(x_n) and B = G(x_n):
        1. By Gauss's lemma (A, B) = u x_(n+1) with u in Z[t], as x_(n+1)
           is the primitive pair of (A, B).
        2. If pi divides gcd(A, B), then pi divides u, as x_(n+1) has
           coprime coordinates. So u lies in pi Z[t], inside I, and A = B =
           0 mod I.
        3. If instead (A, B) mod I is not (0, 0), then u is not in I, so pi
           does not divide g_n, x_(n+1) mod I is not (0, 0), and x_(n+1) mod
           I = [A mod I : B mod I], the image of x_n mod I under [F_I : G_I].
        By induction on n from x_k, and as the reduced orbit repeats after
        the points checked (pigeonhole on P^1(F_p)), g_n = 1 for every n >=
        k, and with the part at infinity h(phi^(n+1) P) = d h(phi^n P) + m.
        The test is incomplete: a pi that none of the pairs tried passes
        gives no certificate at k, loss or not. _reductions factors Res and
        lists at most _MAX_REDUCTIONS pairs per pi, once per map and only
        when a certificate is sought.

        Hole-free orbits: if G = c x1^d with c in Q* and x1 of x_k is a
        nonzero constant, then B = G(x_k) is a nonzero constant, g_k = 1,
        and x1 of x_(k+1) is a constant multiple of B. So g_n = 1 for every
        n >= k with no check at the finite places and no factoring of Res:
        the shortcut costs nothing per map.

        Example: (z^2 - t)/z at t. F = x0^2 - t x1^2, G = x0 x1 and Res =
        t up to sign. At e = 1 the tops are x0^2 and x0 x1, e' = 1 and m =
        0. Mod I = (2, t) the reduced forms are x0^2 and x0 x1. Iterate 0 =
        t reduces to [0 : 1], which goes to (0, 0) (indeed g_0 = t);
        iterate 1 = t - 1 reduces to [1 : 1], which is fixed. So h(phi^(n+1)
        t) = 2 h(phi^n t) from n = 1. For (3z^2 + t)/(tz - 2) at t + 2/5,
        Res = t^3 + 12: iterate 1 reaches (0, 0) mod (2, t) and mod (11,
        t - 10), though no factor is lost, and passes mod (3, t), so the
        certificate holds from iterate 1.

        An iterate n that is already built gives its height directly. The
        budget checks are unchanged: iterate n is built only after iterates
        0..n-1 passed the budget, which is what every route above checks.
        """
        if n < 0:
            raise DomainError("negative iterate index")
        if n < len(self._points) or self._cycle_start is not None:
            return self[n].height
        if n in self._local_heights:
            return self._local_heights[n]
        consts = _local_constants(self.phi)
        seek = (
            bool(self._recurrence_heights)
            or self._hole_free
            or _may_switch(self._points[0].height, n, consts)
        )
        for j in range(n):
            if seek and self._certified_index(j) is not None:
                return self._recurrence_height(n)
            if _switch_condition(self[j].height, n - j, consts):
                return self._local_heights.setdefault(n, self._local_height(j, n))
            if self._cycle_start is not None:
                break
        return self[n].height

    def escape_index(self, n: int) -> Optional[int]:
        """The index k <= n of the certificate of height() on a hole-free
        orbit (see there) when (d - 1) h(phi^k P) + m > 0, else None. Builds
        the iterates up to that k, or up to n if there is none, and none on
        an orbit that is not hole-free.

        From k on, h(phi^(n+1) P) - h(phi^n P) = (d - 1) h(phi^n P) + m > 0,
        so no iterate repeats (P wanders), and for n > k, phi^n P = x0/x1 is
        a polynomial of positive degree, as x1 is constant: it is S-integral
        iff infinity lies in S, and no finite place gives it a persistence
        certificate. With (d - 1) h(phi^k P) + m = 0 the heights stay
        constant (z^2 at 2), and the callers look for a repeat.
        """
        if not self._hole_free or self._certified_index(n) is None:
            return None
        growth = (self.phi.d - 1) * self._recurrence_heights[0] + self._increment
        return self._uncertified if growth > 0 else None

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
        if max_iter < 0:
            raise DomainError("max-iter must be nonnegative")
        d = self.phi.d
        h_phi = self.phi.coefficient_height()
        for n in range(1, max_iter + 1):
            if self.escape_index(n - 1) is None:
                current = self[n]
                tail = self._index[current]
                if tail < n:
                    return Preperiodic(tail=tail, cycle=n - tail)
                h = current.height
            else:
                h = self.height(n)
            lo = _hhat_interval(h, n, d, h_phi).lo
            if lo > 0:
                return Wandering(canonical_lower=lo, depth=n)
        raise OrbitBudgetError(f"no classification within {max_iter} iterates")

    def _certified_index(self, n: int) -> Optional[int]:
        """The first k <= n at which a recurrence certificate of height()
        holds, or None. Checks the iterates in order, each once per Orbit,
        building them up to that k, or up to n if there is none."""
        heights = self._recurrence_heights
        while not heights and self._uncertified <= n:
            if self._terms is None:
                self._terms = _term_degrees(self.phi)
            Q = self[self._uncertified]
            m = _stable_increment(self.phi, self._terms, Q, self._hole_free)
            if m is None:
                self._uncertified += 1
            else:
                self._increment = m
                heights.append(Q.height)
        return self._uncertified if heights and self._uncertified <= n else None

    def _recurrence_height(self, n: int) -> int:
        """h(phi^n P) for n at or past the certificate index k, by the
        recurrence from h(phi^k P). The budget is checked before each step,
        with the text and index of the step that builds the iterate."""
        d = self.phi.d
        k = self._uncertified
        heights = self._recurrence_heights
        while k + len(heights) <= n:
            self._check_budget(heights[-1], k + len(heights) - 1)
            heights.append(d * heights[-1] + self._increment)
        return heights[n - k]

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
            tops = [
                value.drop_low(c - d * s)
                for value in binary_form_values((phi.F, phi.G), *window, d)
            ]
            M = c + max(top.degree for top in tops)
            if M < D - L:
                raise RuntimeError(
                    f"internal error: top degree {M} below {D - L} at iterate {i}"
                )
            g = Poly.one()
            if residues is not None:
                values = [v % mod for v in binary_form_values((phi.F, phi.G), *residues, d)]
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


def _local_constants(phi: RationalMap) -> tuple[int, int, int, int]:
    """(d, h(phi), deg Res, L = 2d*h(phi) - deg Res) for Orbit.height."""
    h_phi = phi.coefficient_height()
    deg_res = resultant(phi).degree
    return phi.d, h_phi, deg_res, 2 * phi.d * h_phi - deg_res


def _switch_condition(h: int, r: int, consts: tuple[int, int, int, int]) -> bool:
    """The switch condition of Orbit.height at an iterate of height h with
    r steps left; each of its inequalities only gets easier as h grows."""
    d, h_phi, deg_res, L = consts
    state_size = 2 * d * h_phi * r + 1 + deg_res
    return (
        h > r * L
        and 2 * state_size <= d ** (r - 1) * h
        and d * h + h_phi - r * L >= deg_res
        and (d - 1) * h >= (2 * d - 1) * h_phi
    )


def _may_switch(h0: int, n: int, consts: tuple[int, int, int, int]) -> bool:
    """Whether Orbit.height(n) may switch at all from a base point of height
    h0: whether some j < n meets the switch condition at H_j = d^j h0 +
    h(phi) (d^j - 1)/(d - 1), which bounds h(phi^j P) from above by the
    upper side of displacement_bound."""
    d, h_phi, _, _ = consts
    H = h0
    for j in range(n):
        if _switch_condition(H, n - j, consts):
            return True
        H = d * H + h_phi
    return False


# Values of e = deg x0 - deg x1 that the part at infinity of the stable
# certificate (Orbit.height) follows before it gives up.
_MAX_E_VALUES = 8


def _term_degrees(phi: RationalMap) -> tuple[list, list]:
    """The pairs (i, deg F_i) over the nonzero F_i, and likewise for G, in
    increasing i: what _infinity_increment reads of phi."""
    return tuple(
        [(i, c.degree) for i, c in enumerate(form.coeffs) if not c.is_zero]
        for form in (phi.F, phi.G)
    )


def _stable_increment(
    phi: RationalMap, terms: tuple, Q: ProjectivePoint, hole_free: bool
) -> Optional[int]:
    """The m of the certificate of Orbit.height at the iterate Q, or None
    when it does not hold there; terms is _term_degrees(phi), and hole_free
    tells whether the orbit of Q is hole-free."""
    if Q.x0.is_zero or Q.x1.is_zero:
        return None
    m = _infinity_increment(terms, phi.d, Q.x0.degree - Q.x1.degree)
    if m is None or hole_free:
        return m
    for tries in _reductions(phi):
        if not any(_reduced_orbit_avoids_zero(Q, *reduction) for reduction in tries):
            return None
    return m


def _top_term(terms: list[tuple[int, int]], e: int) -> Optional[tuple[int, int]]:
    """(i, deg c_i + i*e) for the pair (i, deg c_i) with the largest deg c_i
    + i*e when exactly one pair attains it, else None."""
    best, count = None, 0
    for i, deg in terms:
        value = deg + i * e
        if best is None or value > best[1]:
            best, count = (i, value), 1
        elif value == best[1]:
            count += 1
    return best if count == 1 else None


def _infinity_increment(terms: tuple[list, list], d: int, e: int) -> Optional[int]:
    """The m of the part at infinity of the stable certificate for a point
    with deg x0 - deg x1 = e, from terms = _term_degrees(phi) of a phi of
    degree d: follow e -> e' = top_F(e) - top_G(e), each top unique and
    m(e) the same throughout, until a value repeats or one meets the
    interval rule of Orbit.height; None if that fails or takes more than
    _MAX_E_VALUES values."""
    terms_f, terms_g = terms
    seen: set[int] = set()
    m = None
    while e not in seen:
        if len(seen) == _MAX_E_VALUES:
            return None
        top_f, top_g = _top_term(terms_f, e), _top_term(terms_g, e)
        if top_f is None or top_g is None:
            return None
        (i_f, v_f), (i_g, v_g) = top_f, top_g
        m_e = max(v_f, v_g) - d * max(e, 0)
        if m is not None and m_e != m:
            return None
        e_next = v_f - v_g
        if e >= 0 and i_f == d and i_g == terms_g[-1][0] < d and e_next > e:
            return m_e  # the interval rule: e increases forever
        seen.add(e)
        m = m_e
        e = e_next
    return m


# The pairs (p, w) that the finite part of the stable certificate
# (Orbit.height) tries at each place: the first _MAX_REDUCTIONS of them, by
# p and then w, with p in _REDUCTION_PRIMES. On the 213 orbits of the index
# tables of tests/test_stable_orbit.py, the first pair that passed at each
# place had p <= 7.
_REDUCTION_PRIMES = tuple(
    itertools.takewhile(lambda p: p < 30, itertools.chain((2,), _odd_primes()))
)
_MAX_REDUCTIONS = 6


@lru_cache(maxsize=512)
def _reductions(phi: RationalMap) -> tuple[tuple[tuple[int, int, tuple], ...], ...]:
    """The reductions that the finite part of the stable certificate of
    Orbit.height tries for phi: for each irreducible pi dividing Res, up to
    _MAX_REDUCTIONS triples (p, w, (F mod I, G mod I)) with I = (p, t - w),
    a prime ideal of Z[t] that contains the primitive pi. p runs through the
    _REDUCTION_PRIMES that divide neither lc(pi) nor a denominator of F or
    G, and w through the roots of pi mod p. Each reduced form is its d + 1
    coefficients in F_p, lowest power of x0 first; F and G are reduced in
    Z_(p)[t], which scales both by one constant."""
    forms = (phi.F, phi.G)
    denominators = [form.integer_rows[1] for form in forms]
    places = []
    for pi, _ in factor_tpoly(resultant(phi))[1]:
        pi = pi.primitive().ints
        tries = [
            (p, w, tuple(_reduced_form(form, p, w, phi.d) for form in forms))
            for p in _REDUCTION_PRIMES
            if all(m % p for m in (pi[-1], *denominators))
            for w in range(p)
            if not _value_mod(pi, w, p)
        ]
        places.append(tuple(tries[:_MAX_REDUCTIONS]))
    return tuple(places)


def _value_mod(coeffs, w: int, p: int) -> int:
    """The integer polynomial with these coefficients, lowest first, at w,
    mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * w + c) % p
    return acc


def _reduced_form(form: ZPoly, p: int, w: int, d: int) -> tuple[int, ...]:
    """The coefficients in F_p of a degree-d form over Z_(p)[t] mod (p, t - w),
    lowest power of x0 first."""
    rows, m = form.integer_rows
    inverse = pow(m, -1, p)
    values = [_value_mod(row, w, p) * inverse % p for row in rows]
    return tuple(values + [0] * (d + 1 - len(values)))


def _reduced_orbit_avoids_zero(Q: ProjectivePoint, p: int, w: int, forms: tuple) -> bool:
    """Whether Q = [x0 : x1] mod (p, t - w) is not (0, 0) and its orbit under
    the reduced forms never reaches (0, 0), followed on P^1(F_p) until a
    point repeats (at most p + 1 steps)."""
    a, b = _value_mod(Q.x0.ints, w, p), _value_mod(Q.x1.ints, w, p)
    seen = set()
    while a or b:
        y = a * pow(b, -1, p) % p if b else p  # [y : 1], or p for [1 : 0]
        if y in seen:
            return True
        seen.add(y)
        a, b = (form[-1] if y == p else _value_mod(form, y, p) for form in forms)
    return False


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
    clipped at 0. Over the common denominator d^n (d - 1) each end is one
    integer numerator, so each is built as one Fraction."""
    den = d**n * (d - 1)
    top = h * (d - 1)
    return HeightInterval(
        Fraction(max(0, top - (2 * d - 1) * h_phi), den), Fraction(top + h_phi, den)
    )


def classify_preperiodic(
    phi: RationalMap,
    P: ProjectivePoint,
    max_iter: int = 10_000,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> Union[Preperiodic, Wandering]:
    """Decide preperiodic vs wandering with a certificate (Orbit.classify)."""
    return Orbit(phi, P, height_budget).classify(max_iter)

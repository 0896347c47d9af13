"""Slow independent routes that tests compare the fast ones against.

- resultant_sylvester, form_resultant_sylvester: the resultant of the
  degree-d homogenizations from a fraction-free (Bareiss) Sylvester
  determinant over Q[t], against maps.resultant and
  polynomials.form_resultant (the native affine resultant with its
  correction).
- fraction_mul, fraction_divmod, fraction_gcd: schoolbook product, long
  division and Euclid's gcd on lists of Fractions, against the integer
  kernels of polynomials.Poly.
- BinaryMonomials, monomial_table_eval: the degree-d homogenization of a
  form evaluated at a pair (a, b), both Poly or both ZPoly, from a table of
  the monomials a^i * b^(d-i) built by Poly arithmetic and
  zpoly_mul_by_coefficients, one canonical Poly per power, monomial,
  product and partial sum, against
  polynomials.binary_form_values, the integer kernel that flattens ZPoly
  pairs by z -> t^L.
- zpoly_mul_by_coefficients: the product in Q[t][z] as a double loop of
  Poly products and sums over the z-coefficients, against ZPoly.__mul__,
  one integer product after z -> t^L.
- linear_root_multiplicity: the multiplicity of a root p in K of W in
  K[z] by synthetic division with FieldElements, against
  maps.ramification_index, which reads the z-order of x1^n W(x0/x1 + z)
  from one binary-form evaluation.
- sympy_poly_gcd: the monic gcd in Q[t] from sympy's ``dup_gcd`` over ZZ
  (its heuristic gcd with a PRS fallback), against the native
  polynomials.poly_gcd.
- sympy_factor_tpoly, sympy_factor_zpoly_over_k, sympy_sqf_zpoly_over_k,
  sympy_resultant_z, sympy_zpoly_gcd_over_k: the sympybridge functions
  computed on sympy expressions and ``sympy.Poly`` over QQ (one
  ``sympy.Rational`` per coefficient, ``sympy.resultant``, ``sympy.gcd``,
  ``factor_list``, ``sqf_list``), against the native Q[t] kernels and the
  dense ZZ routes of the K[z] fallbacks.
- sympy_dup_factor_tpoly: the factorization in Q[t] from sympy's
  ``dup_factor_list`` over ZZ on the integer numerators (its Zassenhaus),
  against the native polynomials.factor_tpoly on large inputs.
- char_tokenize, ZPolyRatFunc, CharParser: the expression parser as it
  was, a character-by-character tokenizer into position-carrying tokens, a
  recursive descent with one method per precedence level (expr, term,
  factor, power, atom), and a value algebra that builds ZPoly values at
  every atom and operation, against exprs._Parser: token strings from one
  regular expression, two precedence loops and term-dict values.
- fraction_poly_text, fraction_zpoly_text, fraction_map_text: canonical
  printing through a Fraction per coefficient, zeros included, against the
  printer of exprs, which reads the integer numerators.
- specialization_normalize_map: the normalized form of F/G through the
  route that the exit of maps.normalize_map for a side c*z^k skips: the
  common power of z divided out, then coprime_by_specialization, then the
  K[z] gcd when the specializations cannot decide.
- exceptional_by_second_iterate, polynomial_iterate_by_power: whether a
  point is exceptional, from the fiber of phi^2 over it, and whether phi^j
  is a polynomial, from phi^j itself, against maps.is_exceptional and
  maps.is_polynomial_iterate, which read two fibers of phi.
- mobius_inverse, conjugate: the inverse of a Moebius map M, and the
  conjugate M^-1 o phi o M built by compose, with which tests make maps of
  a known conjugacy class.
- plain_orbit: the orbit prefix by repeated apply_map with no budget,
  against heights.Orbit.
- GlobalOrbit, global_classify_preperiodic, global_count_S_integral: the
  budgeted orbit that builds every iterate it is asked for, and the loops of
  classify_preperiodic and count_S_integral on it, against
  heights.Orbit.height, which reads the heights of a certified orbit from a
  recurrence, and the two library loops, which stop building iterates at
  the escape index.
- oracle_escape_index: the first iterate of a polynomial orbit that meets
  the escape inequality on the coefficients of phi, from GlobalOrbit,
  against heights.Orbit.escape_index, whose certificate must hold there or
  earlier.
- fraction_hhat_interval: the one-sided canonical-height interval as
  center h/d^n and unit h(phi)/(d^n (d - 1)) with the ends built by
  Fraction arithmetic and the lower end clipped at Fraction(0), against
  heights._hhat_interval, which builds each end from one integer numerator.
- symmetric_hhat_interval, symmetric_canonical_height: the canonical-height
  interval of radius B/(d^N (d - 1)) about h(phi^N P)/d^N with the
  symmetric B = (2d + 1) h(phi) + deg Res, against heights.canonical_height,
  whose one-sided interval must lie inside it at equal depth.
  global_classify_preperiodic takes the symmetric interval with
  symmetric=True.
- quotient_dependence_search: the per-pair search that builds
  u = f**r / g**s and tests it by trial division (quotient_is_S_unit),
  against mult_dependence.dependence_search, which compares S-free parts.
- lambda_v_by_logmax: lambda_v from its definition with logmax_v of both
  points, against local_geometry.lambda_v, which reads the cross term alone.
- s_split_by_factoring: the S-free part and the ord_v at the finite places
  of S from the irreducible factors of numerator and denominator, against
  function_field.s_split, one trial-division pass per place.
- plain_json_lines: each record walked with every Fraction replaced by its
  text and written by json.dumps(..., sort_keys=True), which builds an
  encoder per record, against cli._emit's one encoder, whose default writes
  a Fraction as its text.
- plain_csv: the same walk with each cell that is not text written by
  json.dumps, against cli._emit's one CSV-cell encoder.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd
from typing import Optional, Union

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.factortools import dup_factor_list

from ffdyn.errors import DomainError, OrbitBudgetError, ParseError
from ffdyn.exprs import _DivisionError, _FormVal
from ffdyn.function_field import FieldElement, Place, PlaceSet, is_S_integer, log_abs
from ffdyn.heights import (
    DEFAULT_HEIGHT_BUDGET,
    HeightInterval,
    Orbit,
    Preperiodic,
    Wandering,
    _hhat_interval,
)
from ffdyn.maps import (
    ProjectivePoint,
    RationalMap,
    _normalize_coprime,
    apply_map,
    compose,
    coprime_by_specialization,
    fiber_polynomial,
    is_polynomial_iterate,
    normalize_map,
    power,
    resultant,
)
from ffdyn.orbit_integrality import (
    CERTIFICATE_HEIGHT_LIMIT,
    IntegralScanReport,
    _certificate_at,
)
from ffdyn.polynomials import Poly, ZPoly, factor_tpoly, rational_content
from ffdyn.sympybridge import zpoly_gcd_over_k


def bareiss_det(M: list[list[Poly]]) -> Poly:
    n = len(M)
    if n == 0:
        return Poly.one()
    M = [row[:] for row in M]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if M[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not M[i][k].is_zero), None)
            if pivot is None:
                return Poly.zero()
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]).exact_div(prev)
            M[i][k] = Poly.zero()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


def zpoly_mul_by_coefficients(f: ZPoly, g: ZPoly) -> ZPoly:
    """f*g in Q[t][z] by the schoolbook double loop over the
    z-coefficients, one Poly product and sum per pair."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return ZPoly(())
    out = [Poly.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca.is_zero:
            for j, cb in enumerate(b):
                if not cb.is_zero:
                    out[i + j] = out[i + j] + ca * cb
    return ZPoly.from_list(out)


def linear_root_multiplicity(W: ZPoly, p: FieldElement) -> int:
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


def resultant_sylvester(phi: RationalMap) -> Poly:
    """Resultant of the degree-d homogenizations of phi's F and G."""
    return form_resultant_sylvester(phi.F, phi.G, phi.d)


def form_resultant_sylvester(F: ZPoly, G: ZPoly, d: int) -> Poly:
    """Resultant of the degree-d homogenizations of F and G via a
    fraction-free Sylvester determinant over Q[t]; 1 for d = 0."""
    f = [F.coeff(d - i) for i in range(d + 1)]  # descending
    g = [G.coeff(d - i) for i in range(d + 1)]
    n = 2 * d
    M = [[Poly.zero()] * n for _ in range(n)]
    for r in range(d):
        for j, c in enumerate(f):
            M[r][r + j] = c
    for r in range(d):
        for j, c in enumerate(g):
            M[d + r][r + j] = c
    return bareiss_det(M)


def fraction_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product on Fraction coefficients."""
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return Poly.zero()
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            out[i + j] += cx * cy
    return Poly.from_list(out)


def fraction_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division on Fraction coefficients; b nonzero."""
    rem = list(a.coeffs)
    y = b.coeffs
    dd = len(y) - 1
    if len(rem) - 1 < dd:
        return Poly.zero(), a
    q = [Fraction(0)] * (len(rem) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + dd] / y[-1]
        q[i] = c
        for j, cy in enumerate(y):
            rem[i + j] -= c * cy
    return Poly.from_list(q), Poly.from_list(rem[:dd])


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm on Fraction coefficients."""
    while not b.is_zero:
        a, b = b, fraction_divmod(a, b)[1]
        if not b.is_zero:
            b = b.scale(1 / b.leading)
    return a.scale(1 / a.leading) if not a.is_zero else a


def _product(x, y):
    """x*y for Poly operands, the coefficient double loop for ZPoly ones."""
    return x * y if isinstance(x, Poly) else zpoly_mul_by_coefficients(x, y)


class BinaryMonomials:
    """The monomials a^i * b^(d-i), i = 0..d, of a binary form of degree d
    at (a, b), for a, b both Poly or both ZPoly, each computed on first use
    and kept."""

    def __init__(self, a, b, d: int):
        one = Poly.one() if isinstance(a, Poly) else ZPoly.one()
        self.d = d
        self.zero = Poly.zero() if isinstance(a, Poly) else ZPoly.zero()
        self._pows = ([one, a], [one, b])
        self._mons: dict[int, object] = {}

    def _pow(self, k: int, e: int):
        pows = self._pows[k]
        while len(pows) <= e:
            pows.append(_product(pows[-1], pows[1]))
        return pows[e]

    def __getitem__(self, i: int):
        m = self._mons.get(i)
        if m is None:
            j = self.d - i
            if j == 0:
                m = self._pow(0, i)
            elif i == 0:
                m = self._pow(1, j)
            else:
                m = _product(self._pow(0, i), self._pow(1, j))
            self._mons[i] = m
        return m


def monomial_table_eval(form: ZPoly, a, b, d: int):
    """sum form_i * a^i * b^(d-i) over the monomial table, d >= deg form."""
    assert d >= form.degree
    mons = BinaryMonomials(a, b, d)
    acc = mons.zero
    for i, c in enumerate(form.coeffs):
        if not c.is_zero:
            m = mons[i]
            acc = acc + (m * c if isinstance(m, Poly) else m.scale_poly(c))
    return acc


def sympy_poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[t] by ``dup_gcd`` on the integer numerators."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant or b.is_constant:
        return Poly.one()
    g = dup_gcd(list(reversed(a.ints)), list(reversed(b.ints)), ZZ)
    return Poly(tuple(reversed(g)), 1).monic()


def sympy_dup_factor_tpoly(p: Poly) -> tuple[Fraction, tuple[tuple[Poly, int], ...]]:
    """factor_tpoly by ``dup_factor_list`` on the integer numerators."""
    if p.is_constant:
        return p.constant_value(), ()
    _, raw = dup_factor_list(list(reversed(p.ints)), ZZ)
    factors = [(Poly(tuple(reversed(q)), 1).monic(), mult) for q, mult in raw]
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.leading, tuple(factors)


# ---------------------------------------------------------------------------
# sympybridge on sympy expressions over QQ
# ---------------------------------------------------------------------------

_T, _Z = sympy.symbols("t z")


def poly_to_sympy(p: Poly) -> sympy.Poly:
    return sympy.Poly(
        [sympy.Rational(c, p.den) for c in reversed(p.ints)] or [0],
        _T,
        domain="QQ",
    )


def sympy_to_poly(sp: sympy.Poly) -> Poly:
    return Poly.from_list(
        [Fraction(c.numerator, c.denominator) for c in reversed(sp.all_coeffs())]
    )


def zpoly_to_sympy(f: ZPoly) -> sympy.Poly:
    terms = {}
    for i, c in enumerate(f.coeffs):
        for j, q in enumerate(c.ints):
            if q:
                terms[(i, j)] = sympy.Rational(q, c.den)
    if not terms:
        terms[(0, 0)] = sympy.Integer(0)
    return sympy.Poly.from_dict(terms, _Z, _T, domain="QQ")


def sympy_to_zpoly(sp: sympy.Poly) -> ZPoly:
    coeffs: dict[int, dict[int, Fraction]] = {}
    for (i, j), q in sp.as_dict().items():
        coeffs.setdefault(i, {})[j] = Fraction(q.numerator, q.denominator)
    if not coeffs:
        return ZPoly.zero()
    out = []
    for i in range(max(coeffs) + 1):
        row = coeffs.get(i, {})
        tdeg = max(row, default=-1)
        out.append(Poly.from_list([row.get(j, Fraction(0)) for j in range(tdeg + 1)]))
    return ZPoly.from_list(out)


def _canonical_kz(f: ZPoly) -> ZPoly:
    """Divide by the rational content, signed so that the leading
    coefficient of the leading z-coefficient is positive."""
    c = rational_content(f.coeffs)
    if f.leading.leading < 0:
        c = -c
    return f.scale(1 / c)


def sympy_factor_tpoly(p: Poly) -> tuple[Fraction, tuple[tuple[Poly, int], ...]]:
    if p.is_constant:
        return p.constant_value(), ()
    _, raw = poly_to_sympy(p).factor_list()
    factors = [
        (sympy_to_poly(sympy.Poly(sp, _T, domain="QQ")).monic(), mult)
        for sp, mult in raw
    ]
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.leading, tuple(factors)


def _kz_parts(raw) -> list[tuple[ZPoly, int]]:
    out = []
    for sp, mult in raw:
        spp = sympy.Poly(sp, _Z, _T, domain="QQ")
        if spp.degree(_Z) > 0:
            out.append((_canonical_kz(sympy_to_zpoly(spp)), mult))
    return out


def sympy_factor_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    if f.degree <= 0:
        return []
    out = _kz_parts(zpoly_to_sympy(f).factor_list()[1])
    out.sort(key=lambda fm: (fm[0].degree, [tuple(c.coeffs) for c in fm[0].coeffs]))
    return out


def sympy_sqf_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    if f.degree <= 0:
        return []
    return _kz_parts(zpoly_to_sympy(f).sqf_list()[1])


def sympy_resultant_z(f: ZPoly, g: ZPoly) -> Poly:
    r = sympy.resultant(zpoly_to_sympy(f).as_expr(), zpoly_to_sympy(g).as_expr(), _Z)
    return sympy_to_poly(sympy.Poly(r, _T, domain="QQ"))


def sympy_zpoly_gcd_over_k(f: ZPoly, g: ZPoly) -> ZPoly:
    """Canonical t-primitive gcd of nonzero f, g in K[z]."""
    sp = sympy.gcd(zpoly_to_sympy(f), zpoly_to_sympy(g))
    h = sympy_to_zpoly(sympy.Poly(sp, _Z, _T, domain="QQ"))
    if h.degree <= 0:
        return ZPoly.one()
    cp = h.content_poly()
    if cp.degree > 0:
        h = h.exact_div_poly(cp)
    return _canonical_kz(h)


def specialization_normalize_map(F: ZPoly, G: ZPoly) -> RationalMap:
    """normalize_map for nonzero F and G with no exit for a side c*z^k."""
    k = min(next(i for i, c in enumerate(f.coeffs) if not c.is_zero) for f in (F, G))
    F, G = ZPoly(F.coeffs[k:]), ZPoly(G.coeffs[k:])
    if not coprime_by_specialization(F, G):
        _, F, G = zpoly_gcd_over_k(F, G)
    return _normalize_coprime(F, G)


def exceptional_by_second_iterate(phi: RationalMap, A: ProjectivePoint) -> bool:
    """True iff the fiber of phi^2 over A is supported on A alone."""
    psi = power(phi, 2)
    W = fiber_polynomial(psi, A)
    if A.is_infinite:
        return W.degree <= 0
    if W.degree != psi.d:
        return False  # infinity lies in the fiber
    return linear_root_multiplicity(W, A.affine()) == psi.d


def polynomial_iterate_by_power(phi: RationalMap, j: int) -> bool:
    """True iff phi^j, built by composition, has a constant denominator."""
    return power(phi, j).G.degree == 0


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


def plain_orbit(phi: RationalMap, P: ProjectivePoint, n: int) -> list[ProjectivePoint]:
    """Orbit prefix [P, phi(P), ..., phi^n(P)]."""
    orbit = [P]
    for _ in range(n):
        orbit.append(apply_map(phi, orbit[-1]))
    return orbit


class GlobalOrbit:
    """orbit[n] = phi^n(P) by repeated apply_map, with the height budget of
    heights.Orbit: phi is applied only to an iterate within the budget."""

    def __init__(self, phi: RationalMap, P: ProjectivePoint, height_budget: int):
        self.phi = phi
        self.height_budget = height_budget
        self.points = [P]

    def __getitem__(self, n: int) -> ProjectivePoint:
        points = self.points
        while len(points) <= n:
            h = points[-1].height
            if h > self.height_budget:
                raise OrbitBudgetError(
                    f"orbit height {h} exceeds budget {self.height_budget} "
                    f"at iterate {len(points) - 1}"
                )
            points.append(apply_map(self.phi, points[-1]))
        return points[n]


def oracle_escape_index(
    phi: RationalMap,
    P: ProjectivePoint,
    n: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> Optional[int]:
    """The first k <= n at which the orbit of P has escaped, or None. It
    applies when phi = (sum a_i z^i)/G with G a nonzero constant of Q and P
    lies in Q[t]; iterate k, of height h = deg x0, has escaped when h > 0
    and (d - i) h > deg a_i - deg a_d for every nonzero a_i with i < d. Then
    the leading term a_d x0^d of F(x0, x1) dominates, the next height is d h
    + deg a_d > h, and the inequality holds again, so every later iterate
    has escaped."""
    if phi.G.degree != 0 or phi.G.coeff(0).degree != 0 or P.x1.degree != 0:
        return None
    d = phi.d
    a = phi.F.coeffs
    orbit = GlobalOrbit(phi, P, height_budget)
    for k in range(n + 1):
        h = orbit[k].height
        if h > 0 and all(
            (d - i) * h > c.degree - a[d].degree
            for i, c in enumerate(a[:d])
            if not c.is_zero
        ):
            return k
    return None


def fraction_hhat_interval(h: int, n: int, d: int, h_phi: int) -> HeightInterval:
    """[h/d^n - (2d - 1) h_phi/(d^n (d - 1)), h/d^n + h_phi/(d^n (d - 1))],
    the lower end clipped at 0, in Fraction arithmetic."""
    center = Fraction(h, d**n)
    unit = Fraction(h_phi, d**n * (d - 1))
    return HeightInterval(max(Fraction(0), center - (2 * d - 1) * unit), center + unit)


def symmetric_hhat_interval(phi: RationalMap, h: int, n: int) -> HeightInterval:
    """h/d^n -+ B/(d^n (d - 1)), clipped at 0, with the symmetric B = (2d + 1)
    h(phi) + deg Res: the upper side h(phi) plus a lower side 2d h(phi) + deg
    Res that is weaker than heights.displacement_bound's (2d - 1) h(phi)."""
    d = phi.d
    B = (2 * d + 1) * phi.coefficient_height() + resultant(phi).degree
    center = Fraction(h, d**n)
    radius = Fraction(B, d**n * (d - 1))
    return HeightInterval(max(Fraction(0), center - radius), center + radius)


def symmetric_canonical_height(
    phi: RationalMap,
    P: ProjectivePoint,
    depth: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
) -> HeightInterval:
    """canonical_height with the symmetric interval."""
    return symmetric_hhat_interval(phi, Orbit(phi, P, height_budget).height(depth), depth)


def global_classify_preperiodic(
    phi: RationalMap,
    P: ProjectivePoint,
    max_iter: int = 10_000,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
    symmetric: bool = False,
) -> Union[Preperiodic, Wandering]:
    """classify_preperiodic on every iterate: a repetition, or a positive
    lower end of the depth-n interval, the symmetric one if asked."""
    orbit = GlobalOrbit(phi, P, height_budget)
    seen = {P: 0}
    d = phi.d
    h_phi = phi.coefficient_height()
    for n in range(1, max_iter + 1):
        current = orbit[n]
        if current in seen:
            tail = seen[current]
            return Preperiodic(tail=tail, cycle=n - tail)
        if symmetric:
            lo = symmetric_hhat_interval(phi, current.height, n).lo
        else:
            lo = _hhat_interval(current.height, n, d, h_phi).lo
        if lo > 0:
            return Wandering(canonical_lower=lo, depth=n)
        seen[current] = n
    raise OrbitBudgetError(f"no classification within {max_iter} iterates")


def global_count_S_integral(
    phi: RationalMap,
    P: ProjectivePoint,
    S: PlaceSet,
    N: int,
    height_budget: int = DEFAULT_HEIGHT_BUDGET,
    max_iter: int = 10_000,
) -> IntegralScanReport:
    """count_S_integral on every iterate up to N or a persistence
    certificate. max_iter is passed to the preperiodicity check."""
    warnings = []
    try:
        verdict = global_classify_preperiodic(phi, P, max_iter, height_budget)
        if isinstance(verdict, Preperiodic):
            warnings.append(
                "base point is preperiodic; finiteness is trivial for this orbit"
            )
    except OrbitBudgetError:
        warnings.append("wandering check inconclusive within budget")
    if is_polynomial_iterate(phi, 2):
        warnings.append(
            "map has a polynomial iterate; S-integral points need not be finite "
            "in number when S contains infinity"
        )
    hits = []
    certificate = None
    orbit = GlobalOrbit(phi, P, height_budget)
    for n in range(1, N + 1):
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


def _strip_by_trial_division(p: Poly, S: PlaceSet) -> Poly:
    for v in S:
        if not v.is_infinite:
            while (q := p.exact_quotient(v.poly)) is not None:
                p = q
    return p


def quotient_is_S_unit(u: FieldElement, S: PlaceSet) -> bool:
    """The S-unit test on u itself: with every finite place of S divided out
    of u's numerator and denominator, both must be constant, and their
    degrees must agree when infinity is outside S."""
    if u.is_zero:
        return False
    if _strip_by_trial_division(u.num, S).degree > 0:
        return False
    if _strip_by_trial_division(u.den, S).degree > 0:
        return False
    return Place.infinity() in S or u.num.degree == u.den.degree


def s_split_by_factoring(
    x: FieldElement, S: PlaceSet
) -> tuple[tuple[Poly, Poly, int], list[int]]:
    """((a, b, o), [ord_v(x) for the finite v of S, in the iteration order
    of S]) for nonzero x: a and b are the products of the monic irreducible
    factors of x.num and x.den outside S, with their multiplicities, and
    o = ord_inf(x), or 0 when infinity lies in S."""
    ords = {v.poly: 0 for v in S if not v.is_infinite}
    free = []
    for p, sign in ((x.num, 1), (x.den, -1)):
        part = Poly.one()
        for q, mult in factor_tpoly(p)[1]:
            if q in ords:
                ords[q] += sign * mult
            else:
                part = part * q**mult
        free.append(part)
    o = 0 if Place.infinity() in S else x.den.degree - x.num.degree
    return (free[0], free[1], o), list(ords.values())


def quotient_dependence_search(
    orbit: list[Optional[FieldElement]],
    S: PlaceSet,
    n_max: int,
    k_max: int,
    r_max: int,
    s_max: int,
) -> list[tuple[int, int, int, int, FieldElement]]:
    """Sorted (n, k, r, s, u) over the box: for every (n, k) whose iterates
    orbit[n + k] = f and orbit[k] = g are finite and nonzero, and every
    r > 0, s != 0 with gcd(r, |s|) = 1, build u = f**r / g**s and test it."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            f, g = orbit[n + k], orbit[k]
            if f is None or g is None or f.is_zero or g.is_zero:
                continue
            for r in range(1, r_max + 1):
                for s in range(-s_max, s_max + 1):
                    if s == 0 or gcd(r, abs(s)) != 1:
                        continue
                    u = f**r / g**s
                    if quotient_is_S_unit(u, S):
                        out.append((n, k, r, s, u))
    return sorted(out, key=lambda sol: sol[:4])


def lambda_v_by_logmax(
    P: ProjectivePoint, Q: ProjectivePoint, v: Place
) -> Optional[int]:
    """-log|x0*y1 - y0*x1|_v + logmax_v(P) + logmax_v(Q), with logmax_v the
    largest log|c|_v over the nonzero coordinates c of a point; None when
    P = Q."""
    cross = P.x0 * Q.x1 - Q.x0 * P.x1
    if cross.is_zero:
        return None

    def logmax(R: ProjectivePoint) -> int:
        return max(
            log_abs(FieldElement.from_poly(c), v) for c in (R.x0, R.x1) if not c.is_zero
        )

    return -log_abs(FieldElement.from_poly(cross), v) + logmax(P) + logmax(Q)


class _Token:
    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: int, value: int = 0):
        self.kind = kind  # INT | T | Z | VAR | OP | END
        self.text = text
        self.pos = pos
        self.value = value


def char_tokenize(text: str, allow_vars: bool) -> list[_Token]:
    """Tokens of text, read one character at a time."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], i, int(text[i:j])))
            i = j
            continue
        if ch == "t":
            tokens.append(_Token("T", ch, i))
            i += 1
            continue
        if ch == "z":
            tokens.append(_Token("Z", ch, i))
            i += 1
            continue
        if ch == "T" and allow_vars:
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable index expected after 'T' at position {i}", i)
            tokens.append(_Token("VAR", text[i:j], i, int(text[i + 1 : j])))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class ZPolyRatFunc:
    """Rational function in z over Q[t] as an unreduced pair of ZPoly values.
    Sums, products and powers of pairs over 1 skip the products by the
    denominators."""

    __slots__ = ("num", "den")

    def __init__(self, num: ZPoly, den: ZPoly):
        self.num = num
        self.den = den

    @staticmethod
    def const(c: int) -> "ZPolyRatFunc":
        return ZPolyRatFunc(ZPoly.of(Poly.constant(c)), ZPoly.one())

    @staticmethod
    def t() -> "ZPolyRatFunc":
        return ZPolyRatFunc(ZPoly.of(Poly.t()), ZPoly.one())

    @staticmethod
    def z() -> "ZPolyRatFunc":
        return ZPolyRatFunc(ZPoly.z(), ZPoly.one())

    def add(self, other: "ZPolyRatFunc") -> "ZPolyRatFunc":
        if self.den == ZPoly.one() and other.den == ZPoly.one():
            return ZPolyRatFunc(self.num + other.num, ZPoly.one())
        return ZPolyRatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def neg(self) -> "ZPolyRatFunc":
        return ZPolyRatFunc(-self.num, self.den)

    def mul(self, other: "ZPolyRatFunc") -> "ZPolyRatFunc":
        return ZPolyRatFunc(self.num * other.num, self.den * other.den)

    def div(self, other: "ZPolyRatFunc") -> "ZPolyRatFunc":
        if other.num.is_zero:
            raise _DivisionError("division by zero")
        return ZPolyRatFunc(self.num * other.den, self.den * other.num)

    def pow(self, k: int) -> "ZPolyRatFunc":
        return ZPolyRatFunc(self.num**k, self.den**k)

    def zpolys(self) -> tuple[ZPoly, ZPoly]:
        return self.num, self.den


class CharParser:
    """The recursive descent over char_tokenize, one method per precedence
    level, on ZPolyRatFunc values (exprs._FormVal in "form" mode)."""

    def __init__(self, text: str, mode: str):
        # mode: "elem" (no z), "map" (z allowed), "form" (T<i> allowed, no z)
        self.text = text
        self.mode = mode
        self.values = _FormVal if mode == "form" else ZPolyRatFunc
        self.tokens = char_tokenize(text, allow_vars=(mode == "form"))
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == op:
            self.next()
            return
        raise ParseError(f"expected {op!r} at position {tok.pos}", tok.pos)

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(
                f"unexpected token {tok.text!r} at position {tok.pos}", tok.pos
            )
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                rhs = self.term()
                value = value.add(rhs.neg() if tok.text == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                if tok.text == "*":
                    value = value.mul(rhs)
                    continue
                try:
                    value = value.div(rhs)
                except _DivisionError as exc:
                    raise ParseError(f"{exc} at position {tok.pos}", tok.pos) from None
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.next()
            return self.factor().neg()
        return self.power()

    def power(self):
        value = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.next()
            exp = self.peek()
            if exp.kind != "INT":
                raise ParseError(
                    f"nonnegative integer exponent expected at position {exp.pos}",
                    exp.pos,
                )
            self.next()
            return value.pow(exp.value)
        return value

    def atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return self.values.const(tok.value)
        if tok.kind == "T":
            return self.values.t()
        if tok.kind == "Z":
            if self.mode != "map":
                raise ParseError(
                    f"map context required for 'z' at position {tok.pos}", tok.pos
                )
            return self.values.z()
        if tok.kind == "VAR":
            return self.values.variable(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(
            f"unexpected {'end of input' if tok.kind == 'END' else repr(tok.text)} "
            f"at position {tok.pos}",
            tok.pos,
        )


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _t_mono_text(c_abs: Fraction, k: int) -> str:
    if k == 0:
        return _frac_text(c_abs)
    base = "t" if k == 1 else f"t^{k}"
    return base if c_abs == 1 else f"{_frac_text(c_abs)}*{base}"


def _fraction_signed_terms(p: Poly) -> list[tuple[str, str]]:
    out = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        out.append(("-" if c < 0 else "+", _t_mono_text(abs(c), k)))
    return out


def _join_terms(terms: list[tuple[str, str]]) -> str:
    if not terms:
        return "0"
    sign, body = terms[0]
    parts = [body if sign == "+" else f"-{body}"]
    for sign, body in terms[1:]:
        parts.append(f" {sign} {body}")
    return "".join(parts)


def fraction_poly_text(p: Poly) -> str:
    return _join_terms(_fraction_signed_terms(p))


def fraction_zpoly_text(f: ZPoly) -> str:
    out = []
    for k in range(f.degree, -1, -1):
        c = f.coeff(k)
        if c.is_zero:
            continue
        if k == 0:
            out.extend(_fraction_signed_terms(c))
            continue
        zbase = "z" if k == 1 else f"z^{k}"
        if len(c.coeffs) - c.coeffs.count(Fraction(0)) == 1 or c.is_constant:
            j = c.degree
            cj = c.coeff(j)
            sign = "-" if cj < 0 else "+"
            tpart = _t_mono_text(abs(cj), j)
            out.append((sign, zbase if tpart == "1" else f"{tpart}*{zbase}"))
        else:
            out.append(("+", f"({fraction_poly_text(c)})*{zbase}"))
    return _join_terms(out)


def fraction_map_text(phi: RationalMap) -> str:
    num = fraction_zpoly_text(phi.F)
    if phi.G == ZPoly.one():
        return num
    return f"({num})/({fraction_zpoly_text(phi.G)})"


def _plain(value):
    """value with every Fraction in it replaced by its text."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def plain_json_lines(records: list[dict]) -> str:
    """One line per record: the record with every Fraction replaced by its
    text, written by json.dumps with sorted keys."""
    return "".join(json.dumps(_plain(r), sort_keys=True) + "\n" for r in records)


def plain_csv(records: list[dict]) -> str:
    """The records as CSV, columns sorted, each record with every Fraction
    replaced by its text: a str cell written as it is, any other by
    json.dumps."""
    records = [_plain(r) for r in records]
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=sorted({k for r in records for k in r}), lineterminator="\n"
    )
    writer.writeheader()
    for r in records:
        writer.writerow(
            {k: v if isinstance(v, str) else json.dumps(v) for k, v in r.items()}
        )
    return buf.getvalue()

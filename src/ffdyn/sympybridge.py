"""Conversions to sympy for factorization, gcd and squarefree decomposition.

sympy is used as the factorization engine only; all public data stays in the
package's own exact types. Factoring in Q[z, t] gives the factorization over
K = Q(t) by Gauss's lemma: irreducible factors with positive z-degree are
exactly the K[z]-irreducibles, and t-only factors are units of K.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

from .errors import DomainError
from .polynomials import Poly, ZPoly

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
    zdeg = max(coeffs)
    out = []
    for i in range(zdeg + 1):
        row = coeffs.get(i, {})
        tdeg = max(row, default=-1)
        out.append(Poly.from_list([row.get(j, Fraction(0)) for j in range(tdeg + 1)]))
    return ZPoly.from_list(out)


@lru_cache(maxsize=4096)
def factor_tpoly(p: Poly) -> tuple[Fraction, tuple[tuple[Poly, int], ...]]:
    """Factor a nonzero element of Q[t] into monic irreducibles.

    Returns (unit, ((factor, multiplicity), ...)) with unit * prod == p and
    factors sorted canonically.
    """
    if p.is_zero:
        raise DomainError("cannot factor zero")
    if p.is_constant:
        return p.constant_value(), ()
    factors = []
    _, raw = poly_to_sympy(p).factor_list()
    for sp, mult in raw:
        q = sympy_to_poly(sympy.Poly(sp, _T, domain="QQ"))
        factors.append((q.monic(), mult))
    # monic factors make the unit exactly the leading coefficient
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.leading, tuple(factors)


def is_irreducible_tpoly(p: Poly) -> bool:
    if p.is_zero or p.is_constant:
        return False
    _, factors = factor_tpoly(p)
    return len(factors) == 1 and factors[0][1] == 1


def _canonical_kz_factor(sp: sympy.Poly) -> ZPoly:
    """Canonical representative of a K[z]-irreducible: t-primitive with
    positive integer-coprime coefficients and positive leading sign."""
    f = sympy_to_zpoly(sp)
    c = f.rational_content()
    lead_sign = f.leading.leading
    if lead_sign < 0:
        c = -c
    return f.scale(1 / c)


def factor_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Irreducible factorization over K = Q(t) of a nonzero f in K[z].

    Only factors with positive z-degree are returned (t-only content is a
    unit of K); each factor is a canonical t-primitive representative.
    """
    if f.is_zero:
        raise DomainError("cannot factor zero")
    if f.degree <= 0:
        return []
    _, raw = zpoly_to_sympy(f).factor_list()
    out = []
    for sp, mult in raw:
        spp = sympy.Poly(sp, _Z, _T, domain="QQ")
        if spp.degree(_Z) > 0:
            out.append((_canonical_kz_factor(spp), mult))
    out.sort(key=lambda fm: (fm[0].degree, [tuple(c.coeffs) for c in fm[0].coeffs]))
    return out


def sqf_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Squarefree decomposition over K of a nonzero f in K[z].

    Returns [(part, multiplicity)] for the parts with positive z-degree.
    """
    if f.is_zero:
        raise DomainError("cannot decompose zero")
    if f.degree <= 0:
        return []
    _, raw = zpoly_to_sympy(f).sqf_list()
    out = []
    for sp, mult in raw:
        spp = sympy.Poly(sp, _Z, _T, domain="QQ")
        if spp.degree(_Z) > 0:
            out.append((_canonical_kz_factor(spp), mult))
    return out


def resultant_z(f: ZPoly, g: ZPoly) -> Poly:
    """Resultant in z of two nonzero elements of Q[t][z] (affine convention:
    the degrees are the actual z-degrees, with no homogenization)."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of zero polynomial")
    r = sympy.resultant(
        zpoly_to_sympy(f).as_expr(), zpoly_to_sympy(g).as_expr(), _Z
    )
    return sympy_to_poly(sympy.Poly(r, _T, domain="QQ"))


def zpoly_gcd_over_k(f: ZPoly, g: ZPoly) -> ZPoly:
    """gcd of f, g in K[z], returned as a canonical t-primitive ZPoly.

    The gcd of t-primitive polynomials over Q[z, t] coincides with the
    K[z]-gcd up to units of K; content in t is stripped from the result.
    """
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    sp = sympy.gcd(zpoly_to_sympy(f), zpoly_to_sympy(g))
    h = sympy_to_zpoly(sympy.Poly(sp, _Z, _T, domain="QQ"))
    if h.degree <= 0:
        return ZPoly.one()
    cp = h.content_poly()
    if cp.degree > 0:
        h = h.exact_div_poly(cp)
    c = h.rational_content()
    if h.leading.leading < 0:
        c = -c
    return h.scale(1 / c)

"""Factorization, gcd, resultant and squarefree decomposition through sympy's
dense integer routines.

The gcd in Q[t] is native (``polynomials.poly_gcd``), and two calls here are
fallbacks behind a certificate: ``zpoly_gcd_over_k`` runs only when
``maps.normalize_map`` cannot show F and G coprime by specializing t, and
``sqf_zpoly_over_k`` in ``maps.max_fiber_ram`` only when the same test cannot
show the fiber polynomial squarefree. ``maps.compose`` needs no K[z] gcd at
all. Factorization (``factor_tpoly``, ``factor_zpoly_over_k``) and
``resultant_z`` have no native route yet.

sympy is used as the engine only; all public data stays in the package's own
exact types. Every call converts its operands straight to sympy's dense
representation over ZZ and calls the ``dup_*``/``dmp_*`` routine, with no
sympy expressions or ``Poly`` objects in between:

- an element p of Q[t] becomes the list of its integer numerators
  ``p.ints``, highest degree first. Its denominator is a positive rational
  unit and is dropped wherever only associates matter (factors);
- an element f of Q[t][z] becomes m*f in Z[z, t], where m is the lcm of the
  denominators of its z-coefficients: a list of t-lists in the variable
  order (z, t), each level highest degree first, zero entries as ``[]``.

Factoring in Z[z, t] gives the factorization over K = Q(t) by Gauss's
lemma: irreducible factors with positive z-degree are exactly the
K[z]-irreducibles, and t-only factors are units of K. Results with positive
z-degree are returned in one canonical form: t-primitive, integer
coefficients with gcd 1 and positive leading coefficient of the leading
z-coefficient. The same holds for gcds and squarefree parts, which clearing
denominators changes only by units.

The resultant is the exception: it must stay exact, not just up to units.
For f of z-degree a and g of z-degree b, Res(m_f*f, m_g*g) equals
m_f^b * m_g^a * Res(f, g), since the resultant is homogeneous of degree b in
the coefficients of f and of degree a in those of g. ``resultant_z``
divides that factor back out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from sympy.polys.densearith import dmp_mul, dmp_neg
from sympy.polys.densebasic import dmp_ground_LC
from sympy.polys.densetools import dmp_ground_primitive
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_inner_gcd, dmp_primitive, dmp_resultant
from sympy.polys.factortools import dmp_factor_list, dup_factor_list
from sympy.polys.sqfreetools import dmp_sqf_list

from .errors import DomainError
from .polynomials import Poly, ZPoly


def _to_dense(f: ZPoly) -> tuple[list[list[int]], int]:
    """(m*f as a dense (z, t) list over ZZ, m) for nonzero f, with m the lcm
    of the denominators of the z-coefficients."""
    m = lcm(*(c.den for c in f.coeffs))
    dense = []
    for c in reversed(f.coeffs):
        row = list(reversed(c.ints))
        if c.den != m:
            row = [x * (m // c.den) for x in row]
        dense.append(row)
    return dense, m


def _from_dense(f: list[list[int]], scale: Fraction = Fraction(1)) -> ZPoly:
    """The ZPoly scale * f of a dense (z, t) list over ZZ."""
    rows = [Poly(tuple(reversed(row)), 1) for row in reversed(f)]
    if scale != 1:
        rows = [p.scale(scale) for p in rows]
    return ZPoly.from_list(rows)


def _canonical(f: list[list[int]]) -> list[list[int]]:
    """Canonical associate of a t-primitive dense (z, t) polynomial: integer
    content 1 and positive leading coefficient of the leading z-coefficient."""
    _, f = dmp_ground_primitive(f, 1, ZZ)
    return dmp_neg(f, 1, ZZ) if dmp_ground_LC(f, 1, ZZ) < 0 else f


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
    _, raw = dup_factor_list(list(reversed(p.ints)), ZZ)
    factors = [(Poly(tuple(reversed(q)), 1).monic(), mult) for q, mult in raw]
    # monic factors make the unit exactly the leading coefficient
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.leading, tuple(factors)


def is_irreducible_tpoly(p: Poly) -> bool:
    if p.is_zero or p.is_constant:
        return False
    _, factors = factor_tpoly(p)
    return len(factors) == 1 and factors[0][1] == 1


def factor_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Irreducible factorization over K = Q(t) of a nonzero f in K[z].

    Only factors with positive z-degree are returned (t-only content is a
    unit of K); each factor is a canonical t-primitive representative.
    """
    if f.is_zero:
        raise DomainError("cannot factor zero")
    if f.degree <= 0:
        return []
    _, raw = dmp_factor_list(_to_dense(f)[0], 1, ZZ)
    out = [(_from_dense(_canonical(q)), mult) for q, mult in raw if len(q) > 1]
    out.sort(key=lambda fm: (fm[0].degree, [tuple(c.coeffs) for c in fm[0].coeffs]))
    return out


def sqf_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Squarefree decomposition over K of a nonzero f in K[z].

    Returns [(part, multiplicity)] for the parts with positive z-degree, in
    ascending multiplicity. A part may carry t-content: sympy multiplies the
    squarefree parts of the t-content into the parts of equal multiplicity.
    """
    if f.is_zero:
        raise DomainError("cannot decompose zero")
    if f.degree <= 0:
        return []
    _, raw = dmp_sqf_list(_to_dense(f)[0], 1, ZZ)
    return [(_from_dense(_canonical(q)), mult) for q, mult in raw if len(q) > 1]


def resultant_z(f: ZPoly, g: ZPoly) -> Poly:
    """Resultant in z of two nonzero elements of Q[t][z] (affine convention:
    the degrees are the actual z-degrees, with no homogenization)."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of zero polynomial")
    (F, mf), (G, mg) = _to_dense(f), _to_dense(g)
    r = Poly(tuple(reversed(dmp_resultant(F, G, 1, ZZ))), 1)
    scale = mf ** g.degree * mg ** f.degree
    return r if scale == 1 else r.scale(Fraction(1, scale))


def zpoly_gcd_over_k(f: ZPoly, g: ZPoly) -> tuple[ZPoly, ZPoly, ZPoly]:
    """gcd h of f, g in K[z] with the cofactors f/h and g/h.

    h is canonical (t-primitive, see the module docstring) and the cofactors
    are exact, with Q[t] coefficients by Gauss's lemma. A z-constant gcd is
    returned as 1 with the cofactors f and g; gcd(0, g) is g itself.
    """
    if f.is_zero:
        return g, f, ZPoly.one()
    if g.is_zero:
        return f, ZPoly.one(), g
    (F, mf), (G, mg) = _to_dense(f), _to_dense(g)
    h, cf, cg = dmp_inner_gcd(F, G, 1, ZZ)
    if len(h) == 1:
        return ZPoly.one(), f, g
    # m_f*f = cont*prim*cf with prim = +-h canonical, so f/h = +-cont*cf/m_f
    cont, h = dmp_primitive(h, 1, ZZ)
    sign = 1 if dmp_ground_LC(h, 1, ZZ) > 0 else -1
    if sign < 0:
        h = dmp_neg(h, 1, ZZ)
    if cont != [1]:
        cf = dmp_mul(cf, [cont], 1, ZZ)
        cg = dmp_mul(cg, [cont], 1, ZZ)
    return (
        _from_dense(h),
        _from_dense(cf, Fraction(sign, mf)),
        _from_dense(cg, Fraction(sign, mg)),
    )
